import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import distpoison
from distpoison.attack import PerturbationSet
from distpoison.cli import load_config, main
from distpoison.experiment import replay_perturbation


def write_config(tmp_path, **kw):
    raw = {
        "dataset": {
            "kind": "sbm",
            "block_sizes": [10, 10],
            "p_intra": 0.35,
            "p_inter": 0.05,
            "feature_dim": 4,
            "noise": 0.3,
        },
        "attack": {
            "kind": "disttack",
            "edge_budget": 2,
            "feature_budget": 2,
            "surrogate_epochs": 8,
            "target_count": 2,
            "lambda_homo": 0.0,
        },
        "seeds": [0],
        "workers": 2,
        "epochs": 6,
        "batch_size": 3,
        "hidden_dim": 8,
    }
    raw.update(kw)
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_run_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "seed 0" in out and "mean drop" in out


def test_run_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()
    # rerun without --force refuses with a config-level exit code
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 2
    assert main(["run", "--config", str(cfg), "--out", str(out_dir), "--force"]) == 0


def test_set_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main([
        "run", "--config", str(cfg),
        "--set", "epochs=3",
        "--set", "attack.edge_budget=0",
        "--set", "seeds=[5]",
    ])
    assert code == 0
    assert "seed 5" in capsys.readouterr().out


def test_invalid_config_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, workers=0)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "workers" in capsys.readouterr().err


def test_missing_config_exit_two(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_gradcheck_exit_zero(capsys):
    assert main(["gradcheck", "--nodes", "12", "--hidden", "8"]) == 0
    out = capsys.readouterr().out
    assert "dW0" in out and "dA" in out and "OK" in out


def test_bench_and_json_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "bench.json"
    code = main([
        "bench", "--config", str(cfg), "--sizes", "1,2,3",
        "--iterations", "3", "--out", str(out),
    ])
    assert code == 0
    table = json.loads(out.read_text())
    assert len(table["rows"]) == 3
    assert "r2" in table["fit"]


@pytest.mark.parametrize(
    "command, out, option",
    [
        ("run", "done", "--out"),  # holds a summary.json, and --force is not given
        ("run", "file", "--out"),
        ("run", "file/sub", "--out"),
        (None, "file", "out_dir"),  # the config's out_dir, without --out
        ("bench", "file/x.json", "--out"),
        ("bench", "file/sub/x.json", "--out"),
        ("bench", "done", "--out"),  # a directory, where the table's file would go
    ],
)
def test_bad_out_exits_two_before_compute(tmp_path, capsys, monkeypatch, command, out, option):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    monkeypatch.setattr("distpoison.cli.scaling_benchmark", _no_compute)
    (tmp_path / "done").mkdir()
    (tmp_path / "done" / "summary.json").write_text("{}")
    (tmp_path / "file").write_text("")
    if command is None:
        argv = ["run", "--config", str(write_config(tmp_path, out_dir=str(tmp_path / out)))]
    else:
        argv = [command, "--config", str(write_config(tmp_path)), "--out", str(tmp_path / out)]
    assert main(argv) == 2
    assert f"{option}: " in capsys.readouterr().err


def test_replay_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    pert = out_dir / "perturbation_seed0.json"
    assert pert.exists()
    code = main([
        "replay", "--config", str(cfg), "--perturbation", str(pert), "--seed", "0",
    ])
    assert code == 0
    assert "replayed" in capsys.readouterr().out


def test_replay_defaults_to_recorded_seed(tmp_path, capsys):
    # Replayed onto seed 0's graph, seed 3's edge moves name edges that are
    # not there, and its flips train on another graph.
    for attack in ({"kind": "ra", "edge_budget": 4, "feature_budget": 4},
                   {"kind": "ra", "edge_budget": 0, "feature_budget": 4}):
        cfg = write_config(tmp_path, attack=attack, seeds=[3])
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir), "--force"]) == 0
        ran = capsys.readouterr().out.splitlines()[0].split(" (")[0]
        pert = str(out_dir / "perturbation_seed3.json")
        assert main(["replay", "--config", str(cfg), "--perturbation", pert]) == 0
        replayed = capsys.readouterr().out.split(": ", 1)[1].strip()
        assert ran == f"seed 3: {replayed}"


@pytest.mark.parametrize("kind", ["disttack", "ra"])
def test_replay_rejects_another_poisoned_worker(tmp_path, capsys, monkeypatch, kind):
    # Worker 1 was poisoned; replayed with worker 0 the run would train the
    # perturbation on another worker's share.
    cfg = write_config(tmp_path, workers=2, poisoned_worker=1)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--set", f"attack.kind={kind}",
                 "--out", str(out_dir)]) == 0
    pert = out_dir / "perturbation_seed0.json"
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    capsys.readouterr()
    assert main(["replay", "--config", str(cfg), "--perturbation", str(pert),
                 "--set", "poisoned_worker=0"]) == 2
    assert "poisoned_worker:" in capsys.readouterr().err
    monkeypatch.undo()
    replayed = replay_perturbation(load_config(cfg, []), PerturbationSet.load(pert), seed=0)
    ran = json.loads((out_dir / "summary.json").read_text())["runs"][0]
    assert replayed.acc_attacked == ran["acc_attacked"]


def _env():
    """The environment of a child Python that imports this distpoison."""
    src = str(Path(distpoison.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_with_closed_stdout(*args, unbuffered):
    """The CLI in a child whose stdout reader is gone before the first line,
    as in `distpoison run ... | true`. Unbuffered, the first print raises;
    block-buffered, as a pipe is by default, the flush at the end does."""
    env = dict(_env(), PYTHONUNBUFFERED="1" if unbuffered else "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "distpoison.cli", *args], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


def test_closed_stdout_keeps_results(tmp_path):
    # The run still writes every file, and its output just ends: exit 0, no
    # traceback.
    out_dir = tmp_path / "results"
    proc = _run_with_closed_stdout("run", "--config", str(write_config(tmp_path)),
                                   "--set", "seeds=[0,1]", "--out", str(out_dir),
                                   unbuffered=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    runs = json.loads((out_dir / "summary.json").read_text())["runs"]
    assert [r["seed"] for r in runs] == [0, 1]
    assert len(list(out_dir.iterdir())) == 1 + 2 * 5  # summary, then 5 files per seed
    # A failed check whose output was buffered keeps its exit status. A
    # threshold below any nonzero error fails the check.
    proc = _run_with_closed_stdout("gradcheck", "--nodes", "8", "--hidden", "4",
                                   "--threshold", "1e-300", unbuffered=False)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("stdout", ["closed-unbuffered", "closed-buffered", "devnull"])
def test_failed_check_keeps_its_status_when_output_ends(stdout):
    # Unbuffered, the first print used to meet the closed pipe before the
    # command had returned its status, and the CLI exited 0.
    args = ("gradcheck", "--nodes", "8", "--hidden", "4", "--threshold", "1e-300")
    if stdout == "devnull":
        proc = subprocess.run([sys.executable, "-m", "distpoison.cli", *args], env=_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    else:
        proc = _run_with_closed_stdout(*args, unbuffered=stdout == "closed-unbuffered")
    assert (proc.returncode, proc.stderr) == (1, "")


def test_scipy_sparse_imports_after_run(tmp_path):
    # The products load scipy's kernel module under a name of distpoison's,
    # so scipy.sparse, imported later, binds and uses its own.
    run = ["run", "--config", str(write_config(tmp_path))]
    code = (
        "import numpy as np, distpoison.cli\n"
        f"assert distpoison.cli.main({run!r}) == 0\n"
        "import scipy.sparse as sp\n"
        "A = sp.random(6, 5, density=0.5, format='csr', random_state=0)\n"
        "M = np.arange(10.0).reshape(5, 2)\n"
        "assert np.allclose(A @ M, A.toarray() @ M)\n"
        "print(hasattr(sp, '_sparsetools'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "True"


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats would be most of the CLI's start-up, and no path needs it.
    # scipy.sparse costs most of the rest (through scipy._lib, which imports
    # numpy.f2py): the products load its compiled kernels alone, on every path
    # of a run and of gradcheck.
    run = ["run", "--config", str(write_config(tmp_path)), "--set", "attack.lambda_homo=1.0"]
    code = (
        "import json, sys, distpoison.cli\n"
        f"assert distpoison.cli.main({run!r}) == 0\n"
        "assert distpoison.cli.main(['gradcheck', '--nodes', '8', '--hidden', '4']) == 0\n"
        "names = ('scipy.stats', 'scipy.sparse', 'scipy._lib', 'numpy.f2py')\n"
        "print(json.dumps([name for name in names if name in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_single_worker_rejected_before_training(tmp_path, capsys, monkeypatch):
    # The divergence series needs a clean worker to compare against, so one
    # worker is a configuration error, caught before any dataset or training.
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    cfg = write_config(tmp_path)
    code = main(["run", "--config", str(cfg), "--set", "workers=1", "--set", "attack.kind=none"])
    assert code == 2
    assert "workers" in capsys.readouterr().err


def test_poisoned_worker_out_of_range_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    cfg = write_config(tmp_path, workers=4)
    for bad in ("5", "4", "-1"):
        assert main(["run", "--config", str(cfg), "--set", f"poisoned_worker={bad}"]) == 2
        assert "poisoned_worker" in capsys.readouterr().err
    monkeypatch.undo()
    last = ["--set", "workers=2", "--set", "poisoned_worker=1"]
    assert main(["run", "--config", str(cfg), *last]) == 0


def _no_compute(*args, **kwargs):
    raise AssertionError("a rejected config reached dataset generation")


@pytest.mark.parametrize(
    "override, field",
    [
        ("attack.bogus=1", "attack.bogus"),
        ("partition_strategy=zzz", "partition_strategy"),
        ("attack.edge_budget=abc", "attack.edge_budget"),
        ("learning_rate=nan", "learning_rate"),  # YAML reads a bare nan as a string
        ("attack.lambda_homo=-1", "attack.lambda_homo"),
        ("attack.homophily_measure=foo", "attack.homophily_measure"),
        # Fields the attack no longer has are unknown, whatever their value.
        ("attack.strict_flip=true", "attack.strict_flip"),
        ("attack.warm_start=false", "attack.warm_start"),
        ("attack.homophily_measure=wasserstein1", "attack.homophily_measure"),
        ("attack.target_rule=high_degree", "attack.target_rule"),
        ("parallel_seeds=0", "parallel_seeds"),
        ("parallel_seeds=-2", "parallel_seeds"),
        ("parallel_seeds=2", "parallel_seeds"),  # seeds run in sequence
        ("learning_rate=-1", "learning_rate"),
        ("attack.surrogate_lr=-5", "attack.surrogate_lr"),
        ("attack.edge_budget_frac=0.1", "attack.edge_budget_frac"),  # beside edge_budget
        ("sgc_k=0", "sgc_k"),
        ("seeds=[-1]", "seeds"),
        ("seeds=[true]", "seeds"),
        ("seeds=[]", "seeds"),
        ("seeds=[0,0]", "seeds"),  # each seed's files would be written twice
        ("attack.kind=zzz", "attack.kind"),
        ("attack.seed=5", "attack.seed"),  # each run's seed comes from seeds
    ],
)
def test_bad_value_rejected_before_dataset(tmp_path, capsys, monkeypatch, override, field):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--set", override]) == 2
    assert f"{field}:" in capsys.readouterr().err


UNREADABLE_CONFIGS = [
    # (the --config file's bytes, or "dir", "absent" or "good"; --set items; message)
    (b"seeds: [0\n", [], "not valid YAML at line 2, column 1"),
    (b"\xff\xfe: 1\n", [], "cannot be read: 'utf-8' codec can't decode"),
    ("dir", [], "cannot be read: [Errno 21] Is a directory"),
    ("absent", [], "cannot be read: [Errno 2] No such file"),
    ("good", ["seeds=[0"], "--set seeds: not valid YAML at line 1, column 3"),
    ("good", ["=5"], "--set expects key=value, got '=5'"),
    ("good", ["attack..kind=ra"], "--set expects key=value, got 'attack..kind=ra'"),
]


@pytest.mark.parametrize("command", ["run", "bench", "replay"])
@pytest.mark.parametrize("config, overrides, message", UNREADABLE_CONFIGS)
def test_unreadable_config_exits_two(tmp_path, capsys, monkeypatch, command, config,
                                     overrides, message):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    cfg = tmp_path / "cfg.yaml"
    if config == "good":
        cfg = write_config(tmp_path)
    elif config == "dir":
        cfg.mkdir()
    elif config != "absent":
        cfg.write_bytes(config)
    argv = [command, "--config", str(cfg), *(a for o in overrides for a in ("--set", o))]
    if command == "replay":
        argv += ["--perturbation", str(tmp_path / "p.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    if not overrides:
        assert f"--config {cfg}:" in err


@pytest.mark.parametrize(
    "attack, message",
    [
        ({"edge_budget": 2}, "attack.kind: required"),
        ({"kind": "ra", "edge_budget_frac": 1.5}, "attack.edge_budget_frac: must be in [0, 1]"),
    ],
)
def test_bad_attack_rejected_before_dataset(tmp_path, capsys, monkeypatch, attack, message):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    cfg = write_config(tmp_path, attack=attack)
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ("dataset.block_sizes=[10,-1]", "dataset.block_sizes"),
        ("dataset.block_sizes=[0,0]", "dataset.block_sizes"),
        ("dataset.block_sizes=ten", "dataset.block_sizes"),
        ("dataset.p_intra=1.5", "dataset.p_intra"),
        ("dataset.p_inter=-0.1", "dataset.p_inter"),
        ("dataset.noise=-1", "dataset.noise"),
        ("dataset.feature_dim=1", "dataset.feature_dim"),  # two blocks to one-hot
        ("dataset.train_frac=0.9", "dataset.val_frac"),  # 0.9 + 0.2 > 1
        ("dataset.train_frac=0.8", "dataset.val_frac"),  # no test split left
        ("dataset.val_frac=1.5", "dataset.val_frac"),
        ("dataset.bogus=1", "dataset.bogus"),
    ],
)
def test_bad_sbm_dataset_rejected_before_dataset(tmp_path, capsys, monkeypatch, override, field):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--set", override]) == 2
    assert f"{field}:" in capsys.readouterr().err


def test_missing_sbm_field_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    cfg = write_config(tmp_path, dataset={"kind": "sbm", "block_sizes": [10, 10],
                                          "p_intra": 0.3, "feature_dim": 4, "noise": 0.3})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "dataset.p_inter: required" in capsys.readouterr().err


def _no_training(*args, **kwargs):
    raise AssertionError("a worker without training nodes reached an attack or training")


@pytest.mark.parametrize(
    "overrides",
    [
        # The reference config's blocks of 50 keep no training node at 1%.
        ["dataset.train_frac=0.01", "workers=8"],
        ["dataset.train_frac=0.01", "workers=8", "attack.kind=ra"],
        # Ten nodes hold four training nodes for 64 workers.
        ["workers=64", "dataset.block_sizes=[5,5]", "attack.kind=none"],
    ],
)
def test_empty_training_pool_rejected_before_training(tmp_path, capsys, monkeypatch, overrides):
    for name in ("build_attack", "train_distributed"):
        monkeypatch.setattr(f"distpoison.experiment.{name}", _no_training)
    cfg = write_config(tmp_path, dataset=yaml.safe_load(
        (Path(__file__).parents[1] / "configs" / "sbm_disttack.yaml").read_text())["dataset"])
    args = [a for o in overrides for a in ("--set", o)]
    assert main(["run", "--config", str(cfg), *args]) == 2
    err = capsys.readouterr().err
    assert "workers: worker " in err and "owns no training node" in err
    assert "dataset.train_frac: " in err


def test_empty_test_split_rejected_before_training(tmp_path, capsys, monkeypatch):
    # Blocks of 3 round 0.3 and 0.6 of each to 1 training and 2 validation
    # nodes, which leaves no test node.
    for name in ("build_attack", "train_distributed"):
        monkeypatch.setattr(f"distpoison.experiment.{name}", _no_training)
    dataset = {"kind": "sbm", "block_sizes": [3, 3], "p_intra": 0.5, "p_inter": 0.1,
               "feature_dim": 2, "noise": 0.3, "val_frac": 0.6}
    cfg = write_config(tmp_path, dataset=dataset)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "dataset.val_frac: 0.6 with train_frac 0.3 leaves no test node" in (
        capsys.readouterr().err
    )


def write_files_dataset(tmp_path):
    """A 12-node two-class ring as the three dataset files."""
    n = 12
    (tmp_path / "edges.txt").write_text("".join(f"{i}\t{(i + 1) % n}\n" for i in range(n)))
    rows = [f"{i},{1.0 - i % 2},{i % 2 * 1.0},{i % 2}" for i in range(n)]
    (tmp_path / "nodes.csv").write_text("node_id,f0,f1,label\n" + "\n".join(rows) + "\n")
    splits = {"train": list(range(8)), "val": [8, 9], "test": [10, 11]}
    (tmp_path / "splits.json").write_text(json.dumps(splits))
    return {"kind": "files", "edges": str(tmp_path / "edges.txt"),
            "features": str(tmp_path / "nodes.csv"), "splits": str(tmp_path / "splits.json")}


def test_files_dataset_runs(tmp_path):
    cfg = write_config(tmp_path, dataset=write_files_dataset(tmp_path), attack={"kind": "none"})
    assert main(["run", "--config", str(cfg)]) == 0


def test_files_dataset_negative_label_fails_before_training(tmp_path, capsys, monkeypatch):
    dataset = write_files_dataset(tmp_path)
    rows = (tmp_path / "nodes.csv").read_text().replace("\n5,0.0,1.0,1\n", "\n5,0.0,1.0,-1\n")
    (tmp_path / "nodes.csv").write_text(rows)
    def no_training(*args, **kwargs):
        raise AssertionError("a dataset with a negative label reached training")

    monkeypatch.setattr("distpoison.experiment.train_distributed", no_training)
    cfg = write_config(tmp_path, dataset=dataset, attack={"kind": "none"})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "dataset.features: node 5 has negative label -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("nodes.csv", "node_id,f0", "id,f0", "dataset.features: "),
        ("nodes.csv", "node_id,f0,f1,label\n", "\n", "dataset.features: "),
        ("edges.txt", "3\t4\n", "3\t40\n", "dataset.edges: edge (3, 40) references"),
        ("edges.txt", "3\t4\n", "3 4 5\n", "dataset.edges: "),
        ("splits.json", "[8, 9]", "[8, 9, 1]", "dataset.splits: node 1 appears in more"),
        ("splits.json", '"val"', '"dev"', "dataset.splits: "),
        ("splits.json", "[8, 9]", "[8, 1.5]", "dataset.splits: val split lists 1.5, not an"),
        ("splits.json", "[8, 9]", "[8, true]", "dataset.splits: val split lists true, not an"),
        ("splits.json", "[8, 9]", '[8, "x"]', 'dataset.splits: val split lists "x", not an'),
        ("splits.json", "[8, 9]", "[8, null]", "dataset.splits: val split lists null, not an"),
        ("splits.json", "[8, 9]", "[8, [9]]", "dataset.splits: val split lists [9], not an"),
        ("splits.json", "[8, 9]", "8", "dataset.splits: val split must be a list of node ids"),
        ("nodes.csv", "\n5,0.0,1.0,1\n", "\n5,0.0,nan,1\n",
         "dataset.features: node 5 has non-finite feature nan in column 1"),
        ("nodes.csv", "\n5,0.0,1.0,1\n", "\n5,-inf,1.0,1\n",
         "dataset.features: node 5 has non-finite feature -inf in column 0"),
        ("nodes.csv", "\n5,0.0,1.0,1\n", "\n5,0.0,1\n",
         "nodes.csv:7: expected 4 cells (node_id, 2 features, label), got 3"),
        ("nodes.csv", "\n5,0.0,1.0,1\n", "\n5,0.0,1.0,2.0,1\n",
         "nodes.csv:7: expected 4 cells (node_id, 2 features, label), got 5"),
        ("nodes.csv", "\n5,0.0,1.0,1\n", "\n5,0.0,x,1\n",
         "nodes.csv:7: could not convert string to float: 'x'"),
        ("nodes.csv", "node_id,f0,f1,label\n", "node_id,label\n",
         "with at least one feature column"),
        ("splits.json", "[10, 11]", "[]", "dataset.splits: the test split is empty"),
    ],
)
def test_files_dataset_bad_content_exits_two(tmp_path, capsys, name, old, new, message):
    dataset = write_files_dataset(tmp_path)
    path = tmp_path / name
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new, 1))
    cfg = write_config(tmp_path, dataset=dataset, attack={"kind": "none"})
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field", ["edges", "features", "splits"])
def test_missing_file_rejected_before_dataset(tmp_path, capsys, monkeypatch, field):
    dataset = write_files_dataset(tmp_path)
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    dataset[field] = str(tmp_path / "absent.txt")
    cfg = write_config(tmp_path, dataset=dataset, attack={"kind": "none"})
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"dataset.{field}: must be the name of an existing file" in capsys.readouterr().err


def test_files_dataset_requires_every_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    dataset = write_files_dataset(tmp_path)
    del dataset["splits"]
    cfg = write_config(tmp_path, dataset=dataset, attack={"kind": "none"})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "dataset.splits: required" in capsys.readouterr().err


BAD_OPTIONS = [
    (["bench", "--sizes", "1,2,x"], "--sizes"),
    (["bench", "--sizes", "0,1,2"], "--sizes"),
    (["bench", "--sizes", "1,1,1"], "--sizes"),  # no fit through one size
    (["bench", "--sizes", "1,2"], "--sizes"),
    (["bench", "--iterations", "0"], "--iterations"),
    (["gradcheck", "--nodes", "100"], "--nodes"),  # the oracle takes <= 64 nodes
    (["gradcheck", "--nodes", "0"], "--nodes"),
    (["gradcheck", "--features", "1"], "--features"),  # three blocks to one-hot
    (["gradcheck", "--hidden", "0"], "--hidden"),
    (["gradcheck", "--epsilon", "0"], "--epsilon"),
    (["gradcheck", "--epsilon", "nan"], "--epsilon"),
    (["gradcheck", "--threshold", "-1"], "--threshold"),  # no error is below it
    (["gradcheck", "--threshold", "0"], "--threshold"),
    (["gradcheck", "--threshold", "nan"], "--threshold"),
    (["gradcheck", "--threshold", "inf"], "--threshold"),  # every finite error is below it
    (["gradcheck", "--seed", "-1"], "--seed"),
    (["replay", "--perturbation", "p.json", "--seed", "-3"], "--seed"),
]


@pytest.mark.parametrize("argv, option", BAD_OPTIONS, ids=[" ".join(a) for a, _ in BAD_OPTIONS])
def test_bad_option_exits_two_before_compute(tmp_path, capsys, monkeypatch, argv, option):
    for name in ("generate_sbm", "scaling_benchmark", "replay_perturbation", "load_config"):
        monkeypatch.setattr(f"distpoison.cli.{name}", _no_compute)
    if argv[0] != "gradcheck":
        argv = [argv[0], "--config", str(write_config(tmp_path)), *argv[1:]]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"argument {option}: " in capsys.readouterr().err


def _edit_rows(name, key, value):
    def edit(d):
        d[name][0][key] = value
        return d
    return edit


def _drop_key(name, key):
    def edit(d):
        del d[name][0][key]
        return d
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_rows("features_flipped", "node", -1), "feature (-1, 0) out of range"),
        (_edit_rows("features_flipped", "dim", 4), "out of range"),
        (_drop_key("edges_removed", "j"), "KeyError"),
        (lambda d: dict(d, edges_removed=[{"i": 0, "j": 0, "score": 0.0, "iter": 1}]),
         "edge (0, 0) not present"),
        (lambda d: [d], "AttributeError"),
        (None, "JSONDecodeError"),
    ],
    ids=["flip-node-minus-1", "flip-dim-out-of-range", "row-without-j", "absent-edge",
         "list-not-mapping", "not-json"],
)
def test_replay_rejects_a_bad_perturbation_before_training(tmp_path, capsys, monkeypatch,
                                                           edit, message):
    # Without the checks a flip of node -1 edits node n - 1 and the run
    # exits 0; a malformed row or an absent edge fails as a runtime error.
    cfg = write_config(tmp_path, attack={"kind": "ra", "edge_budget": 4, "feature_budget": 4})
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    pert = out_dir / "perturbation_seed0.json"
    d = json.loads(pert.read_text())
    d["features_flipped"][0]["dim"] = 0
    pert.write_text("{" if edit is None else json.dumps(edit(d)))
    monkeypatch.setattr("distpoison.experiment.train_distributed", _no_training)
    capsys.readouterr()
    assert main(["replay", "--config", str(cfg), "--perturbation", str(pert)]) == 2
    err = capsys.readouterr().err
    assert "invalid perturbation" in err and message in err


def _edit_config(key, value):
    def edit(d):
        d["config"][key] = value
        return d
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_rows("features_flipped", "node", 1.5),
         "features_flipped[0].node: must be an integer, got 1.5"),
        (_edit_rows("features_flipped", "sign", 0), "features_flipped[0].sign: must be one of"),
        (_edit_rows("features_flipped", "new", "x"), "features_flipped[0].new: must be a finite"),
        (_edit_rows("edges_removed", "i", True), "edges_removed[0].i: must be an integer"),
        (_edit_rows("edges_removed", "score", None), "edges_removed[0].score: must be a finite"),
        (_edit_config("seed", -3), "config.seed: must be nonnegative, got -3"),
        (_edit_config("poisoned_worker", "0"), "config.poisoned_worker: must be an integer"),
        (lambda d: dict(d, config=[1]), "config: must be a mapping"),
    ],
    ids=["flip-node-float", "flip-sign-zero", "flip-new-string", "edge-i-bool",
         "edge-score-null", "config-seed-negative", "config-worker-string", "config-list"],
)
def test_replay_rejects_a_mistyped_field_before_any_dataset(tmp_path, capsys, monkeypatch,
                                                           edit, message):
    # Unchecked, a flip node of 1.5 raised IndexError and a recorded seed of
    # -3 ValueError, each after the dataset was built: exit 1.
    cfg = write_config(tmp_path, attack={"kind": "ra", "edge_budget": 4, "feature_budget": 4})
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    pert = out_dir / "perturbation_seed0.json"
    d = json.loads(pert.read_text())
    assert d["edges_removed"] and d["features_flipped"]
    pert.write_text(json.dumps(edit(d)))
    monkeypatch.setattr("distpoison.experiment.build_dataset", _no_compute)
    capsys.readouterr()
    assert main(["replay", "--config", str(cfg), "--perturbation", str(pert)]) == 2
    err = capsys.readouterr().err
    assert "invalid perturbation" in err and message in err
