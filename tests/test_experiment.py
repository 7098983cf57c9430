import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import distpoison
from distpoison import experiment as experiment_module
from distpoison.experiment import (
    ConfigError,
    ExperimentConfig,
    _code_version,
    build_dataset,
    emit_histograms,
    emit_results,
    load_summary,
    replay_perturbation,
    run_experiment,
    scaling_benchmark,
)
from distpoison.homophily import homophily_values, write_histogram_csv


def base_config(**kw):
    raw = {
        "dataset": {
            "kind": "sbm",
            "block_sizes": [12, 12],
            "p_intra": 0.3,
            "p_inter": 0.05,
            "feature_dim": 4,
            "noise": 0.3,
        },
        "attack": {
            "kind": "disttack",
            "edge_budget": 3,
            "feature_budget": 3,
            "surrogate_epochs": 10,
            "target_count": 2,
            "lambda_homo": 0.0,
        },
        "seeds": [0, 1],
        "workers": 2,
        "epochs": 8,
        "batch_size": 4,
        "hidden_dim": 8,
    }
    raw.update(kw)
    return raw


def read_csv_without_wall_ms(path):
    # wall-clock timing is the one nondeterministic column
    lines = path.read_text().strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestConfigValidation:
    def test_valid_config(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.workers == 2
        assert cfg.attack["kind"] == "disttack"

    def test_field_level_messages(self):
        raw = base_config(workers=0, model="gat")
        raw["attack"] = {"kind": "bogus"}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        msg = str(exc.value)
        assert "workers" in msg and "model" in msg and "attack.kind" in msg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            ExperimentConfig.from_dict(base_config(typo_field=1))

    def test_negative_budget_rejected(self):
        raw = base_config()
        raw["attack"] = {"kind": "disttack", "edge_budget": -1}
        with pytest.raises(ConfigError, match="nonnegative"):
            ExperimentConfig.from_dict(raw)

    def test_dataset_kind_required(self):
        raw = base_config()
        raw["dataset"] = {"kind": "csv"}
        with pytest.raises(ConfigError, match="dataset.kind"):
            ExperimentConfig.from_dict(raw)

    def test_defaults_recorded_in_to_dict(self):
        cfg = ExperimentConfig.from_dict(base_config())
        d = cfg.to_dict()
        assert d["aggregation"] == "mean"
        assert d["poisoned_worker"] == 0
        assert d["learning_rate"] == 0.3


class TestRunExperiment:
    def test_attack_none_identical_accuracies(self):
        cfg = ExperimentConfig.from_dict(base_config(attack={"kind": "none"}, seeds=[0]))
        (r,) = run_experiment(cfg)
        assert r.acc_clean == r.acc_attacked
        assert r.accuracy_drop == 0.0
        assert r.edges_removed == r.edges_added == r.features_flipped == 0

    def test_zero_budget_zero_drop(self):
        raw = base_config(seeds=[0])
        raw["attack"] = {
            "kind": "disttack",
            "edge_budget": 0,
            "feature_budget": 0,
            "surrogate_epochs": 5,
        }
        cfg = ExperimentConfig.from_dict(raw)
        (r,) = run_experiment(cfg)
        assert r.accuracy_drop == 0.0
        assert r.homophily_distance == 0.0

    def test_seed_accounting(self):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[3, 1, 4, 5]))
        results = run_experiment(cfg)
        assert [r.seed for r in results] == [3, 1, 4, 5]

    def test_paired_runs_share_everything_but_the_poison(self):
        # At epoch 0 the clean workers of the attacked run must produce the
        # same gradients as in the clean run: same seed, partition, init.
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0]))
        (r,) = run_experiment(cfg)
        clean0 = r.records_clean[0].worker_norms
        poisoned0 = r.records_poisoned[0].worker_norms
        assert poisoned0[1] == clean0[1]  # untouched worker
        assert poisoned0[0] != clean0[0]  # poisoned worker

    def test_sgc_model_end_to_end(self):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0], model="sgc", sgc_k=2))
        (r,) = run_experiment(cfg)
        assert 0.0 <= r.acc_clean <= 1.0
        assert 0.0 <= r.acc_attacked <= 1.0

    def test_edge_budget_frac_resolved_per_graph(self):
        raw = base_config(seeds=[0])
        raw["attack"] = {
            "kind": "ra",
            "edge_budget_frac": 0.1,
            "feature_budget": 0,
        }
        cfg = ExperimentConfig.from_dict(raw)
        (r,) = run_experiment(cfg)
        g = build_dataset(cfg, 0)
        assert r.edges_removed + r.edges_added <= int(round(0.1 * g.num_edges))


class TestEmitResults:
    def test_empty_results(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config())
        written = emit_results([], tmp_path / "out", cfg)
        assert [p.name for p in written] == ["summary.json"]
        summary = load_summary(tmp_path / "out" / "summary.json")
        assert summary["runs"] == []

    def test_refuses_rerun_without_force(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0]))
        out = tmp_path / "out"
        emit_results([], out, cfg)
        with pytest.raises(FileExistsError):
            emit_results([], out, cfg)
        emit_results([], out, cfg, force=True)

    def test_summary_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0]))
        results = run_experiment(cfg)
        out = tmp_path / "out"
        emit_results(results, out, cfg)
        summary = load_summary(out / "summary.json")
        assert summary["config"] == cfg.to_dict()
        assert summary["runs"] == [r.to_dict() for r in results]
        # and the archived config rebuilds an identical config object
        assert ExperimentConfig.from_dict(summary["config"]).to_dict() == cfg.to_dict()

    def test_artifact_files_written(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0]))
        results = run_experiment(cfg)
        out = tmp_path / "out"
        emit_results(results, out, cfg)
        emit_histograms(results, out)
        names = {p.name for p in out.iterdir()}
        assert {
            "summary.json",
            "grad_clean_seed0.csv",
            "grad_poisoned_seed0.csv",
            "divergence_seed0.csv",
            "perturbation_seed0.json",
            "homophily_hist_seed0.csv",
        } <= names

    def test_histograms_from_kept_vectors(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0, 1]))
        results = run_experiment(cfg)

        def no_rebuild(*args):
            raise AssertionError("emit_histograms rebuilt a dataset")

        monkeypatch.setattr(experiment_module, "build_dataset", no_rebuild)
        written = emit_histograms(results, tmp_path)
        monkeypatch.undo()
        assert len(written) == 2
        for r, path in zip(results, written):
            g = build_dataset(cfg, r.seed)
            ref = tmp_path / "ref.csv"
            write_histogram_csv(
                homophily_values(g), homophily_values(r.perturbation.apply_to(g)), ref
            )
            assert path.read_bytes() == ref.read_bytes()

    def test_rerun_from_summary_bit_identical_gradients(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[1]))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        emit_results(run_experiment(cfg), out1, cfg)
        cfg2 = ExperimentConfig.from_dict(load_summary(out1 / "summary.json")["config"])
        emit_results(run_experiment(cfg2), out2, cfg2)
        for name in ("grad_clean_seed1.csv", "grad_poisoned_seed1.csv"):
            assert read_csv_without_wall_ms(out1 / name) == read_csv_without_wall_ms(out2 / name)
        assert (out1 / "divergence_seed1.csv").read_bytes() == (
            out2 / "divergence_seed1.csv"
        ).read_bytes()


class TestReplay:
    def test_replay_reproduces_run(self):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[2]))
        (orig,) = run_experiment(cfg)
        replayed = replay_perturbation(cfg, orig.perturbation, seed=2)
        assert replayed.acc_clean == orig.acc_clean
        assert replayed.acc_attacked == orig.acc_attacked


class TestScalingBenchmark:
    def test_requires_three_sizes(self):
        cfg = ExperimentConfig.from_dict(base_config())
        with pytest.raises(ConfigError):
            scaling_benchmark(cfg, [1, 2])

    def test_rows_and_fit_fields(self):
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0]))
        table = scaling_benchmark(cfg, [1, 2, 3], iterations=3)
        assert len(table["rows"]) == 3
        assert "r2" in table["fit"]
        for row in table["rows"]:
            assert row["attack_seconds"] > 0
            assert row["graph_nodes"] == 24 * row["multiplier"]

    def test_feature_dim_scaling_trend(self):
        # Fixed tiny graph, growing feature dim: the attack step's time under
        # a fixed surrogate should grow with M (measured trend; generous bound
        # to avoid timer flakes).
        import time

        from distpoison.attack import AttackConfig, _DisttackRun, select_targets, train_surrogate
        from distpoison.graph import generate_sbm, partition_nodes

        times = []
        dims = [8, 64, 512]
        for m in dims:
            g = generate_sbm(0, [10, 10], 0.4, 0.1, feature_dim=m, noise=0.3)
            part = partition_nodes(g, 2)
            # Budgets that last all 8 steps.
            acfg = AttackConfig(edge_budget=8, feature_budget=8, surrogate_epochs=3,
                                lambda_homo=0.0, seed=0, target_count=2)
            run = _DisttackRun(g, part, acfg, select_targets(g, part, 0, 2))
            theta = train_surrogate(run.g, acfg.surrogate_epochs, acfg.seed)
            t = []
            for _ in range(8):
                t0 = time.perf_counter()
                run.step(theta)
                t.append(time.perf_counter() - t0)
            times.append(float(np.median(t)))
        assert times[-1] > times[0]  # monotone growth end to end
        # near-linear: 64x more dims should cost far less than 64^2 x
        assert times[-1] / times[0] < 64 * 8


class TestCodeVersion:
    def git(self, repo, *args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            cwd=repo, check=True, capture_output=True,
        )

    def test_untracked_copy_in_other_checkout_reports_plain_version(self, tmp_path):
        # A copy of the package inside someone else's repository must not
        # report that repository's HEAD.
        repo = tmp_path / "other"
        pkg = repo / "site" / "distpoison"
        repo.mkdir()
        self.git(repo, "init", "-q")
        (repo / "README").write_text("other project\n")
        self.git(repo, "add", "README")
        self.git(repo, "commit", "-q", "-m", "init")
        shutil.copytree(Path(experiment_module.__file__).parent, pkg)
        copy = pkg / "experiment.py"
        assert _code_version(copy) == distpoison.__version__

        self.git(repo, "add", str(copy))
        self.git(repo, "commit", "-q", "-m", "track the copy")
        assert _code_version(copy).startswith(distpoison.__version__ + "+g")

    def test_outside_any_checkout(self, tmp_path):
        copy = tmp_path / "experiment.py"
        shutil.copy(experiment_module.__file__, copy)
        assert _code_version(copy) == distpoison.__version__
