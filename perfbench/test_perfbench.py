"""Tests of the benchmark harness: span arithmetic, wrapper hygiene, metric names."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TRACED_MODULES = [
    "distpoison.graph", "distpoison.gnn", "distpoison.distributed", "distpoison.attack",
    "distpoison.homophily", "distpoison.experiment", "distpoison.cli",
]
TINY = [
    "dataset.block_sizes=[12,12,12,12]", "dataset.p_intra=0.4", "dataset.p_inter=0.05",
    "epochs=5", "attack.surrogate_epochs=3", "attack.feature_budget=3",
    "attack.target_count=2", "seeds=[0]",
]


def test_self_time_on_synthetic_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 7]; b > c [5.5, 6.5], d [6, 6.8]
    tree = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "a1", 2.0, 3.0],
        [3, 0, "b", 5.0, 7.0],
        [4, 3, "c", 5.5, 6.5],
        [5, 3, "d", 6.0, 6.8],
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    # c and d overlap: they cover [5.5, 6.8], not 1.0 + 0.8.
    assert selfs[3] == pytest.approx(2.0 - 1.3)
    assert spans.covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_totals_do_not_double_count_nested_same_name():
    tree = [
        [0, None, "x", 0.0, 4.0],
        [1, 0, "x", 1.0, 2.0],
        [2, 0, "y", 2.0, 3.0],
    ]
    total, self_s, calls = spans.span_totals(tree)
    assert total["x"] == pytest.approx(4.0)
    assert self_s["x"] == pytest.approx(2.0 + 1.0)
    assert calls == {"x": 2, "y": 1}


def _snapshot():
    snap = {}
    for name in TRACED_MODULES:
        mod = importlib.import_module(name)
        snap[name] = dict(vars(mod))
        for attr, val in vars(mod).items():
            if isinstance(val, type) and val.__module__ == name:
                snap[f"{name}.{attr}"] = dict(vars(val))
    return snap


def _cli_run(out, extra=()):
    from distpoison.cli import main

    args = ["run", "--config", str(ROOT / bench.CONFIG)]
    for item in [*TINY, *extra]:
        args += ["--set", item]
    assert main([*args, "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    """A tiny config run plain and under the tracer; module attributes around it."""
    base = tmp_path_factory.mktemp("bench")
    before = _snapshot()
    _cli_run(base / "plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        _cli_run(base / "traced")
    finally:
        tracer.uninstall()
    return base, before, _snapshot(), dict(tracer.dump(), import_s=0.5)


def test_wrappers_restored(traced_tiny):
    _, before, after, _ = traced_tiny
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for attr, val in attrs.items():
            assert after[owner][attr] is val, f"{owner}.{attr} not restored"


def test_traced_artefacts_equal_plain(traced_tiny):
    base, _, _, _ = traced_tiny
    assert bench.compare_artefacts(base / "plain", base / "traced", 0) == []


def test_compare_ignores_only_wall_ms(tmp_path, traced_tiny):
    base, _, _, _ = traced_tiny
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        for f in (base / "plain").iterdir():
            (tmp_path / d / f.name).write_bytes(f.read_bytes())
    csv_b = tmp_path / "b" / "grad_clean_seed0.csv"
    lines = csv_b.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + ["999.000"])
    csv_b.write_text("\n".join(lines) + "\n")
    assert bench.compare_artefacts(tmp_path / "a", tmp_path / "b", 0) == []
    cells = lines[1].split(",")
    cells[2] = "0.5"
    lines[1] = ",".join(cells)
    csv_b.write_text("\n".join(lines) + "\n")
    assert bench.compare_artefacts(tmp_path / "a", tmp_path / "b", 0) != []


def test_counters_agree_with_trial_calls(traced_tiny):
    *_, trace = traced_tiny
    m = spans.layer_metrics(trace)
    pert = json.loads((traced_tiny[0] / "traced" / "perturbation_seed0.json").read_text())
    # With lambda_homo > 0 every scored candidate gets one stealth trial, and
    # every applied move one more.
    assert m["homophily.feature_trial.calls"] == (
        m["attack.feature_candidates"] + len(pert["features_flipped"])
    )
    assert m["homophily.edge_trial.calls"] == (
        m["attack.edge_candidates"] + len(pert["edges_removed"])
    )
    assert m["attack.applied"] == len(pert["edges_removed"]) + len(pert["features_flipped"])
    assert m["distributed.worker_passes"] == 2 * 5 * 4  # two trainings x epochs x workers
    assert 0 < m["attack.yield"] <= 1


def test_every_metric_named_and_emitted(traced_tiny):
    *_, trace = traced_tiny
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    layer = spans.layer_metrics(trace)
    emitted = [*layer, "trace.overhead_s", "acc_drop", "homophily_w1"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(emitted) == sorted(declared)
    for name in emitted:
        assert pattern.fullmatch(name), name
        assert (bench.UNITS.get(name) or spans.unit_of(name)) == declared[name], name
    for m in spec["end_to_end"]:
        assert pattern.fullmatch(m["name"]) and bench.UNITS[m["name"]] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
