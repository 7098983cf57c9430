"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 3-5 share one
10-seed experiment (module-scoped fixture) so the whole suite stays well
inside its runtime budgets.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from distpoison.attack import (
    AttackConfig,
    baseline_random,
    combined_subgraph_gradient,
    edge_scores,
    flipped_value,
    run_disttack,
    select_targets,
    train_surrogate,
)
from distpoison.distributed import train_distributed
from distpoison.attack import PerturbationSet
from distpoison.experiment import (
    ExperimentConfig,
    replay_perturbation,
    run_experiment,
    scaling_benchmark,
)
from distpoison import distributed
from distpoison.gnn import ParamSet, check_gradients
from distpoison.graph import (
    Partition,
    build_graph,
    generate_sbm,
    normalize_adjacency,
    partition_nodes,
    sample_1hop,
)
from distpoison.homophily import distribution_distance, homophily_values



def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared 10-seed experiment for criteria 3-5 -------------------------------

EFFICACY_SEEDS = list(range(10))


def efficacy_config(kind: str, lambda_homo: float) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "dataset": {
                "kind": "sbm",
                "block_sizes": [50, 50, 50, 50],
                "p_intra": 0.1,
                "p_inter": 0.01,
                "feature_dim": 8,
                "noise": 1.2,
            },
            "attack": {
                "kind": kind,
                "edge_budget_frac": 0.05,
                "feature_budget": 20,
                "lambda_homo": lambda_homo,
                "surrogate_epochs": 40,
                "target_count": 10,
            },
            "seeds": EFFICACY_SEEDS,
            "workers": 4,
            "epochs": 100,
            "batch_size": 8,
            "learning_rate": 0.3,
            "hidden_dim": 16,
        }
    )


# Ordered (i, j) removals and (node, dim) flips of the lambda_homo=1 runs,
# recorded before the stealth trials were vectorized; any reimplementation
# of the attack step must reproduce them exactly.
REFERENCE_PERTURBATIONS = Path(__file__).parent / "data" / "reference_perturbations.json"


def assert_reference_perturbations(results) -> None:
    pinned = json.loads(REFERENCE_PERTURBATIONS.read_text())
    for r in results:
        want = pinned[str(r.seed)]
        got_edges = [[e.i, e.j] for e in r.perturbation.edges_removed]
        got_flips = [[f.node, f.dim] for f in r.perturbation.features_flipped]
        assert got_edges == want["edges_removed"], f"seed {r.seed}: edge removals moved"
        assert got_flips == want["features_flipped"], f"seed {r.seed}: feature flips moved"


# sha256 of repr([record.worker_norms, ...]) for each seed's clean and
# poisoned training of each run below, recorded before worker passes shared
# their forward state (the n = 200 runs) or their gathers (the large runs of
# test_limited_path_worker_norms); any reimplementation of the worker pass
# must reproduce every gradient norm exactly.
REFERENCE_WORKER_NORMS = Path(__file__).parent / "data" / "reference_worker_norms.json"


def assert_reference_worker_norms(name, results) -> None:
    pinned = json.loads(REFERENCE_WORKER_NORMS.read_text())[name]

    def digest(records):
        return hashlib.sha256(repr([r.worker_norms for r in records]).encode()).hexdigest()

    for r in results:
        want = pinned[str(r.seed)]
        assert digest(r.records_clean) == want["clean"], f"{name} seed {r.seed}: clean norms moved"
        assert digest(r.records_poisoned) == want["poisoned"], (
            f"{name} seed {r.seed}: poisoned norms moved"
        )


@pytest.fixture(scope="module")
def efficacy_runs():
    t0 = time.perf_counter()
    disttack = run_experiment(efficacy_config("disttack", lambda_homo=1.0))
    assert_reference_perturbations(disttack)
    ra = run_experiment(efficacy_config("ra", lambda_homo=1.0))
    crit3_seconds = time.perf_counter() - t0
    disttack_l0 = run_experiment(efficacy_config("disttack", lambda_homo=0.0))
    for name, results in (("disttack", disttack), ("ra", ra), ("disttack_l0", disttack_l0)):
        assert_reference_worker_norms(name, results)
    return {
        "disttack": disttack,
        "ra": ra,
        "disttack_l0": disttack_l0,
        "crit3_seconds": crit3_seconds,
    }


def test_criterion_1_gradient_oracle():
    g = generate_sbm(0, [4, 4, 4], 0.35, 0.2, feature_dim=6, noise=0.4)
    assert g.num_nodes == 12
    adj = normalize_adjacency(g)
    params = ParamSet.init_gcn(g.feature_dim, 8, g.num_classes, seed=0)
    t0 = time.perf_counter()
    rep = check_gradients(
        params, adj, g.features, g.labels, np.arange(12), epsilon=1e-4
    )
    elapsed = time.perf_counter() - t0
    errs = {k: rep.max_rel_err[k] for k in ("W0", "W1", "X", "A")}
    ok = all(v < 1e-4 for v in errs.values()) and elapsed < 5.0
    report(
        1,
        ok,
        "gradcheck 12-node GCN(hidden 8): "
        + " ".join(f"d{k}={v:.2e}" for k, v in errs.items())
        + f" (< 1e-4), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_distributed_equivalence():
    g = generate_sbm(0, [16, 16, 16, 16], 0.3, 0.05, feature_dim=6, noise=0.5)
    g.train_mask[:] = True
    g.val_mask[:] = False
    g.test_mask[:] = False
    params0 = ParamSet.init_gcn(g.feature_dim, 16, g.num_classes, seed=0, learning_rate=0.3)
    t0 = time.perf_counter()
    dist, _ = train_distributed(
        g, partition_nodes(g, 4), params0, epochs=50, batch_size=16, seed=0,
        aggregation="mean",
    )
    single, _ = train_distributed(
        g, partition_nodes(g, 1), params0, epochs=50, batch_size=64, seed=0
    )
    elapsed = time.perf_counter() - t0
    gap = max(
        np.abs(dist.W0 - single.W0).max(), np.abs(dist.W1 - single.W1).max()
    )
    ok = gap <= 1e-10 and elapsed < 10.0
    report(
        2,
        ok,
        f"4-worker full-batch vs single-node after 50 epochs: max weight gap "
        f"{gap:.2e} (<= 1e-10), {elapsed:.2f}s (< 10s)",
    )


def large_sbm_config(n: int, model: str) -> ExperimentConfig:
    """configs/sbm_disttack.yaml with RA poisoning, 8 workers and n nodes at
    the reference degree: large enough for the limited products."""
    block = n // 4
    return ExperimentConfig.from_dict(
        {
            "dataset": {
                "kind": "sbm",
                "block_sizes": [block] * 4,
                "p_intra": 5 / block,
                "p_inter": 0.5 / block,
                "feature_dim": 8,
                "noise": 1.2,
                "train_frac": 0.3,
                "val_frac": 0.2,
            },
            "model": model,
            "sgc_k": 2,
            "hidden_dim": 16,
            "workers": 8,
            "epochs": 100,
            "batch_size": 8,
            "learning_rate": 0.3,
            "attack": {"kind": "ra", "edge_budget_frac": 0.05, "feature_budget": 20},
            "seeds": [12345],
        }
    )


@pytest.mark.parametrize("name, n, model", [("victim_n6400", 6400, "gcn"),
                                            ("sgc2_n1600", 1600, "sgc")])
def test_limited_path_worker_norms(name, n, model, monkeypatch):
    # The n = 200 runs above never take the limited products. At n = 1,600
    # and 6,400 every view-epoch is one sweep over its workers' batches, and
    # no worker takes a full reverse pass.
    taken = {"swept": 0, "full": 0}
    real_sweep, real_backward = distributed.sweep, distributed.backward

    def sweep_spy(*args):
        bundles = real_sweep(*args)
        taken["full" if bundles is None else "swept"] += 1
        return bundles

    def backward_spy(*args, **kwargs):
        taken["full"] += 1
        return real_backward(*args, **kwargs)

    monkeypatch.setattr(distributed, "sweep", sweep_spy)
    monkeypatch.setattr(distributed, "backward", backward_spy)
    assert_reference_worker_norms(name, run_experiment(large_sbm_config(n, model)))
    assert taken["swept"] > 0 and taken["full"] == 0


def test_criterion_3_attack_efficacy(efficacy_runs):
    dd = np.array([r.accuracy_drop for r in efficacy_runs["disttack"]])
    dr = np.array([r.accuracy_drop for r in efficacy_runs["ra"]])
    wins = int((dd >= dr).sum())
    seconds = efficacy_runs["crit3_seconds"]
    ok = wins >= 8 and dd.mean() >= 0.02 and seconds < 300.0
    report(
        3,
        ok,
        f"disttack mean drop {dd.mean():.4f} (>= 0.02), beats/ties RA {wins}/10 "
        f"(>= 8), {seconds:.0f}s (< 300s)",
    )


def test_criterion_4_gradient_norm_divergence(efficacy_runs):
    poisoned_frac = np.mean(
        [np.mean(np.array(r.divergence) > 0) for r in efficacy_runs["disttack"]]
    )
    frac_by_worker = {w: [] for w in range(4)}
    for r in efficacy_runs["disttack"]:
        norms = np.array([rec.worker_norms for rec in r.records_clean])
        for w in range(4):
            others = np.delete(norms, w, axis=1).mean(axis=1)
            frac_by_worker[w].extend(norms[:, w] > others)
    control_max = max(np.mean(v) for v in frac_by_worker.values())
    ok = poisoned_frac >= 0.60 and control_max <= 0.55
    report(
        4,
        ok,
        f"poisoned worker above clean mean in {poisoned_frac:.1%} of epochs "
        f"(>= 60%); clean-control max {control_max:.1%} (<= 55%), pooled over "
        f"10 seeds",
    )


def test_criterion_5_stealth_ablation(efficacy_runs):
    h1 = np.array([r.homophily_distance for r in efficacy_runs["disttack"]])
    h0 = np.array([r.homophily_distance for r in efficacy_runs["disttack_l0"]])
    d1 = np.array([r.accuracy_drop for r in efficacy_runs["disttack"]])
    d0 = np.array([r.accuracy_drop for r in efficacy_runs["disttack_l0"]])
    stealth_wins = int((h1 < h0).sum())
    drop_cost = d0.mean() - d1.mean()
    ok = stealth_wins >= 7 and drop_cost <= 0.01
    report(
        5,
        ok,
        f"homophily W1 lower with stealth weight in {stealth_wins}/10 seeds "
        f"(>= 7); extra drop cost {drop_cost:+.4f} (<= 0.01)",
    )


def test_saved_perturbations_replay_exactly(efficacy_runs, tmp_path):
    # Each reference seed's perturbation, saved and loaded back, reproduces
    # the run's clean and attacked accuracy exactly on a fresh paired run.
    cfg = efficacy_config("disttack", lambda_homo=1.0)
    for r in efficacy_runs["disttack"]:
        path = tmp_path / f"pert_seed{r.seed}.json"
        r.perturbation.save(path)
        replayed = replay_perturbation(cfg, PerturbationSet.load(path), seed=r.seed)
        assert replayed.acc_clean == r.acc_clean, f"seed {r.seed}"
        assert replayed.acc_attacked == r.acc_attacked, f"seed {r.seed}"
        assert replayed.homophily_distance == r.homophily_distance, f"seed {r.seed}"


def test_criterion_6_complexity_scaling():
    cfg = ExperimentConfig.from_dict(
        {
            "dataset": {
                "kind": "sbm",
                "block_sizes": [8, 8],
                "p_intra": 0.5,
                "p_inter": 0.1,
                "feature_dim": 16,
                "noise": 0.3,
            },
            "attack": {
                "kind": "disttack",
                "edge_budget": 2,
                "feature_budget": 2,
                "surrogate_epochs": 15,
                "target_count": 3,
            },
            "seeds": [0],
            "workers": 4,
            "epochs": 5,
            "batch_size": 4,
        }
    )
    table = scaling_benchmark(cfg, [1, 2, 4, 8], iterations=16)
    r2 = table["fit"]["r2"]
    ok = len(table["rows"]) == 4 and r2 >= 0.9
    report(
        6,
        ok,
        f"per-iteration attack time vs N(|A|d + M) over 4 doubling sizes: "
        f"R^2 = {r2:.4f} (>= 0.9)",
    )


def test_criterion_7_invariant_suite():
    checks = []

    # Budget safety on a real run.
    g = generate_sbm(3, [15, 15], 0.3, 0.05, feature_dim=4, noise=0.3)
    part = partition_nodes(g, 2)
    cfg = AttackConfig(edge_budget=4, feature_budget=3, surrogate_epochs=10,
                       lambda_homo=1.0, seed=3, target_count=3)
    pert = run_disttack(g, part, cfg, select_targets(g, part, 0, 3))
    checks.append(("budget safety", len(pert.edges_removed) <= 4
                   and len(pert.features_flipped) <= 3))
    ra = baseline_random(g, part, 5, 5, seed=3)
    checks.append(("ra budget safety", len(ra.edges_removed) + len(ra.edges_added) <= 5
                   and len(ra.features_flipped) <= 5))

    # Score-matrix masking: support never exceeds the subgraph edge support.
    theta = train_surrogate(g, epochs=10, seed=3)
    masked = True
    for t in select_targets(g, part, 0, 3):
        sub = sample_1hop(g, t)
        eg, _ = combined_subgraph_gradient(theta, sub, cfg)
        s = edge_scores(eg, sub, part, 0.3)
        edge_set = {tuple(sorted(int(v) for v in sub.node_ids[e])) for e in sub.edges}
        masked &= set(s.global_items()) <= edge_set
    checks.append(("score-matrix masking", masked))

    # Communication case table: cross-worker +1, same-worker -1.
    g2 = build_graph([(0, 1), (0, 2)], np.zeros((3, 2)), np.zeros(3, dtype=np.int64))
    part2 = Partition(assignment=np.array([0, 1, 0]), n=2)
    sub2 = sample_1hop(g2, 0)
    # The cross-worker term alone: scores under a zero gradient, lambda_comm 1.
    c = edge_scores(np.zeros(len(sub2.edges)), sub2, part2, 1.0).global_items()
    cross, same = c[(0, 1)], c[(0, 2)]
    checks.append(("communication case table", cross == 1.0 and same == -1.0))

    # Feature-flip multiplier table {+1 -> -1, 0 -> x1, -1 -> x3}.
    flipped = [flipped_value(2.0, sign) for sign in (1, 0, -1)]
    checks.append(("flip multiplier table", flipped == [-2.0, 2.0, 6.0]))

    # Isolated-node homophily: empty neighbor sum, norm of own features.
    g3 = build_graph([(1, 2)], np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0]]),
                     np.zeros(3, dtype=np.int64))
    checks.append(("isolated-node homophily", homophily_values(g3)[0] == 5.0))

    # Distance metric axioms on empirical samples.
    rng = np.random.default_rng(0)
    a, b, c3 = rng.normal(size=8), rng.normal(size=8), rng.normal(size=8)
    axioms = (
        distribution_distance(a, a) == 0.0
        and distribution_distance(a, b) == pytest.approx(distribution_distance(b, a))
        and distribution_distance(a, b) >= 0.0
        and distribution_distance(a, c3)
        <= distribution_distance(a, b) + distribution_distance(b, c3) + 1e-12
        and distribution_distance(np.zeros(2), np.ones(2)) == pytest.approx(1.0)
    )
    checks.append(("distance metric axioms", bool(axioms)))

    failed = [name for name, ok in checks if not ok]
    report(
        7,
        not failed,
        "individual invariant assertions all hold"
        if not failed
        else f"failed: {failed}",
    )
