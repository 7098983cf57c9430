import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import attack_oracle
import baseline_oracle
import gnn_oracle
import score_oracle
from conftest import make_graph
from distpoison.attack import (
    AttackConfig,
    EdgeAddition,
    EdgeRemoval,
    FeatureFlip,
    PerturbationSet,
    _DisttackRun,
    baseline_dice,
    baseline_random,
    combined_subgraph_gradient,
    edge_scores,
    flipped_value,
    run_disttack,
    select_edge_removals,
    select_targets,
    train_surrogate,
)
from distpoison import gnn
from distpoison.gnn import ParamSet, forward, masked_ce_loss, predict_accuracy, sgd_step
from distpoison.graph import (
    Partition,
    generate_sbm,
    normalize_adjacency,
    partition_nodes,
    sample_1hop,
)


def attack_cfg(**kw):
    defaults = dict(edge_budget=3, feature_budget=3, lambda_comm=0.0, lambda_homo=0.0,
                    surrogate_epochs=20, target_count=2, seed=0)
    defaults.update(kw)
    return AttackConfig(**defaults)


def surrogate_attack_loss(theta, g, targets) -> float:
    """Sum of target cross-entropies under a frozen surrogate: the damage."""
    adj = normalize_adjacency(g)
    logits = forward(theta, adj, g.features)
    return len(targets) * masked_ce_loss(logits, g.labels, targets)


def toy_instance(seed=0, blocks=(15, 15), p_intra=0.35, p_inter=0.04, noise=0.25):
    g = generate_sbm(seed, list(blocks), p_intra, p_inter,
                     feature_dim=len(blocks) + 2, noise=noise)
    part = partition_nodes(g, 2)
    return g, part


class TestTrainSurrogate:
    def test_two_clique_sbm_learns(self):
        g = generate_sbm(0, [8, 8], 1.0, 0.0, feature_dim=3, noise=0.2)
        theta = train_surrogate(g, epochs=100, seed=0)
        adj = normalize_adjacency(g)
        acc = predict_accuracy(theta, adj, g.features, g.labels, g.train_mask)
        assert acc >= 0.9

    def test_zero_epochs_is_initialization(self):
        g = generate_sbm(1, [6, 6], 0.5, 0.1, feature_dim=3, noise=0.2)
        theta = train_surrogate(g, epochs=0, seed=5)
        init = ParamSet.init_gcn(g.feature_dim, 16, g.num_classes, seed=5, learning_rate=0.2)
        np.testing.assert_array_equal(theta.W0, init.W0)
        np.testing.assert_array_equal(theta.W1, init.W1)

    def test_determinism(self):
        g = generate_sbm(2, [6, 6], 0.5, 0.1, feature_dim=3, noise=0.2)
        t1 = train_surrogate(g, epochs=30, seed=9)
        t2 = train_surrogate(g, epochs=30, seed=9)
        np.testing.assert_array_equal(t1.W0, t2.W0)
        np.testing.assert_array_equal(t1.W1, t2.W1)

    def test_large_graph_fit_takes_full_products(self, monkeypatch):
        # A graph large enough for limited products: the fit builds no
        # state for its training ids, so it never searches for fields, and
        # its weights are the oracle's full-graph steps, bit for bit.
        g = generate_sbm(3, [200] * 4, 5 / 200, 0.5 / 200, feature_dim=8, noise=1.0)
        adj = normalize_adjacency(g)
        assert adj.matrix.nnz >= gnn._LIMITED_MIN_NNZ
        searches = []
        real = gnn._gathers

        def gathers_spy(*args):
            searches.append(args)
            return real(*args)

        monkeypatch.setattr(gnn, "_gathers", gathers_spy)
        theta = train_surrogate(g, epochs=40, seed=4)
        assert searches == []
        want = ParamSet.init_gcn(g.feature_dim, 16, g.num_classes, seed=4, learning_rate=0.2)
        train = np.flatnonzero(g.train_mask)
        for _ in range(40):
            want = sgd_step(want, gnn_oracle.backward(want, adj, g.features, g.labels, train))
        assert theta.W0.tobytes() == want.W0.tobytes()
        assert theta.W1.tobytes() == want.W1.tobytes()


def oracle_fit(g, epochs, seed, hidden_dim=16, learning_rate=0.2):
    """The surrogate fit as first written: ``backward`` and ``sgd_step``
    once per epoch."""
    train = np.flatnonzero(g.train_mask)
    adj = normalize_adjacency(g)
    params = ParamSet.init_gcn(g.feature_dim, hidden_dim, g.num_classes, seed=seed,
                               learning_rate=learning_rate)
    for _ in range(epochs):
        params = sgd_step(params, gnn.backward(params, adj, g.features, g.labels, train,
                                               assume_unique=True))
    return params


class TestTrainSurrogateMatchesOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_weights_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        blocks = [int(b) for b in rng.integers(3, 40, size=rng.integers(2, 5))]
        g = generate_sbm(seed, blocks, float(rng.uniform(0.1, 0.6)), float(rng.uniform(0, 0.1)),
                         feature_dim=int(rng.integers(len(blocks), 12)),
                         noise=float(rng.choice([0.0, 0.5, 2.0])))
        kw = dict(epochs=int(rng.integers(0, 60)), seed=seed,
                  hidden_dim=int(rng.integers(1, 20)), learning_rate=float(rng.uniform(0.01, 1)))
        got, want = train_surrogate(g, **kw), oracle_fit(g, **kw)
        assert got.W0.tobytes() == want.W0.tobytes()
        assert got.W1.tobytes() == want.W1.tobytes()
        assert (got.learning_rate, got.k) == (want.learning_rate, want.k)

    def test_one_node_graph(self):
        # One row: numpy would hand H W1 to GEMV; both fits keep it on GEMM.
        g = make_graph(1, [], features=np.array([[0.3, -1.2, 2.0, 0.7]]), labels=np.array([2]),
                       splits=([0], (), ()))
        assert g.num_classes == 3
        got, want = train_surrogate(g, 7, 2), oracle_fit(g, 7, 2)
        assert got.W0.tobytes() == want.W0.tobytes()
        assert got.W1.tobytes() == want.W1.tobytes()

    def test_diverging_fit_raises(self):
        g = generate_sbm(1, [6, 6], 0.5, 0.1, feature_dim=3, noise=0.2)
        with pytest.raises(gnn.NumericalError), np.errstate(over="ignore", invalid="ignore"):
            oracle_fit(g, 30, 0, learning_rate=1e200)
        with pytest.raises(gnn.NumericalError):
            train_surrogate(g, 30, 0, learning_rate=1e200)


class TestCombinedGradient:
    def setup_method(self):
        self.g, self.part = toy_instance()
        self.theta = train_surrogate(self.g, epochs=30, seed=0)
        self.sub = sample_1hop(self.g, int(np.flatnonzero(self.g.train_mask)[0]))

    def test_zero_structure_weight(self):
        eg, _ = combined_subgraph_gradient(self.theta, self.sub, attack_cfg(w_A=0.0))
        assert eg.shape == (len(self.sub.edges),)
        assert np.all(eg == 0.0)

    def test_identity_weights(self):
        eg1, fg1 = combined_subgraph_gradient(self.theta, self.sub, attack_cfg(w_A=1.0, w_X=1.0))
        eg2, fg2 = combined_subgraph_gradient(self.theta, self.sub, attack_cfg(w_A=2.0, w_X=1.0))
        np.testing.assert_allclose(2.0 * eg1, eg2, rtol=1e-12)
        np.testing.assert_allclose(fg1, fg2, rtol=1e-12)

    def test_feature_weight_scaling(self):
        _, fg1 = combined_subgraph_gradient(self.theta, self.sub, attack_cfg(w_X=1.0))
        _, fg3 = combined_subgraph_gradient(self.theta, self.sub, attack_cfg(w_X=3.0))
        np.testing.assert_allclose(3.0 * fg1, fg3, rtol=1e-12)


class TestAttackConfig:
    @pytest.mark.parametrize(
        "bad",
        [dict(lambda_homo=-1.0), dict(edge_budget=1.5), dict(surrogate_hidden=0),
         dict(target_count=0), dict(edges_per_iter=0), dict(w_X=float("nan"))],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            AttackConfig(**bad)

    def test_accepts_integers_for_weights(self):
        assert AttackConfig(w_A=2, lambda_homo=0).w_A == 2


def comm_scores(sub, part):
    """The cross-worker term alone: scores under a zero gradient, lambda_comm 1."""
    return edge_scores(np.zeros(len(sub.edges)), sub, part, lambda_comm=1.0).global_items()


def local(sub, v):
    """The local id of node v in sub."""
    return int(np.flatnonzero(sub.node_ids == v)[0])


class TestCommunicationMatrix:
    def test_single_worker_all_minus_one(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        part = partition_nodes(g, 1)
        sub = sample_1hop(g, 1)
        c = comm_scores(sub, part)
        assert c and all(v == -1.0 for v in c.values())

    def test_cross_worker_edge(self):
        g = make_graph(2, [(0, 1)])
        part = Partition(assignment=np.array([0, 1]), n=2)
        sub = sample_1hop(g, 0)
        assert comm_scores(sub, part)[(0, 1)] == 1.0

    def test_round_robin_collision(self):
        g = make_graph(5, [(0, 4)])
        part = partition_nodes(g, 4)  # nodes 0 and 4 both land on worker 0
        sub = sample_1hop(g, 0)
        assert comm_scores(sub, part)[(0, 4)] == -1.0


class TestEdgeScores:
    def make_sub_and_grad(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        part = Partition(assignment=np.array([0, 1, 0]), n=2)
        sub = sample_1hop(g, 1)
        # Both edges cross workers.
        want = {(local(sub, 0), local(sub, 1)): 0.2, (local(sub, 1), local(sub, 2)): 0.4}
        grad = np.array([want.get((i, j), want.get((j, i))) for i, j in sub.edges.tolist()])
        return g, part, sub, grad

    def test_lambda_zero_equals_gradient(self):
        _, part, sub, grad = self.make_sub_and_grad()
        s = edge_scores(grad, sub, part, lambda_comm=0.0).global_items()
        assert s[(0, 1)] == pytest.approx(0.2)
        assert s[(1, 2)] == pytest.approx(0.4)

    def test_non_edge_is_zero(self):
        _, part, sub, grad = self.make_sub_and_grad()
        s = edge_scores(grad, sub, part, lambda_comm=0.5).global_items()
        assert (0, 2) not in s  # nodes 0 and 2 are not adjacent: no score

    def test_cross_worker_bonus_literal(self):
        _, part, sub, grad = self.make_sub_and_grad()
        s = edge_scores(grad, sub, part, lambda_comm=0.5).global_items()
        assert s[(0, 1)] == pytest.approx(0.2 + 0.5)

    def test_support_within_subgraph_edges(self):
        g, part = toy_instance(3)
        theta = train_surrogate(g, epochs=10, seed=3)
        for t in select_targets(g, part, 0, 3):
            sub = sample_1hop(g, t)
            eg, _ = combined_subgraph_gradient(theta, sub, attack_cfg())
            s = edge_scores(eg, sub, part, lambda_comm=0.3)
            edge_set = {tuple(sorted(int(v) for v in sub.node_ids[e])) for e in sub.edges}
            assert set(s.global_items()) <= edge_set


def edge_csr(grad, sub):
    """The symmetric CSR matrix holding per-edge values at both of each
    edge's entries, zeros stored."""
    m = sub.num_nodes
    i, j = sub.edges[:, 0], sub.edges[:, 1]
    return sp.csr_matrix(
        (np.concatenate([grad, grad]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(m, m),
    )


def assert_scores_match_oracle(grad, sub, part, lam):
    got = edge_scores(grad, sub, part, lam)
    want = score_oracle.edge_scores(edge_csr(grad, sub), sub, part, lam)
    items = got.global_items()
    want_items = score_oracle.global_items(want, sub)
    # Same keys, zero scores included; repr tells -0.0 from 0.0.
    assert items.keys() == want_items.keys()
    assert {k: repr(v) for k, v in items.items()} == {k: repr(v) for k, v in want_items.items()}
    assert len(items) == len(sub.edges)


class TestEdgeScoresMatchOracle:
    """Flat edge scores equal the sparse round trip they replaced."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 10),
        st.floats(0.0, 1.0),
        st.integers(1, 4),
        st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(-5.0, 5.0)),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_lil_gradients(self, seed, n, p, workers, lam, fill):
        # Random per-edge gradients, a share ``fill`` of them signed zeros;
        # an isolated target gives an empty subgraph.
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = make_graph(n, edges)
        part = Partition(assignment=rng.integers(0, workers, size=n), n=workers)
        sub = sample_1hop(g, int(rng.integers(n)))
        grad = rng.standard_normal(len(sub.edges))
        zero = rng.random(len(grad)) < fill
        grad[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        assert_scores_match_oracle(grad, sub, part, lam)

    @pytest.mark.parametrize("seed", range(3))
    def test_surrogate_gradients(self, seed):
        g, part = toy_instance(seed)
        theta = train_surrogate(g, epochs=10, seed=seed)
        for t in range(g.num_nodes):
            sub = sample_1hop(g, t)
            eg, _ = combined_subgraph_gradient(theta, sub, attack_cfg())
            assert_scores_match_oracle(eg, sub, part, 0.1)

    def test_empty_subgraph(self):
        g = make_graph(3, [(1, 2)])
        part = Partition(assignment=np.array([0, 1, 0]), n=2)
        sub = sample_1hop(g, 0)
        assert_scores_match_oracle(np.zeros(0), sub, part, 0.5)
        assert edge_scores(np.zeros(0), sub, part, 0.5).global_items() == {}


class TestSelectEdgeRemovals:
    def test_no_positive_scores(self):
        assert select_edge_removals({(0, 1): -0.5, (1, 2): 0.0}, 3) == []

    def test_argmax(self):
        picks = select_edge_removals({(0, 1): 0.9, (1, 2): 0.1}, 1)
        assert picks == [(0, 1, 0.9)]

    def test_tie_break_lexicographic(self):
        picks = select_edge_removals({(2, 7): 0.5, (1, 9): 0.5}, 1)
        assert picks == [(1, 9, 0.5)]

    def test_fewer_than_k(self):
        picks = select_edge_removals({(0, 1): 0.3}, 5)
        assert len(picks) == 1


class TestFlipFeatures:
    def test_positive_gradient_negates(self):
        assert flipped_value(2.0, 1) == -2.0

    def test_zero_gradient_unchanged(self):
        assert flipped_value(2.0, 0) == 2.0

    def test_negative_gradient_triples(self):
        assert flipped_value(2.0, -1) == 6.0

    def test_involution_on_positive_sign(self):
        assert flipped_value(flipped_value(2.5, 1), 1) == 2.5

    def test_attack_and_baseline_flips_follow_the_rule(self):
        g, part = toy_instance(2)
        cfg = attack_cfg(edge_budget=0, feature_budget=6, lambda_homo=0.5)
        pert = run_disttack(g, part, cfg, select_targets(g, part, 0, 2))
        ra = baseline_random(g, part, 0, 6, seed=2)
        assert pert.features_flipped and ra.features_flipped
        for f in pert.features_flipped:
            assert f.new == flipped_value(f.old, f.sign)
        for f in ra.features_flipped:
            assert (f.sign, f.new) == (1, flipped_value(f.old, 1))


class TestRunDisttack:
    def test_zero_budget_empty(self):
        g, part = toy_instance()
        cfg = AttackConfig(edge_budget=0, feature_budget=0, surrogate_epochs=5)
        targets = select_targets(g, part, 0, 2)
        pert = run_disttack(g, part, cfg, targets)
        assert pert.size == 0
        gp = pert.apply_to(g)
        assert np.array_equal(gp.edge_array(), g.edge_array())
        assert np.array_equal(gp.features, g.features)

    def test_budget_safety(self):
        for seed in range(5):
            g, part = toy_instance(seed)
            cfg = attack_cfg(edge_budget=4, feature_budget=3, seed=seed)
            targets = select_targets(g, part, 0, 3)
            pert = run_disttack(g, part, cfg, targets)
            assert len(pert.edges_removed) <= 4
            assert len(pert.features_flipped) <= 3
            assert len(pert.edges_added) == 0

    def test_no_edge_removed_twice_and_all_existed(self):
        g, part = toy_instance(1)
        cfg = attack_cfg(edge_budget=6, feature_budget=0, seed=1)
        targets = select_targets(g, part, 0, 3)
        pert = run_disttack(g, part, cfg, targets)
        keys = [(r.i, r.j) for r in pert.edges_removed]
        assert len(keys) == len(set(keys))
        base_edges = {tuple(e) for e in g.edge_array()}
        assert set(keys) <= base_edges

    def test_targets_must_share_worker(self):
        g, part = toy_instance()
        on_w0 = int(part.training_pool(g, 0)[0])
        on_w1 = int(part.training_pool(g, 1)[0])
        with pytest.raises(ValueError):
            run_disttack(g, part, attack_cfg(), [on_w0, on_w1])

    def test_empty_targets(self):
        g, part = toy_instance()
        with pytest.raises(ValueError):
            run_disttack(g, part, attack_cfg(), [])

    def test_homophily_dominance_at_large_lambda(self):
        # Every flip that changes an entry moves the homophily distribution,
        # so a huge stealth weight leaves no flip eligible. Feature column 3
        # is identically zero: flipping it would shift nothing, but it changes
        # nothing either, so it is no candidate.
        g, part = toy_instance(2)
        g.features[:, 3] = 0.0
        targets = select_targets(g, part, 0, 2)
        for lambda_homo, flips in ((0.0, 2), (1e9, 0)):
            cfg = attack_cfg(edge_budget=0, feature_budget=2, lambda_homo=lambda_homo,
                             surrogate_epochs=15, seed=2)
            pert = run_disttack(g, part, cfg, targets)
            assert len(pert.features_flipped) == flips
            assert all(f.dim != 3 for f in pert.features_flipped)

    @pytest.mark.parametrize("lambda_homo", [0.0, 1.0])
    def test_every_flip_changes_its_entry(self, lambda_homo):
        # Without noise most features are 0, which the sign rule maps to -0.0:
        # no change, no stealth cost. Such entries are no candidates, so the
        # budget goes to flips that change the graph.
        # Without that rule, 19 and 20 of these 20 flips change nothing.
        g = generate_sbm(0, [50] * 4, 0.1, 0.01, feature_dim=8, noise=0.0)
        part = partition_nodes(g, 4)
        cfg = attack_cfg(edge_budget=0, feature_budget=20, lambda_comm=0.1,
                         lambda_homo=lambda_homo, surrogate_epochs=10, target_count=10)
        pert = run_disttack(g, part, cfg, select_targets(g, part, 0, 10))
        assert len(pert.features_flipped) == 20
        assert all(f.new != f.old for f in pert.features_flipped)

    @pytest.mark.parametrize("lambda_homo", [0.0, 1.0])
    def test_step_keeps_the_subgraphs_it_sampled(self, lambda_homo):
        # run.subgraphs are the targets' 1-hop subgraphs of the graph as the
        # step found it, before its own moves.
        g, part = toy_instance(3)
        cfg = attack_cfg(edge_budget=4, feature_budget=4, lambda_homo=lambda_homo, seed=3)
        run = _DisttackRun(g, part, cfg, select_targets(g, part, 0, 3))
        theta = train_surrogate(g, cfg.surrogate_epochs, cfg.seed)
        for _ in range(4):
            before = run.g.copy()
            assert run.step(theta)
            assert len(run.subgraphs) == len(run.targets)
            for t, got in zip(run.targets, run.subgraphs):
                want = sample_1hop(before, t)
                for name in ("node_ids", "edges", "features", "labels"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_monotone_surrogate_harm(self):
        # Frozen-surrogate damage on the perturbed graph should exceed the
        # clean graph in >= 90% of seeded runs (first-order sanity).
        wins = 0
        runs = 20
        for seed in range(runs):
            g = generate_sbm(seed, [15, 15], 0.35, 0.04, feature_dim=4, noise=0.25)
            part = partition_nodes(g, 2)
            theta = train_surrogate(g, epochs=60, seed=seed)
            cfg = attack_cfg(edge_budget=3, feature_budget=3, surrogate_epochs=60, seed=seed)
            targets = select_targets(g, part, 0, 2)
            pert = run_disttack(g, part, cfg, targets)
            clean = surrogate_attack_loss(theta, g, targets)
            poisoned = surrogate_attack_loss(theta, pert.apply_to(g), targets)
            wins += poisoned > clean
        assert wins >= int(0.9 * runs)

    def test_lambda_comm_monotone_cross_worker_selection(self):
        # Selection-level invariant: adding the cross-worker bonus never
        # drops the number of cross-worker edges among the picks.
        for seed in range(20):
            g, part = toy_instance(seed)
            theta = train_surrogate(g, epochs=20, seed=seed)
            cands_zero, cands_big = {}, {}
            for t in select_targets(g, part, 0, 3):
                sub = sample_1hop(g, t)
                eg, _ = combined_subgraph_gradient(theta, sub, attack_cfg(seed=seed))
                for lam, store in ((0.0, cands_zero), (10.0, cands_big)):
                    for key, s in edge_scores(eg, sub, part, lam).global_items().items():
                        store[key] = store.get(key, 0.0) + s

            def cross_count(picks):
                return sum(
                    1 for i, j, _ in picks if part.assignment[i] != part.assignment[j]
                )

            k = 4
            assert cross_count(select_edge_removals(cands_big, k)) >= cross_count(
                select_edge_removals(cands_zero, k)
            )

    def test_greedy_oracle_first_pick_agreement(self):
        # Brute-force oracle at tiny scale: evaluate every candidate edge
        # removal by retrained-surrogate damage, compare with the gradient
        # pick. Agreement is statistical; the spec-level bound is 3/5 seeds.
        agree = 0
        seeds = range(5)
        for seed in seeds:
            g = generate_sbm(seed, [15, 15], 0.2, 0.05, feature_dim=3, noise=0.2)
            part = partition_nodes(g, 2)
            cfg = attack_cfg(
                edge_budget=5, feature_budget=5, surrogate_epochs=150, seed=seed,
                target_count=1,
            )
            targets = select_targets(g, part, 0, cfg.target_count)
            pert = run_disttack(g, part, cfg, targets)
            if not pert.edges_removed:
                continue
            first = (pert.edges_removed[0].i, pert.edges_removed[0].j)

            candidates = set()
            for t in targets:
                sub = sample_1hop(g, t)
                for li, lj in sub.edges:
                    candidates.add(tuple(sorted(sub.node_ids[[li, lj]].tolist())))
            best, best_damage = None, -np.inf
            for i, j in sorted(candidates):
                trial = g.copy()
                trial.remove_edge(i, j)
                theta = train_surrogate(trial, epochs=cfg.surrogate_epochs, seed=seed)
                damage = surrogate_attack_loss(theta, trial, targets)
                if damage > best_damage:
                    best, best_damage = (i, j), damage
            agree += first == best
        assert agree >= 3


class TestRunDisttackMatchesOracle:
    """The attack step equals the attack loop as first written, exactly."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([0.0, 0.5, 1.0, 5.0]),
        # At noise 0 most feature entries are 0, which no flip changes.
        st.sampled_from([0.0, 0.4]),
        # One feature column sums a node's neighbor rows pairwise.
        st.sampled_from([1, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_perturbations_equal(self, seed, edges_per_iter, flips_per_iter, lambda_homo, noise,
                                 feature_dim):
        g = generate_sbm(seed, [8, 8], 0.4, 0.08, feature_dim=4, noise=noise)
        g.features = g.features[:, :feature_dim].copy()
        part = partition_nodes(g, 2)
        worker = int(part.assignment[np.flatnonzero(g.train_mask)[0]])
        cfg = AttackConfig(
            edge_budget=5, feature_budget=5, lambda_comm=0.1, lambda_homo=lambda_homo,
            surrogate_epochs=5, target_count=3, seed=seed,
            edges_per_iter=edges_per_iter, flips_per_iter=flips_per_iter,
        )
        targets = select_targets(g, part, worker, cfg.target_count)
        before = g.copy()
        got = run_disttack(g, part, cfg, targets)
        want = attack_oracle.run_disttack(g, part, cfg, targets)
        assert got.to_dict() == want.to_dict()
        assert np.array_equal(g.features, before.features)
        assert np.array_equal(g.edge_array(), before.edge_array())


def lazy_penalties(raw, bounds, k, shifts, lam=1.0):
    """``_DisttackRun._penalize`` on a stand-in stealth state whose trial of
    candidate c is the W1 distance ``shifts[c]`` itself, measured from 0;
    also the candidates whose trials were asked and those measured, in order."""
    asked, measured = [], []

    def distance(trial):
        measured.append(trial)
        return shifts[trial]

    run = SimpleNamespace(stealth=SimpleNamespace(dist=0.0, distance=distance),
                          cfg=SimpleNamespace(lambda_homo=lam))
    scores, penalty = _DisttackRun._penalize(
        run, np.array(raw, dtype=float), np.array(bounds, dtype=float), k,
        lambda c: asked.append(c) or c,
    )
    return scores, penalty, asked, measured


class TestLazyPenalties:
    """Distances are measured only where they can change the pick."""

    def test_tie_with_kth_score_is_measured(self):
        # Candidate 1's upper bound 0.5 + 0.5 ties the best score 1.0: it is
        # measured, and scores 0.25, not its bound.
        scores, penalty, asked, measured = lazy_penalties([1.0, 0.5], [0.0, 0.5], 1, [0.0, 0.25])
        assert asked == measured == [0, 1]
        assert scores.tolist() == [1.0, 0.25] and penalty.tolist() == [0.0, 0.25]

    def test_below_kth_score_or_zero_keeps_its_bound(self):
        raw, bounds = [0.3, 1.0, 0.4, -0.5], [0.1, 0.0, 0.5, 0.4]
        scores, penalty, asked, measured = lazy_penalties(raw, bounds, 1, [0.1, 0.0, 0.5, 0.4])
        assert asked == [1, 2, 0, 3] and measured == [1]
        assert scores.tolist() == [0.3 + 0.1, 1.0, 0.4 + 0.5, -0.5 + 0.4] and not penalty.any()
        # No candidate measured yet, but an upper bound of 0 cannot score above 0.
        scores, _, asked, measured = lazy_penalties([-0.5], [0.5], 1, [0.5])
        assert asked == [0] and measured == [] and scores.tolist() == [0.0]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_picks_equal_measuring_every_candidate(self, data):
        # Raw scores on a coarse grid, so ties are common; each candidate's
        # W1 shift lies within its bound.
        m = data.draw(st.integers(0, 12))
        grid = st.integers(-4, 8).map(lambda v: v / 4)
        raw = np.array(data.draw(st.lists(grid, min_size=m, max_size=m)))
        bounds = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))) / 8
        shifts = [b * data.draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])) for b in bounds]
        k = data.draw(st.integers(1, 4))
        lam = data.draw(st.sampled_from([0.5, 1.0, 5.0]))
        scores, penalty, asked, _ = lazy_penalties(raw, bounds, k, shifts, lam)
        eager_penalty = lam * np.array(shifts)
        eager = raw - eager_penalty

        def picks(s):
            keep = [c for c in range(m) if s[c] > 0.0]
            return sorted(keep, key=lambda c: (-s[c], c))[:k]

        assert sorted(asked) == list(range(m))
        assert picks(scores) == picks(eager)
        for c in picks(eager):
            assert scores[c] == eager[c] and penalty[c] == eager_penalty[c]


class TestBaselines:
    def test_ra_zero_budget(self):
        g, part = toy_instance()
        pert = baseline_random(g, part, 0, 0, seed=0)
        assert pert.size == 0

    def test_ra_determinism(self):
        g, part = toy_instance()
        p1 = baseline_random(g, part, 5, 5, seed=3)
        p2 = baseline_random(g, part, 5, 5, seed=3)
        assert p1.to_dict() == p2.to_dict()

    def test_ra_well_formed(self):
        g, part = toy_instance(4)
        pert = baseline_random(g, part, 10, 5, seed=4)
        existing = {tuple(e) for e in g.edge_array()}
        removed = {(r.i, r.j) for r in pert.edges_removed}
        added = {(a.i, a.j) for a in pert.edges_added}
        assert removed <= existing
        assert not (added & existing)
        assert len(pert.edges_removed) + len(pert.edges_added) <= 10
        assert len(pert.features_flipped) <= 5
        pert.apply_to(g)  # must not raise

    def test_dice_single_label_only_removals(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                       labels=np.zeros(6, dtype=np.int64))
        part = partition_nodes(g, 2)
        pert = baseline_dice(g, part, 4, seed=0)
        assert len(pert.edges_added) == 0
        assert len(pert.edges_removed) >= 1

    def test_dice_complete_bipartite_empty(self):
        # All edges cross labels (no same-label removals) and every
        # different-label pair is already an edge (no additions).
        g = make_graph(
            4,
            [(0, 2), (0, 3), (1, 2), (1, 3)],
            labels=np.array([0, 0, 1, 1], dtype=np.int64),
        )
        part = partition_nodes(g, 2)
        pert = baseline_dice(g, part, 5, seed=1)
        assert pert.size == 0

    def test_dice_budget_accounting(self):
        g, part = toy_instance(5)
        pert = baseline_dice(g, part, 3, seed=5)
        assert len(pert.edges_removed) + len(pert.edges_added) <= 3

    def test_dice_full_budget_at_n1600(self):
        # The reference config at eight times the nodes, degree held fixed,
        # with its 5% edge budget of 258 units. Listing every share x n pair
        # for each addition took minutes here; the bound is loose.
        g = generate_sbm(0, [400] * 4, 0.1 / 8, 0.01 / 8, feature_dim=8, noise=1.2)
        part = partition_nodes(g, 4)
        start = time.perf_counter()
        pert = baseline_dice(g, part, 258, seed=0)
        assert time.perf_counter() - start < 30.0
        share = set(part.share(0).tolist())
        existing = {tuple(e) for e in g.edge_array().tolist()}
        added = [(a.i, a.j) for a in pert.edges_added]
        removed = [(r.i, r.j) for r in pert.edges_removed]
        assert added and removed and len(added) + len(removed) <= 258
        assert len(set(added)) == len(added) and not set(added) & existing
        assert len(set(removed)) == len(removed) and set(removed) <= existing
        labels = g.labels
        for i, j in added:
            assert i < j and (i in share or j in share) and labels[i] != labels[j]
        for i, j in removed:
            assert (i in share or j in share) and labels[i] == labels[j]

    @pytest.mark.parametrize("seed", range(6))
    def test_baselines_match_oracle(self, seed):
        # Budgets past the share's edge count exhaust the removal list.
        g = generate_sbm(seed, [15] * 4, 0.1, 0.01, feature_dim=4, noise=1.0)
        part = partition_nodes(g, 3)
        for budget in (0, 1, 7, 60):
            for w in range(3):
                got = baseline_random(g, part, budget, budget // 2, seed=seed, poisoned_worker=w)
                want = baseline_oracle.baseline_random(
                    g, part, budget, budget // 2, seed=seed, poisoned_worker=w
                )
                assert got.to_dict() == want.to_dict()
                got = baseline_dice(g, part, budget, seed=seed, poisoned_worker=w)
                want = baseline_oracle.baseline_dice(g, part, budget, seed=seed, poisoned_worker=w)
                assert got.to_dict() == want.to_dict()


class TestPerturbationSet:
    def test_json_round_trip(self, tmp_path):
        pert = PerturbationSet(
            edges_removed=[EdgeRemoval(0, 1, 0.5, 1)],
            edges_added=[EdgeAddition(2, 3, 2)],
            features_flipped=[FeatureFlip(4, 0, 1.0, -1.0, 1, 1)],
            homophily_penalties=[0.0, 0.1],
            config={"kind": "disttack", "edge_budget": 1},
        )
        path = tmp_path / "pert.json"
        pert.save(path)
        loaded = PerturbationSet.load(path)
        assert loaded.to_dict() == pert.to_dict()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_saved_set_applies_identically(self, data):
        # Removals of present edges, additions of absent pairs (a removed edge
        # may come back) and flips to any finite value, -0.0 and subnormals
        # included: the loaded set must edit a graph exactly as the original,
        # and its one batch of edge edits exactly as single edits do.
        g = generate_sbm(data.draw(st.integers(0, 3)), [6, 6], 0.4, 0.1, feature_dim=3, noise=0.3)
        present = [tuple(int(v) for v in e) for e in g.edge_array()]
        removed = data.draw(st.lists(st.sampled_from(present), unique=True, max_size=6))
        absent = [(i, j) for i in range(12) for j in range(i + 1, 12)
                  if (i, j) not in present or (i, j) in removed]
        added = data.draw(st.lists(st.sampled_from(absent), unique=True, max_size=6))
        value = st.floats(allow_nan=False, allow_infinity=False)
        flips = data.draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 2), value,
                                             st.sampled_from([-1, 1])), max_size=6))
        pert = PerturbationSet(
            edges_removed=[EdgeRemoval(i, j, data.draw(value), k) for k, (i, j) in enumerate(removed)],
            edges_added=[EdgeAddition(i, j, k) for k, (i, j) in enumerate(added)],
            features_flipped=[FeatureFlip(node, dim, float(g.features[node, dim]), new, sign, k)
                              for k, (node, dim, new, sign) in enumerate(flips)],
            homophily_penalties=data.draw(st.lists(value, max_size=3)),
            config={"kind": "disttack", "edge_budget": len(removed)},
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pert.json"
            pert.save(path)
            loaded = PerturbationSet.load(path)
        assert loaded.to_dict() == pert.to_dict()
        single = g.copy()
        for i, j in removed:
            single.remove_edge(i, j)
        for i, j in added:
            single.add_edge(i, j)
        for f in pert.features_flipped:
            single.set_feature(f.node, f.dim, f.new)
        want = pert.apply_to(g)
        for got in (loaded.apply_to(g), single):
            for a, b in ((want.indptr, got.indptr), (want.indices, got.indices)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert want.features.tobytes() == got.features.tobytes()
            assert want.edits == got.edits == pert.size
            np.testing.assert_array_equal(want.degrees(), got.degrees())

    def test_apply_matches_incremental_state(self):
        g, part = toy_instance(6)
        cfg = attack_cfg(edge_budget=3, feature_budget=3, seed=6, lambda_homo=1.0)
        targets = select_targets(g, part, 0, 2)
        pert = run_disttack(g, part, cfg, targets)
        gp = pert.apply_to(g)
        assert g.num_edges - gp.num_edges == len(pert.edges_removed)
        for flip in pert.features_flipped:
            assert gp.features[flip.node, flip.dim] == flip.new


class TestSelectTargets:
    def test_targets_on_share_and_trained(self):
        g, part = toy_instance(7)
        targets = select_targets(g, part, 1, 4)
        for t in targets:
            assert part.assignment[t] == 1
            assert g.train_mask[t]

    def test_highest_degree_first(self):
        g, part = toy_instance(8)
        targets = select_targets(g, part, 0, 3)
        degs = [g.degree(t) for t in targets]
        assert degs == sorted(degs, reverse=True)
        pool_degs = sorted((g.degree(int(v)) for v in part.training_pool(g, 0)), reverse=True)
        assert degs == pool_degs[:3]
