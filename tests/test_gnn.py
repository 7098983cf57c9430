from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gnn_oracle
from conftest import dense_normalized, make_graph, random_instance, scipy_csr
from distpoison import gnn
from distpoison.gnn import (
    GradientBundle,
    NumericalError,
    ParamSet,
    attack_loss,
    backward,
    check_gradients,
    forward,
    forward_state,
    masked_ce_loss,
    sgd_step,
    sweep,
)
from distpoison.graph import build_graph, generate_sbm, normalize_adjacency


def gcn_params(feature_dim, hidden, classes, seed=0, lr=0.1):
    return ParamSet.init_gcn(feature_dim, hidden, classes, seed=seed, learning_rate=lr)


def dense_gcn(adj_dense, X, W0, W1):
    return adj_dense @ np.maximum(adj_dense @ X @ W0, 0.0) @ W1


class TestGCNForward:
    def test_zero_weights(self):
        g = make_graph(4, [(0, 1), (1, 2)], feature_dim=3)
        adj = normalize_adjacency(g)
        params = ParamSet(W0=np.zeros((3, 5)), W1=np.zeros((5, 2)))
        Z = forward(params, adj, g.features)
        assert np.all(Z == 0.0)

    def test_identity_chain_single_node(self):
        g = make_graph(1, [], features=np.array([[1.0, 0.0]]))
        adj = normalize_adjacency(g)  # [[1.0]]
        params = ParamSet(W0=np.eye(2), W1=np.eye(2))
        Z = forward(params, adj, g.features)
        np.testing.assert_allclose(Z, [[1.0, 0.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_reference(self, seed):
        g, rng = random_instance(seed, n=6, feature_dim=4, num_classes=3)
        adj = normalize_adjacency(g)
        params = gcn_params(4, 5, 3, seed=seed)
        Z = forward(params, adj, g.features)
        ref = dense_gcn(dense_normalized(g), g.features, params.W0, params.W1)
        np.testing.assert_allclose(Z, ref, atol=1e-10)

    def test_non_finite_input_rejected(self):
        g = make_graph(2, [(0, 1)], feature_dim=2)
        adj = normalize_adjacency(g)
        params = ParamSet(W0=np.full((2, 3), np.nan), W1=np.zeros((3, 2)))
        with pytest.raises(NumericalError):
            forward(params, adj, g.features)


class TestSGCForward:
    def test_identity_propagation(self):
        # No edges: the normalized matrix is exactly the identity.
        feats = np.arange(6.0).reshape(3, 2)
        g = make_graph(3, [], features=feats)
        adj = normalize_adjacency(g)
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = ParamSet(W0=W, W1=None, k=1)
        np.testing.assert_allclose(forward(params, adj, feats), feats @ W)

    def test_depth_two_is_composition(self):
        g, _ = random_instance(1, n=5, feature_dim=3)
        adj = normalize_adjacency(g)
        W = np.random.default_rng(1).standard_normal((3, 2))
        params = ParamSet(W0=W, W1=None, k=2)
        z2 = forward(params, adj, g.features)
        A = scipy_csr(adj.matrix)
        once = A @ (g.features @ W)
        np.testing.assert_allclose(z2, A @ once, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_reference(self, seed):
        g, _ = random_instance(seed, n=6, feature_dim=4)
        adj = normalize_adjacency(g)
        W = np.random.default_rng(seed + 100).standard_normal((4, 3))
        params = ParamSet(W0=W, W1=None, k=2)
        Z = forward(params, adj, g.features)
        D = dense_normalized(g)
        np.testing.assert_allclose(Z, D @ D @ g.features @ W, atol=1e-10)

    def test_invalid_depth(self):
        g = make_graph(2, [(0, 1)])
        adj = normalize_adjacency(g)
        params = ParamSet(W0=np.zeros((2, 2)), W1=None, k=0)
        with pytest.raises(ValueError, match="depth"):
            forward(params, adj, g.features)


class TestLosses:
    def test_uniform_logits(self):
        logits = np.zeros((4, 7))
        labels = np.array([0, 1, 2, 3])
        assert masked_ce_loss(logits, labels, [0, 1, 2, 3]) == pytest.approx(np.log(7))

    def test_saturated_logits(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 1e6
        logits[1, 2] = 1e6
        labels = np.array([1, 2])
        assert masked_ce_loss(logits, labels, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_three_node_hand_case(self):
        logits = np.array([[1.0, -1.0], [0.5, 0.5], [-2.0, 3.0]])
        labels = np.array([0, 1, 1])
        # Per-node softmax oracle, computed scalar by scalar.
        want = 0.0
        for z, y in zip(logits, labels):
            p = np.exp(z) / np.exp(z).sum()
            want -= np.log(p[y])
        want /= 3
        assert masked_ce_loss(logits, labels, [0, 1, 2]) == pytest.approx(want)

    def test_empty_node_set(self):
        with pytest.raises(ValueError):
            masked_ce_loss(np.zeros((2, 2)), np.zeros(2, dtype=int), [])

    def test_attack_loss_zero_ce(self):
        logits = np.array([[1e9, 0.0]])
        labels = np.array([0])
        assert attack_loss(logits, labels, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_attack_loss_literal_sum(self):
        # Build rows whose cross-entropies are exactly 0.5 and 1.5.
        def row_with_ce(ce):
            # two classes, true class 0: ce = log(1 + e^a) at logits (0, a)
            a = np.log(np.exp(ce) - 1.0)
            return [0.0, a]

        logits = np.array([row_with_ce(0.5), row_with_ce(1.5)])
        labels = np.array([0, 0])
        assert attack_loss(logits, labels, [0, 1]) == pytest.approx(-2.0)

    def test_attack_loss_empty_targets(self):
        with pytest.raises(ValueError):
            attack_loss(np.zeros((2, 2)), np.zeros(2, dtype=int), [])

    def test_attack_equals_negated_count_times_mean(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        targets = [1, 3, 4]
        assert attack_loss(logits, labels, targets) == pytest.approx(
            -len(targets) * masked_ce_loss(logits, labels, targets)
        )

    def test_attack_loss_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, 4)
        targets = np.array([0, 2])
        # analytic: -(softmax - onehot) on target rows
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        onehot = np.zeros_like(logits)
        onehot[np.arange(4), labels] = 1.0
        analytic = np.zeros_like(logits)
        analytic[targets] = -(probs - onehot)[targets]
        eps = 1e-6
        for i in range(4):
            for c in range(3):
                z = logits.copy()
                z[i, c] += eps
                hi = attack_loss(z, labels, targets)
                z[i, c] -= 2 * eps
                lo = attack_loss(z, labels, targets)
                assert (hi - lo) / (2 * eps) == pytest.approx(analytic[i, c], abs=1e-8)


class TestBackward:
    def test_zero_weight_network(self):
        g, _ = random_instance(0, n=6, feature_dim=4)
        adj = normalize_adjacency(g)
        params = ParamSet(W0=np.zeros((4, 3)), W1=np.zeros((3, 2)))
        labels = np.zeros(6, dtype=np.int64)
        b = backward(params, adj, g.features, labels, [0, 1, 2])
        assert np.all(b.dW0 == 0.0)
        assert np.all(b.dW1 == 0.0)

    def test_finite_difference_12_nodes(self):
        g, _ = random_instance(7, n=12, feature_dim=5, num_classes=3)
        adj = normalize_adjacency(g)
        params = gcn_params(5, 8, 3, seed=7)
        report = check_gradients(
            params, adj, g.features, g.labels, np.arange(12), epsilon=1e-4
        )
        assert report.overall < 1e-4

    def test_l2_norm_matches_concatenation(self):
        g, _ = random_instance(2, n=6, feature_dim=4)
        adj = normalize_adjacency(g)
        params = gcn_params(4, 5, 3, seed=2)
        b = backward(params, adj, g.features, g.labels, np.arange(6))
        want = np.sqrt((b.dW0**2).sum() + (b.dW1**2).sum())
        assert abs(b.l2_norm - want) <= 1e-12 * want

    def test_sgc_finite_difference(self):
        g, _ = random_instance(11, n=10, feature_dim=4, num_classes=3)
        adj = normalize_adjacency(g)
        params = ParamSet.init_sgc(4, 3, seed=11, k=2)
        report = check_gradients(
            params, adj, g.features, g.labels, np.arange(10), epsilon=1e-4
        )
        assert report.overall < 1e-4

    def test_attack_objective_finite_difference(self):
        g, _ = random_instance(13, n=10, feature_dim=4, num_classes=3)
        adj = normalize_adjacency(g)
        params = gcn_params(4, 6, 3, seed=13)
        report = check_gradients(
            params, adj, g.features, g.labels, [0, 3], epsilon=1e-4, objective="attack"
        )
        assert report.overall < 1e-4

    @pytest.mark.parametrize("objective", ["masked_ce", "attack"])
    @pytest.mark.parametrize("model", ["gcn", "sgc"])
    def test_repeated_nodes_finite_difference(self, objective, model):
        # The losses count a node once per listing, so its gradient does too.
        g = generate_sbm(2, [4] * 4, 0.6, 0.1, feature_dim=4, noise=1.0)
        adj = normalize_adjacency(g)
        if model == "gcn":
            params = gcn_params(4, 6, 4, seed=2)
        else:
            params = ParamSet.init_sgc(4, 4, seed=2, k=2)
        report = check_gradients(
            params, adj, g.features, g.labels, [1, 1, 2, 3], objective=objective
        )
        assert report.overall < 1e-4


def assert_same_bundle(got, want):
    np.testing.assert_array_equal(got.dW0, want.dW0)
    assert (got.dW1 is None) == (want.dW1 is None)
    if want.dW1 is not None:
        np.testing.assert_array_equal(got.dW1, want.dW1)
    assert (got.dX is None) == (want.dX is None)
    if want.dX is not None:
        np.testing.assert_array_equal(got.dX, want.dX)
    assert (got.dA is None) == (want.dA is None)
    if want.dA is not None:
        assert got.dA.dtype == want.dA.dtype and got.dA.shape == want.dA.shape
        assert got.dA.tobytes() == want.dA.tobytes()
    assert got.l2_norm == want.l2_norm


def oracle_backward(params, adj, X, labels, node_set, **kw):
    """``gnn_oracle.backward`` with its CSR dA read at ``adj.edge_list()``,
    the per-edge form ``backward`` returns."""
    bundle = gnn_oracle.backward(params, adj, X, labels, node_set, **kw)
    if bundle.dA is not None:
        k, l = adj.edge_list().T
        bundle.dA = np.asarray(bundle.dA[k, l]).ravel() if len(k) else np.zeros(0)
    return bundle


class TestBackwardOracle:
    """``backward`` against the reverse pass as first written, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 24),
        model=st.sampled_from(["gcn", "sgc1", "sgc2", "sgc3"]),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=10),
        removals=st.integers(0, 6),
        isolate=st.booleans(),
        with_state=st.booleans(),
        objective=st.sampled_from(["masked_ce", "attack"]),
        want=st.booleans(),
    )
    def test_matches_oracle(
        self, seed, n, model, picks, removals, isolate, with_state, objective, want
    ):
        g, rng = random_instance(seed, n=n, p=0.3, feature_dim=3, num_classes=3)
        for _ in range(min(removals, g.num_edges)):
            i, j = g.edge_array()[rng.integers(g.num_edges)]
            g.remove_edge(int(i), int(j))
        if isolate:
            for v in g.neighbors(0):
                g.remove_edge(0, int(v))
        adj = normalize_adjacency(g)
        params = model_params(model, 3, 3, seed)
        node_set = [p % n for p in picks]  # repeats allowed
        kw = dict(want_dA=want, want_dX=want, objective=objective)

        want_bundle = oracle_backward(params, adj, g.features, g.labels, node_set, **kw)
        state = forward_state(params, adj, g.features) if with_state else None
        got = backward(params, adj, g.features, g.labels, node_set, state=state, **kw)
        if len(set(node_set)) == len(node_set):
            unique = backward(params, adj, g.features, g.labels, node_set,
                              state=state, assume_unique=True, **kw)
            assert_same_bundle(unique, want_bundle)
        assert_same_bundle(got, want_bundle)

    def test_state_is_forward_logits(self):
        g, _ = random_instance(3)
        adj = normalize_adjacency(g)
        for params in (gcn_params(6, 8, 3), ParamSet.init_sgc(6, 3, k=2)):
            state = forward_state(params, adj, g.features)
            np.testing.assert_array_equal(state.values[-1], forward(params, adj, g.features))
            assert len(state.values) == (5 if params.W1 is not None else params.k + 1)
            assert all(len(v) == g.num_nodes for v in state.values)

    def test_state_rejects_non_finite_inputs(self):
        g, _ = random_instance(4)
        g.features[0, 0] = np.nan
        with pytest.raises(NumericalError):
            forward_state(gcn_params(6, 8, 3), normalize_adjacency(g), g.features)


def receptive_fields(adj, rows, depth):
    """fields[h]: the sorted nodes h hops from ``rows``, through scipy's row slicing."""
    A = scipy_csr(adj.matrix)
    fields = [np.unique(rows)]
    for _ in range(depth):
        fields.append(np.unique(A[fields[-1]].indices))
    return fields


def model_params(model, feature_dim, classes, seed):
    """GCN (hidden 5) or SGC weights for a model name "gcn" or "sgc<k>"."""
    if model == "gcn":
        return ParamSet.init_gcn(feature_dim, 5, classes, seed=seed)
    return ParamSet.init_sgc(feature_dim, classes, seed=seed, k=int(model[-1]))


def depth_of(params):
    return 2 if params.W1 is not None else params.k


def draw_batches(batch_picks, n):
    """Batches of distinct node ids, in draw order, from lists of picks."""
    return [np.array(list(dict.fromkeys(p % n for p in picks))) for picks in batch_picks]


def assert_sweep_matches_oracle(params, adj, X, labels, batches, oracle_X=None):
    """``sweep`` takes the batches, and each bundle equals the oracle's pass
    on ``oracle_X`` (X when None)."""
    bundles = sweep(params, adj, X, labels, batches)
    assert bundles is not None and len(bundles) == len(batches)
    for batch, bundle in zip(batches, bundles):
        want = gnn_oracle.backward(params, adj, X if oracle_X is None else oracle_X, labels, batch)
        assert_same_bundle(bundle, want)


def large_sbm():
    """3,200 nodes at degree about 6.5: above _LIMITED_MIN_NNZ."""
    return generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)


class TestSweepOracle:
    """``sweep``'s bundles against the reverse pass as first written, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 24),
        model=st.sampled_from(["gcn", "sgc1", "sgc2", "sgc3"]),
        batch_picks=st.lists(
            st.lists(st.integers(0, 10**6), min_size=1, max_size=8), min_size=1, max_size=5
        ),
        isolate=st.booleans(),
        share=st.sampled_from([1, 2, 8]),
    )
    # A lone isolated node: every field is one row, which numpy would hand to GEMV.
    @example(seed=0, n=11, model="gcn", batch_picks=[[0]], isolate=True, share=1)
    def test_matches_oracle(self, seed, n, model, batch_picks, isolate, share):
        # Dense random graphs; batches may share nodes and neighbours. The
        # sweep is taken exactly when every batch's rows h hops out hold at
        # most 1/share of A's entries, for every h below the depth.
        g, _ = random_instance(seed, n=n, p=0.3, feature_dim=3, num_classes=3)
        if isolate:
            for v in g.neighbors(0):
                g.remove_edge(0, int(v))
        adj = normalize_adjacency(g)
        params = model_params(model, 3, 3, seed)
        batches = draw_batches(batch_picks, n)
        A = scipy_csr(adj.matrix)
        fails = any(A[f].nnz * share > A.nnz for b in batches
                    for f in receptive_fields(adj, b, depth_of(params) - 1))
        with mock.patch.object(gnn, "_LIMITED_MIN_NNZ", 0), \
                mock.patch.object(gnn, "_LIMITED_SHARE", share):
            if fails:
                assert sweep(params, adj, g.features, g.labels, batches) is None
            else:
                assert_sweep_matches_oracle(params, adj, g.features, g.labels, batches)

    @pytest.mark.parametrize("model", ["gcn", "sgc1", "sgc2", "sgc3"])
    def test_unique_batch_in_any_order(self, model):
        # Twelve batch nodes share neighbour 0, so row 0 of the first reverse
        # product sums twelve terms. The sweep must add them in ascending
        # order, as the CSR product does, whatever the batch's order.
        rng = np.random.default_rng(7)
        edges = [(0, v) for v in range(1, 13)] + [(v, v + 12) for v in range(1, 13)]
        g = build_graph(edges, rng.standard_normal((25, 3)), rng.integers(0, 3, 25))
        params = model_params(model, 3, 3, 7)
        batches = [rng.permutation(np.arange(1, 13)), rng.permutation(np.arange(1, 25))[:5]]
        with mock.patch.object(gnn, "_LIMITED_MIN_NNZ", 0), \
                mock.patch.object(gnn, "_LIMITED_SHARE", 1):
            assert_sweep_matches_oracle(params, normalize_adjacency(g), g.features, g.labels,
                                        batches)

    @pytest.mark.parametrize("model", ["gcn", "sgc2"])
    def test_both_sides_of_the_path_choice(self, model):
        # Under the default thresholds an 8-node batch is swept, while every
        # training node at once reaches too much of A and is left to
        # backward's full products.
        g = large_sbm()
        adj = normalize_adjacency(g)
        assert adj.matrix.nnz >= gnn._LIMITED_MIN_NNZ
        params = model_params(model, 8, 4, 1)
        train = np.flatnonzero(g.train_mask)
        small = np.random.default_rng(0).choice(train, size=8, replace=False)
        assert_sweep_matches_oracle(params, adj, g.features, g.labels, [small])
        assert sweep(params, adj, g.features, g.labels, [small, train]) is None
        got = backward(params, adj, g.features, g.labels, train,
                       state=forward_state(params, adj, g.features), assume_unique=True)
        assert_same_bundle(got, gnn_oracle.backward(params, adj, g.features, g.labels, train))

    @pytest.mark.parametrize("model", ["gcn", "sgc1", "sgc2"])
    def test_reads_only_its_fields(self, model):
        # Every feature row outside the batches' deepest fields is NaN. A
        # sweep that read one would carry the NaN into a gradient.
        g = large_sbm()
        adj = normalize_adjacency(g)
        params = model_params(model, 8, 4, 1)
        union = np.random.default_rng(0).choice(np.flatnonzero(g.train_mask), 24, replace=False)
        batches = np.split(union, 3)
        X = np.full_like(g.features, np.nan)
        for batch in batches:
            field = receptive_fields(adj, batch, depth_of(params))[-1]
            X[field] = g.features[field]
        assert np.isnan(X).any()
        assert_sweep_matches_oracle(params, adj, X, g.labels, batches, oracle_X=g.features)

    @pytest.mark.parametrize("model", ["gcn", "sgc1", "sgc2", "sgc3"])
    def test_default_thresholds(self, model):
        # The hub's neighbours, split over four batches, share the hub; three
        # more batches are drawn from the training nodes. At depth 3 the
        # batches reach too much of A, and backward's full products serve.
        g = large_sbm()
        adj = normalize_adjacency(g)
        params = model_params(model, 8, 4, 1)
        hub = int(np.argmax(g.degrees()))
        rng = np.random.default_rng(0)
        ring = rng.permutation(g.neighbors(hub))[:12]
        rest = np.setdiff1d(np.flatnonzero(g.train_mask), ring)
        batches = [*np.array_split(ring, 4), *rng.choice(rest, (3, 8), replace=False)]
        if model != "sgc3":
            assert_sweep_matches_oracle(params, adj, g.features, g.labels, batches)
            return
        assert sweep(params, adj, g.features, g.labels, batches) is None
        state = forward_state(params, adj, g.features)
        for batch in batches:
            got = backward(params, adj, g.features, g.labels, batch, state=state)
            assert_same_bundle(got, gnn_oracle.backward(params, adj, g.features, g.labels, batch))

    @pytest.mark.parametrize("feature_dim", [64, 1])
    def test_other_blas_kernels_agree_to_rounding(self, feature_dim):
        # The oracle's full X.T @ dP leaves OpenBLAS's small-matrix GEMM
        # kernel: with 64 features it sums over n in blocks (m*n*k > 10**6),
        # with one it is a GEMV. Either may group the terms differently from
        # the sweep's row-restricted product.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=64, noise=1.0)
        adj = normalize_adjacency(g)
        X = g.features[:, :feature_dim].copy()
        params = ParamSet.init_gcn(feature_dim, 16, 4, seed=1)
        batch = np.random.default_rng(0).choice(np.flatnonzero(g.train_mask), 8, replace=False)
        want_bundle = gnn_oracle.backward(params, adj, X, g.labels, batch)
        (got,) = sweep(params, adj, X, g.labels, [batch])
        np.testing.assert_allclose(got.dW0, want_bundle.dW0, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.dW1, want_bundle.dW1, rtol=1e-12, atol=1e-15)
        assert got.l2_norm == pytest.approx(want_bundle.l2_norm, rel=1e-12)

    def test_small_graph_takes_full_products(self):
        # The reference experiment's size (200 nodes) stays on the full path.
        g = generate_sbm(0, [50] * 4, 0.1, 0.01, feature_dim=8, noise=1.2)
        adj = normalize_adjacency(g)
        assert adj.matrix.nnz < gnn._LIMITED_MIN_NNZ
        params = ParamSet.init_gcn(8, 16, 4, seed=0)
        assert sweep(params, adj, g.features, g.labels, [np.array([0, 1, 2])]) is None


class TestGathers:
    """``_gathers``'s fields and blocks against scipy's row slicing."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 24),
        depth=st.integers(1, 3),
        batch_picks=st.lists(
            st.lists(st.integers(0, 10**6), min_size=1, max_size=8), min_size=1, max_size=5
        ),
        isolate=st.booleans(),
    )
    def test_matches_scipy(self, seed, n, depth, batch_picks, isolate):
        g, _ = random_instance(seed, n=n, p=0.3, feature_dim=3, num_classes=3)
        if isolate:
            for v in g.neighbors(0):
                g.remove_edge(0, int(v))
        adj = normalize_adjacency(g)
        A = scipy_csr(adj.matrix)
        batches = draw_batches(batch_picks, n)
        with mock.patch.object(gnn, "_LIMITED_SHARE", 1):
            fields, bounds, blocks = gnn._gathers(adj.matrix, batches, depth)
        assert len(fields) == len(bounds) == depth + 1 and len(blocks) == depth
        want = [receptive_fields(adj, b, depth) for b in batches]
        for h in range(depth + 1):
            assert bounds[h][0] == 0 and bounds[h][-1] == len(fields[h])
            for b, fb in enumerate(want):
                np.testing.assert_array_equal(fields[h][bounds[h][b]:bounds[h][b + 1]], fb[h])
        for h, (indptr, cols, data) in enumerate(blocks):
            got = sp.csr_matrix((data, cols, indptr), shape=(len(fields[h + 1]), len(fields[h])))
            assert got.has_canonical_format  # each row's columns strictly ascending
            block = sp.block_diag([A[fb[h + 1]][:, fb[h]] for fb in want], format="csr")
            np.testing.assert_array_equal(got.toarray(), block.toarray())


@pytest.mark.parametrize("bound", [50, 2**60])  # packed positions; too wide to pack
def test_stable_sort_is_a_stable_argsort(bound):
    keys = np.random.default_rng(0).integers(0, 50, 300)
    order, ordered = gnn._stable_sort(keys, bound)
    want = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, want)
    np.testing.assert_array_equal(ordered, keys[want])


class TestSGDStep:
    def test_zero_gradient_fixed_point(self):
        params = ParamSet(W0=np.ones((2, 2)), W1=np.ones((2, 2)), learning_rate=0.5)
        grad = GradientBundle.from_grads(np.zeros((2, 2)), np.zeros((2, 2)))
        out = sgd_step(params, grad)
        np.testing.assert_array_equal(out.W0, params.W0)
        np.testing.assert_array_equal(out.W1, params.W1)

    def test_literal_update(self):
        params = ParamSet(W0=np.array([[2.0]]), W1=np.array([[0.0]]), learning_rate=1.0)
        grad = GradientBundle.from_grads(np.array([[0.5]]), np.array([[0.0]]))
        out = sgd_step(params, grad)
        np.testing.assert_allclose(out.W0, [[1.5]])

    def test_two_steps_equal_doubled_lr(self):
        rng = np.random.default_rng(0)
        g = GradientBundle.from_grads(rng.standard_normal((3, 2)), rng.standard_normal((2, 2)))
        p1 = ParamSet(W0=np.ones((3, 2)), W1=np.ones((2, 2)), learning_rate=0.1)
        p2 = ParamSet(W0=np.ones((3, 2)), W1=np.ones((2, 2)), learning_rate=0.2)
        twice = sgd_step(sgd_step(p1, g), g)
        once = sgd_step(p2, g)
        np.testing.assert_allclose(twice.W0, once.W0, atol=1e-15)
        np.testing.assert_allclose(twice.W1, once.W1, atol=1e-15)

    def test_shape_mismatch(self):
        params = ParamSet(W0=np.ones((2, 2)), W1=np.ones((2, 2)))
        grad = GradientBundle.from_grads(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sgd_step(params, grad)

    def test_does_not_mutate_input(self):
        params = ParamSet(W0=np.ones((2, 2)), W1=np.ones((2, 2)), learning_rate=1.0)
        grad = GradientBundle.from_grads(np.ones((2, 2)), np.ones((2, 2)))
        sgd_step(params, grad)
        np.testing.assert_array_equal(params.W0, np.ones((2, 2)))


class TestCheckGradients:
    def test_flat_region(self):
        g = make_graph(4, [(0, 1), (2, 3)], feature_dim=3)
        adj = normalize_adjacency(g)
        params = ParamSet(W0=np.zeros((3, 4)), W1=np.zeros((4, 2)))
        b = backward(
            params, adj, g.features, g.labels, [0, 1], want_dA=True, want_dX=True
        )
        assert np.all(b.dX == 0.0)
        report = check_gradients(params, adj, g.features, g.labels, [0, 1])
        assert report.overall == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_gradcheck_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 17))
        g, _ = random_instance(seed, n=n, p=0.4, feature_dim=4, num_classes=3)
        adj = normalize_adjacency(g)
        params = gcn_params(4, 5, 3, seed=seed)
        node_set = rng.choice(n, size=max(2, n // 2), replace=False)
        report = check_gradients(params, adj, g.features, g.labels, node_set)
        assert report.overall < 1e-4


class TestTrainingProperties:
    def test_loss_decreases_on_separable_sbm(self):
        g = generate_sbm(0, [10, 10], 0.6, 0.05, feature_dim=4, noise=0.2)
        adj = normalize_adjacency(g)
        params = gcn_params(4, 8, 2, seed=0, lr=0.2)
        train = np.flatnonzero(g.train_mask)
        losses = []
        for _ in range(51):
            losses.append(masked_ce_loss(forward(params, adj, g.features), g.labels, train))
            bundle = backward(params, adj, g.features, g.labels, train)
            params = sgd_step(params, bundle)
        decreases = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert decreases >= 45  # >= 90% of 50 steps

    def test_permutation_equivariance(self):
        g, _ = random_instance(4, n=9, feature_dim=4, num_classes=3)
        params = gcn_params(4, 6, 3, seed=4)
        Z = forward(params, normalize_adjacency(g), g.features)
        rng = np.random.default_rng(8)
        perm = rng.permutation(g.num_nodes)
        edges = [(perm[i], perm[j]) for i, j in g.edge_array()]
        feats = np.empty_like(g.features)
        feats[perm] = g.features
        labels = np.empty_like(g.labels)
        labels[perm] = g.labels
        g2 = build_graph(edges, feats, labels)
        Z2 = forward(params, normalize_adjacency(g2), feats)
        np.testing.assert_allclose(Z2[perm], Z, atol=1e-12)
