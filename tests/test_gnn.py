from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gnn_oracle
from conftest import dense_normalized, make_graph, random_instance, scipy_csr
from distpoison import gnn
from distpoison.gnn import (
    ForwardState,
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


def count_limited_products():
    """Patch ``_reverse_product`` to count (limited, full) products taken."""
    seen = {"limited": 0, "full": 0}
    real = gnn._reverse_product

    def spy(A, M, rows):
        out, reached = real(A, M, rows)
        seen["full" if reached is None else "limited"] += 1
        return out, reached

    return seen, mock.patch.object(gnn, "_reverse_product", spy)


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
        batch_state=st.booleans(),
        limits=st.sampled_from([(None, None), (0, 8), (0, 1)]),
        objective=st.sampled_from(["masked_ce", "attack"]),
        want=st.booleans(),
    )
    # A lone isolated node: every block is one row, which numpy would hand to GEMV.
    @example(seed=0, n=11, model="gcn", picks=[0], removals=0, isolate=True,
             batch_state=True, limits=(0, 8), objective="masked_ce", want=False)
    def test_matches_oracle(
        self, seed, n, model, picks, removals, isolate, batch_state, limits, objective, want
    ):
        g, rng = random_instance(seed, n=n, p=0.3, feature_dim=3, num_classes=3)
        for _ in range(min(removals, g.num_edges)):
            i, j = g.edge_array()[rng.integers(g.num_edges)]
            g.remove_edge(int(i), int(j))
        if isolate:
            for v in g.neighbors(0):
                g.remove_edge(0, int(v))
        adj = normalize_adjacency(g)
        if model == "gcn":
            params = ParamSet.init_gcn(3, 5, 3, seed=seed)
        else:
            params = ParamSet.init_sgc(3, 3, seed=seed, k=int(model[-1]))
        node_set = [p % n for p in picks]  # repeats allowed
        kw = dict(want_dA=want, want_dX=want, objective=objective)

        want_bundle = oracle_backward(params, adj, g.features, g.labels, node_set, **kw)
        min_nnz, share = limits
        if min_nnz is None:
            min_nnz, share = gnn._LIMITED_MIN_NNZ, gnn._LIMITED_SHARE
        seen, spy = count_limited_products()
        with spy, mock.patch.object(gnn, "_LIMITED_MIN_NNZ", min_nnz), \
                mock.patch.object(gnn, "_LIMITED_SHARE", share):
            # A state built for the batch decides its products; without one
            # every product is full.
            state = forward_state(params, adj, g.features, [node_set]) if batch_state else None
            got = backward(params, adj, g.features, g.labels, node_set, state=state, **kw)
            if len(set(node_set)) == len(node_set):
                unique = backward(params, adj, g.features, g.labels, node_set,
                                  state=state, assume_unique=True, **kw)
                assert_same_bundle(unique, want_bundle)
        if state is None:
            assert seen["limited"] == 0
        elif share == 1 and not want:  # want_dA replaces a limited state by a full one
            assert seen["full"] == 0  # every product took the limited path
        assert_same_bundle(got, want_bundle)

    @pytest.mark.parametrize("model", ["gcn", "sgc"])
    def test_unique_batch_in_any_order(self, model):
        # Twelve batch nodes share neighbour 0, so row 0 of the first reverse
        # product sums twelve terms. A limited product must add them in
        # ascending order, as the CSR product does, whatever the batch's order.
        rng = np.random.default_rng(7)
        edges = [(0, v) for v in range(1, 13)] + [(v, v + 12) for v in range(1, 13)]
        g = build_graph(edges, rng.standard_normal((25, 3)), rng.integers(0, 3, 25))
        adj = normalize_adjacency(g)
        if model == "gcn":
            params = ParamSet.init_gcn(3, 5, 3, seed=7)
        else:
            params = ParamSet.init_sgc(3, 3, seed=7, k=2)
        batch = rng.permutation(np.arange(1, 13))
        want_bundle = gnn_oracle.backward(params, adj, g.features, g.labels, batch)
        seen, spy = count_limited_products()
        with spy, mock.patch.object(gnn, "_LIMITED_MIN_NNZ", 0), \
                mock.patch.object(gnn, "_LIMITED_SHARE", 1):
            state = forward_state(params, adj, g.features, [batch])
            got = backward(params, adj, g.features, g.labels, batch, state=state,
                           assume_unique=True)
        assert seen["full"] == 0
        assert_same_bundle(got, want_bundle)

    @pytest.mark.parametrize("model", ["gcn", "sgc"])
    def test_both_sides_of_the_path_choice(self, model):
        # 3,200 nodes at degree about 6.5: large enough that a state built
        # for an 8-node batch starts it on the limited products (the third
        # SGC hop reaches too much of A and goes full), while one built for
        # every training node keeps the full ones throughout.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)
        adj = normalize_adjacency(g)
        assert adj.matrix.nnz >= gnn._LIMITED_MIN_NNZ
        if model == "gcn":
            params = ParamSet.init_gcn(8, 16, 4, seed=1)
        else:
            params = ParamSet.init_sgc(8, 4, seed=1, k=3)
        rng = np.random.default_rng(0)
        small = rng.choice(np.flatnonzero(g.train_mask), size=8, replace=False)
        for node_set, limited in ((small, True), (np.flatnonzero(g.train_mask), False)):
            state = forward_state(params, adj, g.features, [node_set])
            want_bundle = gnn_oracle.backward(params, adj, g.features, g.labels, node_set)
            seen, spy = count_limited_products()
            with spy:
                got = backward(params, adj, g.features, g.labels, node_set, state=state)
            assert (seen["limited"] > 0) == limited
            assert_same_bundle(got, want_bundle)
            # A batch in draw order, taken as unique: sorted for the limited products.
            got = backward(
                params, adj, g.features, g.labels, node_set, state=state, assume_unique=True
            )
            assert_same_bundle(got, want_bundle)

    @pytest.mark.parametrize("model", ["gcn", "sgc"])
    def test_limited_pass_reads_only_its_field(self, model):
        # The state built for the batch holds each intermediate on the rows
        # its field names; every intermediate the pass should not read and
        # every feature row outside the batch's two-hop field is NaN. A pass
        # that read one would carry the NaN into its gradients.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)
        adj = normalize_adjacency(g)
        if model == "gcn":
            params = ParamSet.init_gcn(8, 16, 4, seed=1)
        else:
            params = ParamSet.init_sgc(8, 4, seed=1, k=2)
        batch = np.random.default_rng(0).choice(np.flatnonzero(g.train_mask), 8, replace=False)
        fields = receptive_fields(adj, batch, 2)  # fields[t]: the rows t hops from the batch
        state = forward_state(params, adj, g.features, [batch])
        hops = (2, 1, 1, 1, 0) if model == "gcn" else (2, 1, 0)
        assert len(state.fields) == len(hops)
        for f, h in zip(state.fields, hops):
            np.testing.assert_array_equal(f, fields[h])

        def nan(M):
            return np.full_like(M, np.nan)

        if model == "gcn":
            P, S0, H, Q, Z = state.values
            poisoned = (nan(P), nan(S0), H, nan(Q), Z)
        else:
            us = state.values
            poisoned = (nan(us[0]), nan(us[1]), us[2])
        X = np.full_like(g.features, np.nan)
        X[fields[2]] = g.features[fields[2]]
        want_bundle = gnn_oracle.backward(params, adj, g.features, g.labels, batch)
        seen, spy = count_limited_products()
        with spy:
            got = backward(params, adj, X, g.labels, batch,
                           state=ForwardState(poisoned, state.fields, state.gathers))
        assert seen == {"limited": 2, "full": 0}
        assert_same_bundle(got, want_bundle)

    @pytest.mark.parametrize("feature_dim", [64, 1])
    def test_other_blas_kernels_agree_to_rounding(self, feature_dim):
        # At n = 3,200 the full X.T @ dP leaves OpenBLAS's small-matrix GEMM
        # kernel: with 64 features it sums over n in blocks (m*n*k > 10**6),
        # with one it is a GEMV. Either may group the terms differently from
        # the row-restricted product.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=64, noise=1.0)
        adj = normalize_adjacency(g)
        X = g.features[:, :feature_dim].copy()
        params = ParamSet.init_gcn(feature_dim, 16, 4, seed=1)
        batch = np.random.default_rng(0).choice(np.flatnonzero(g.train_mask), 8, replace=False)
        want_bundle = gnn_oracle.backward(params, adj, X, g.labels, batch)
        seen, spy = count_limited_products()
        with spy:
            got = backward(params, adj, X, g.labels, batch,
                           state=forward_state(params, adj, X, [batch]))
        assert seen == {"limited": 2, "full": 0}
        np.testing.assert_allclose(got.dW0, want_bundle.dW0, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.dW1, want_bundle.dW1, rtol=1e-12, atol=1e-15)
        assert got.l2_norm == pytest.approx(want_bundle.l2_norm, rel=1e-12)

    def test_small_graph_takes_full_products(self):
        # The reference experiment's size (200 nodes) stays on the full path.
        g = generate_sbm(0, [50] * 4, 0.1, 0.01, feature_dim=8, noise=1.2)
        adj = normalize_adjacency(g)
        params = ParamSet.init_gcn(8, 16, 4, seed=0)
        seen, spy = count_limited_products()
        with spy:
            backward(params, adj, g.features, g.labels, [0, 1, 2])
        assert seen == {"limited": 0, "full": 2}

    def test_state_is_forward_logits(self):
        g, _ = random_instance(3)
        adj = normalize_adjacency(g)
        for params in (gcn_params(6, 8, 3), ParamSet.init_sgc(6, 3, k=2)):
            state = forward_state(params, adj, g.features)
            np.testing.assert_array_equal(state.values[-1], forward(params, adj, g.features))
            assert len(state.values) == (5 if params.W1 is not None else params.k + 1)
            assert not state.limited

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


def oracle_state(params, adj, X):
    if params.W1 is None:
        return gnn_oracle.sgc_state(params, scipy_csr(adj.matrix), X, params.k)
    return gnn_oracle.gcn_state(params, scipy_csr(adj.matrix), X)


class TestLimitedForward:
    """``forward_state`` over a batch union against the forward pass as first written."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 24),
        model=st.sampled_from(["gcn", "sgc1", "sgc2", "sgc3"]),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
        batch_picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
        isolate=st.booleans(),
        share=st.sampled_from([1, 2, 8]),
        objective=st.sampled_from(["masked_ce", "attack"]),
        want=st.booleans(),
    )
    def test_matches_oracle(
        self, seed, n, model, picks, batch_picks, isolate, share, objective, want
    ):
        g, rng = random_instance(seed, n=n, p=0.3, feature_dim=3, num_classes=3)
        if isolate:
            for v in g.neighbors(0):
                g.remove_edge(0, int(v))
        adj = normalize_adjacency(g)
        if model == "gcn":
            params, depth = ParamSet.init_gcn(3, 5, 3, seed=seed), 2
        else:
            params = ParamSet.init_sgc(3, 3, seed=seed, k=int(model[-1]))
            depth = params.k
        union = [p % n for p in picks]  # repeats allowed
        batch = [union[p % len(union)] for p in batch_picks]  # inside the union, repeats too
        kw = dict(want_dA=want, want_dX=want, objective=objective)
        with mock.patch.object(gnn, "_LIMITED_MIN_NNZ", 0), \
                mock.patch.object(gnn, "_LIMITED_SHARE", share):
            state = forward_state(params, adj, g.features, [union, batch])
            got = backward(params, adj, g.features, g.labels, batch, state=state, **kw)
            outside = np.setdiff1d(np.arange(n), union)
            if len(outside) and state.limited:
                with pytest.raises(ValueError):
                    backward(params, adj, g.features, g.labels, [outside[0]], state=state)
        # Field h is the nodes h hops from the union, from the logits down,
        # for as long as the product rule holds; share 1 always holds, and
        # then X W0 is held on the deepest field.
        fields = receptive_fields(adj, union, depth)
        held = [f for f in state.fields[::-1] if f is not None]
        if params.W1 is not None:
            held = held[:2] + held[4:]  # S0, H and Q share one field
        assert len(held) <= depth + 1
        if share == 1:
            assert len(held) == depth + 1
        for f, want_f in zip(held, fields):
            np.testing.assert_array_equal(f, want_f)
        full = oracle_state(params, adj, g.features)
        assert len(state.values) == len(full)
        for value, field, want_value in zip(state.values, state.fields, full):
            np.testing.assert_array_equal(value, want_value if field is None else want_value[field])
        assert_same_bundle(
            got, oracle_backward(params, adj, g.features, g.labels, batch, **kw)
        )

    @pytest.mark.parametrize("model", ["gcn", "sgc"])
    def test_reads_only_the_union_field(self, model, monkeypatch):
        # Features outside the rows the union's logits depend on are NaN. The
        # full-X input check would reject them, so it is switched off here;
        # a limited forward or reverse pass that read one of those rows would
        # carry a NaN into a held row or a gradient.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)
        adj = normalize_adjacency(g)
        if model == "gcn":
            params = ParamSet.init_gcn(8, 16, 4, seed=1)
        else:
            params = ParamSet.init_sgc(8, 4, seed=1, k=2)
        union = np.random.default_rng(0).choice(np.flatnonzero(g.train_mask), 24, replace=False)
        X = np.full_like(g.features, np.nan)
        field = receptive_fields(adj, union, 2)[2]
        X[field] = g.features[field]
        batches = np.split(union, 3)
        clean = forward_state(params, adj, g.features, batches)
        batch = batches[0]
        want_bundle = backward(params, adj, g.features, g.labels, batch, state=clean)
        monkeypatch.setattr(gnn, "_check_finite", lambda *args: None)
        got = forward_state(params, adj, X, batches)
        assert all(f is not None for f in got.fields[1:])
        for value, want_value in zip(got.values[1:], clean.values[1:]):
            assert np.isfinite(value).all()
            np.testing.assert_array_equal(value, want_value)
        assert_same_bundle(backward(params, adj, X, g.labels, batch, state=got), want_bundle)

    def test_want_dA_builds_a_full_state(self):
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)
        adj = normalize_adjacency(g)
        params = ParamSet.init_gcn(8, 16, 4, seed=1)
        batch = np.random.default_rng(0).choice(np.flatnonzero(g.train_mask), 4, replace=False)
        state = forward_state(params, adj, g.features, [batch])
        assert state.limited
        got = backward(params, adj, g.features, g.labels, batch, want_dA=True, state=state)
        want_bundle = oracle_backward(params, adj, g.features, g.labels, batch, want_dA=True)
        assert_same_bundle(got, want_bundle)

    def test_limited_state_rejects_other_node_sets(self):
        # A limited state serves the batches it was built for and no other
        # node set: not a batch's reordering, part of it, or the union.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)
        adj = normalize_adjacency(g)
        params = ParamSet.init_gcn(8, 16, 4, seed=1)
        rng = np.random.default_rng(0)
        batches = list(rng.choice(np.flatnonzero(g.train_mask), (2, 8), replace=False))
        state = forward_state(params, adj, g.features, batches)
        assert state.limited
        for node_set in (batches[0][::-1], batches[0][:4], np.concatenate(batches)):
            with pytest.raises(ValueError, match="not one of them"):
                backward(params, adj, g.features, g.labels, node_set, state=state)

    def test_small_graph_gathers_nothing(self):
        # The reference experiment's size (200 nodes) keeps every row.
        g = generate_sbm(0, [50] * 4, 0.1, 0.01, feature_dim=8, noise=1.2)
        adj = normalize_adjacency(g)
        assert adj.matrix.nnz < gnn._LIMITED_MIN_NNZ
        state = forward_state(ParamSet.init_gcn(8, 16, 4, seed=0), adj, g.features,
                              [np.array([0, 1])])
        assert not state.limited and state.gathers is None


def model_params(model, feature_dim, classes, seed):
    """GCN (hidden 5) or SGC weights for a model name "gcn" or "sgc<k>"."""
    if model == "gcn":
        return ParamSet.init_gcn(feature_dim, 5, classes, seed=seed)
    return ParamSet.init_sgc(feature_dim, classes, seed=seed, k=int(model[-1]))


@pytest.mark.parametrize("bound", [50, 2**60])  # packed positions; too wide to pack
def test_stable_sort_is_a_stable_argsort(bound):
    keys = np.random.default_rng(0).integers(0, 50, 300)
    order, ordered = gnn._stable_sort(keys, bound)
    want = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, want)
    np.testing.assert_array_equal(ordered, keys[want])


class TestSharedGathers:
    """Reverse passes on one state built for several batches, against the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 24),
        model=st.sampled_from(["gcn", "sgc1", "sgc2", "sgc3"]),
        cuts=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
        extra_picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
        limits=st.sampled_from([(0, 1), (0, 2), (0, 8), (None, None)]),
        objective=st.sampled_from(["masked_ce", "attack"]),
        want_dX=st.booleans(),
    )
    def test_matches_oracle(
        self, seed, n, model, cuts, extra_picks, limits, objective, want_dX
    ):
        # Disjoint batches of a dense random graph share neighbours; the
        # extra batch is a subset of their union with repeats.
        g, rng = random_instance(seed, n=n, p=0.3, feature_dim=3, num_classes=3)
        adj = normalize_adjacency(g)
        params = model_params(model, 3, 3, seed)
        nodes = rng.permutation(n)[: max(1, n * 2 // 3)]
        bounds = sorted({0, len(nodes), *(c % len(nodes) for c in cuts)})
        batches = [nodes[a:b] for a, b in zip(bounds, bounds[1:])]
        extra = [nodes[p % len(nodes)] for p in extra_picks]
        min_nnz, share = limits
        if min_nnz is None:
            min_nnz, share = gnn._LIMITED_MIN_NNZ, gnn._LIMITED_SHARE
        kw = dict(want_dX=want_dX, objective=objective)
        seen, spy = count_limited_products()
        with spy, mock.patch.object(gnn, "_LIMITED_MIN_NNZ", min_nnz), \
                mock.patch.object(gnn, "_LIMITED_SHARE", share):
            state = forward_state(params, adj, g.features, batches + [extra])
            assert (state.gathers is not None) == (min_nnz == 0)
            got = [backward(params, adj, g.features, g.labels, b, state=state,
                            assume_unique=True, **kw) for b in batches]
            got.append(backward(params, adj, g.features, g.labels, extra, state=state, **kw))
        if share == 1:
            assert seen["full"] == 0
        for b, bundle in zip(batches + [extra], got):
            assert_same_bundle(
                bundle, gnn_oracle.backward(params, adj, g.features, g.labels, b, **kw)
            )

    @pytest.mark.parametrize("model", ["gcn", "sgc1", "sgc2", "sgc3"])
    def test_default_thresholds(self, model):
        # 3,200 nodes at degree about 6.5 under the default thresholds. The
        # hub's neighbours, split over four batches, share the hub; three
        # more batches are drawn from the training nodes.
        g = generate_sbm(5, [800] * 4, 5 / 800, 0.5 / 800, feature_dim=8, noise=1.0)
        adj = normalize_adjacency(g)
        params = model_params(model, 8, 4, 1)
        hub = int(np.argmax(g.degrees()))
        rng = np.random.default_rng(0)
        ring = rng.permutation(g.neighbors(hub))[:12]
        rest = np.setdiff1d(np.flatnonzero(g.train_mask), ring)
        batches = [*np.array_split(ring, 4), *rng.choice(rest, (3, 8), replace=False)]
        extra = np.concatenate([batches[0], batches[0], batches[-1][:3]])  # repeats
        state = forward_state(params, adj, g.features, batches + [extra])
        assert len(state.gathers) == len(batches) + 1
        seen, spy = count_limited_products()
        with spy:
            for b in batches + [extra]:
                got = backward(params, adj, g.features, g.labels, b, state=state)
                assert_same_bundle(got, gnn_oracle.backward(params, adj, g.features, g.labels, b))
        assert seen["limited"] > 0


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
