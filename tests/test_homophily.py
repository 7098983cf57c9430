from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homophily_oracle as oracle
from conftest import edit_ops, random_edit_script
from distpoison import homophily
from distpoison.graph import build_graph, generate_sbm
from distpoison.homophily import (
    StaleStateError,
    StealthState,
    distribution_distance,
    homophily_after_edge_removal,
    homophily_after_feature_change,
    homophily_values,
    write_histogram_csv,
)


def graph_with_features(num_nodes, edges, feats):
    return build_graph(edges, np.asarray(feats, dtype=float), np.zeros(num_nodes, dtype=np.int64))


def oracle_feature_change(g, values, node, dim, value):
    """The oracle's trial of setting feature ``dim`` of ``node`` to
    ``value``: it takes the whole row that move makes."""
    row = g.features[node].copy()
    row[dim] = value
    return oracle.homophily_after_feature_change(g, values, node, row)


class TestNodeHomophily:
    def test_isolated_node(self):
        g = graph_with_features(3, [(1, 2)], [[3.0, 4.0], [1.0, 0.0], [0.0, 1.0]])
        assert homophily_values(g)[0] == pytest.approx(5.0)

    def test_single_neighbor_unit_degrees(self):
        # Hand case: d_i = d_j = 1, so the aggregate is exactly X_j.
        g = graph_with_features(2, [(0, 1)], [[0.0, 0.0], [1.0, 0.0]])
        assert homophily_values(g)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("c", [2.0, -3.0, 0.5])
    def test_feature_scaling_homogeneity(self, c):
        g = generate_sbm(0, [5, 5], 0.4, 0.1, feature_dim=3, noise=0.3)
        h1 = homophily_values(g)
        g.features *= c
        h2 = homophily_values(g)
        np.testing.assert_allclose(h2, abs(c) * h1, rtol=1e-12)

    def test_values_match_scalar_path(self):
        g = generate_sbm(1, [6, 6], 0.4, 0.1, feature_dim=3, noise=0.3)
        vec = homophily_values(g)
        scalar = np.array([oracle.node_homophily(g, i) for i in range(g.num_nodes)])
        np.testing.assert_allclose(vec, scalar, rtol=1e-12)

    def test_triangle_hand_case(self):
        g = graph_with_features(3, [(0, 1), (0, 2), (1, 2)], np.eye(3))
        # d = (2, 2, 2): ratio weighting gives sqrt(2)/sqrt(2)=1 per neighbor.
        assert homophily_values(g)[0] == pytest.approx(np.sqrt(2.0 + 1.0))


class TestDistribution:
    @pytest.mark.parametrize("seed", range(20))
    def test_edge_removal_locality(self, seed):
        g = generate_sbm(seed, [16, 16], 0.25, 0.05, feature_dim=4, noise=0.3)
        if g.num_edges == 0:
            pytest.skip("no edges drawn")
        h_before = homophily_values(g)
        i, j = g.edge_array()[seed % g.num_edges]
        allowed = {int(i), int(j)} | set(map(int, g.neighbors(i))) | set(
            map(int, g.neighbors(j))
        )
        g.remove_edge(int(i), int(j))
        h_after = homophily_values(g)
        changed = set(np.flatnonzero(h_before != h_after).tolist())
        assert changed <= allowed

    def test_permutation_equivariance(self):
        g = generate_sbm(5, [6, 6], 0.4, 0.1, feature_dim=3, noise=0.2)
        h = homophily_values(g)
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.num_nodes)
        edges = [(perm[i], perm[j]) for i, j in g.edge_array()]
        feats = np.empty_like(g.features)
        feats[perm] = g.features
        labels = np.empty_like(g.labels)
        labels[perm] = g.labels
        g2 = build_graph(edges, feats, labels)
        h2 = homophily_values(g2)
        np.testing.assert_allclose(h2[perm], h, rtol=1e-12)

    def test_nonnegative(self):
        g = generate_sbm(9, [10, 10], 0.3, 0.1, feature_dim=3, noise=0.5)
        assert np.all(homophily_values(g) >= 0)


class TestIncrementalUpdates:
    @pytest.mark.parametrize("seed", range(10))
    def test_edge_removal_matches_full_recompute(self, seed):
        g = generate_sbm(seed, [10, 10], 0.3, 0.1, feature_dim=4, noise=0.3)
        if g.num_edges == 0:
            pytest.skip("no edges drawn")
        h = homophily_values(g)
        i, j = (int(v) for v in g.edge_array()[seed % g.num_edges])
        predicted = homophily_after_edge_removal(StealthState(g, h), i, j)
        g.remove_edge(i, j)
        np.testing.assert_allclose(predicted, homophily_values(g), rtol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_feature_change_matches_full_recompute(self, seed):
        g = generate_sbm(seed, [10, 10], 0.3, 0.1, feature_dim=4, noise=0.3)
        h = homophily_values(g)
        rng = np.random.default_rng(seed)
        node, dim = int(rng.integers(g.num_nodes)), int(rng.integers(g.feature_dim))
        value = float(rng.standard_normal())
        predicted = homophily_after_feature_change(StealthState(g, h), node, dim, value)
        g.features[node, dim] = value
        np.testing.assert_allclose(predicted, homophily_values(g), rtol=1e-10)


graph_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # rng seed
    st.integers(2, 12),  # nodes
    st.integers(1, 4),  # feature dim; 1 takes numpy's pairwise-sum path
    st.floats(0.0, 0.8),  # edge probability
    edit_ops,
)


def draw_graph(seed, n, dim, p):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    feats = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, size=(n, 1))
    return build_graph(edges, feats, np.zeros(n, dtype=np.int64)), rng


def assert_trials_match_oracle(state, rng):
    """Every edge and feature trial on one state equals the per-node oracle."""
    g, h = state.graph, state.values
    for i, j in g.edge_array():
        i, j = int(i), int(j)
        for a, b in ((i, j), (j, i)):
            assert np.array_equal(
                homophily_after_edge_removal(state, a, b),
                oracle.homophily_after_edge_removal(g, h, a, b),
            )
    for node in range(g.num_nodes):
        dim = int(rng.integers(g.feature_dim))
        value = -3.0 * g.features[node, dim]
        assert np.array_equal(
            homophily_after_feature_change(state, node, dim, value),
            oracle_feature_change(g, h, node, dim, value),
        )


class TestTrialsMatchOracle:
    """The trials equal the per-node oracle bit for bit."""

    @given(graph_cases)
    @settings(max_examples=60, deadline=None)
    def test_every_edge_and_feature_trial(self, case):
        # One state per graph version serves every candidate;
        # a state outlives copies of its graph, but not an edit.
        seed, n, dim, p, ops = case
        g0, rng = draw_graph(seed, n, dim, p)
        states = []
        for g in random_edit_script(g0, ops):
            for st in states:
                if st.stale:
                    with pytest.raises(StaleStateError):
                        homophily_after_feature_change(st, 0, 0, st.graph.features[0, 0] + 1.0)
                    with pytest.raises(StaleStateError):
                        homophily_after_edge_removal(st, 0, 1)
                else:
                    assert_trials_match_oracle(st, rng)
            states = [StealthState(g, homophily_values(g))]
            assert_trials_match_oracle(states[-1], rng)

    def test_state_after_flip_edit(self):
        g, rng = draw_graph(3, 8, 3, 0.5)
        st = StealthState(g, homophily_values(g))
        g.set_feature(2, 1, -g.features[2, 1])
        assert st.stale
        with pytest.raises(StaleStateError):
            homophily_after_feature_change(st, 2, 1, 3.0 * g.features[2, 1])
        assert_trials_match_oracle(StealthState(g, homophily_values(g)), rng)

    @given(graph_cases, st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_state_advanced_by_moves(self, case, moves):
        # A state that applies each move itself stays equal to one built
        # fresh on the edited graph, its distance to that of its vector, and
        # its trials to the oracle.
        seed, n, dim, p, ops = case
        g0, rng = draw_graph(seed, n, dim, p)
        for g in random_edit_script(g0, ops):
            pass
        h = homophily_values(g)
        g_run = g.copy()
        state = StealthState(g_run, h)
        for is_edge, k in moves:
            if is_edge and g_run.num_edges:
                i, j = (int(v) for v in g_run.edge_array()[k % g_run.num_edges])
                state.remove_edge(i, j, homophily_after_edge_removal(state, i, j))
            else:
                node, d = k % n, k % dim
                value = -3.0 * g_run.features[node, d]
                trial = homophily_after_feature_change(state, node, d, value)
                state.set_feature(node, d, value, trial)
            assert not state.stale
            fresh = StealthState(g_run, state.values, h)
            for name in ("weights", "rows", "own_sq", "dist"):
                assert np.array_equal(getattr(state, name), getattr(fresh, name)), name
            assert state.dist == distribution_distance(h, state.values)
            assert_trials_match_oracle(state, rng)
        np.testing.assert_allclose(state.values, homophily_values(g_run), rtol=1e-10)
        g_run.set_feature(0, 0, 1.0)
        with pytest.raises(StaleStateError):
            state.set_feature(0, 0, 2.0, state.values)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_cached_block_follows_moves(self, dim):
        # The feature trial keeps the last node's block; a move touching that
        # node or a neighbor must not leave it stale.
        g, _ = draw_graph(5, 8, dim, 0.6)
        state = StealthState(g, homophily_values(g))
        u = int(np.argmax(g.degrees()))
        v = int(g.neighbors(u)[0])

        def check(node):
            value = -2.0 * g.features[node, dim - 1]
            got = homophily_after_feature_change(state, node, dim - 1, value)
            assert np.array_equal(
                got, oracle_feature_change(g, state.values, node, dim - 1, value)
            )

        check(u)
        value = -3.0 * g.features[u, 0]
        state.set_feature(u, 0, value, homophily_after_feature_change(state, u, 0, value))
        check(u)
        state.set_feature(v, 0, 5.0, homophily_after_feature_change(state, v, 0, 5.0))
        check(u)
        state.remove_edge(u, v, homophily_after_edge_removal(state, u, v))
        check(u)

    def test_advance_rejects_missing_edge(self):
        g = graph_with_features(3, [(0, 1)], np.eye(3))
        st_ = StealthState(g, homophily_values(g))
        with pytest.raises(ValueError):
            st_.remove_edge(0, 2, st_.values)
        assert not st_.stale and g.num_edges == 1

    def test_state_memory_grows_with_edges_not_max_degree(self):
        # A star with wide features: padding every node to the hub's degree
        # would hold n * (n - 1) * d floats (about 41 MB here).
        n, dim = 200, 128
        feats = np.random.default_rng(0).standard_normal((n, dim))
        g = graph_with_features(n, [(0, v) for v in range(1, n)], feats)
        h = homophily_values(g)
        state = StealthState(g, h)
        held = sum(v.nbytes for v in vars(state).values() if isinstance(v, np.ndarray))
        assert held < 3 * g.features.nbytes
        for i, j in ((0, 1), (0, n - 1)):
            assert np.array_equal(
                homophily_after_edge_removal(state, i, j),
                oracle.homophily_after_edge_removal(g, h, i, j),
            )
        for node in (0, 5):
            value = -g.features[node, dim - 1]
            assert np.array_equal(
                homophily_after_feature_change(state, node, dim - 1, value),
                oracle_feature_change(g, h, node, dim - 1, value),
            )

    @pytest.mark.parametrize("dim", [1, 3])
    def test_endpoint_left_isolated(self, dim):
        # Path 0-1-2 plus 3-4: removing (0, 1) isolates 0, removing (3, 4)
        # isolates both endpoints.
        feats = np.arange(5 * dim, dtype=float).reshape(5, dim) - 4.5
        g = graph_with_features(5, [(0, 1), (1, 2), (3, 4)], feats)
        h = homophily_values(g)
        st = StealthState(g, h)
        for i, j in ((0, 1), (3, 4)):
            got = homophily_after_edge_removal(st, i, j)
            assert np.array_equal(got, oracle.homophily_after_edge_removal(g, h, i, j))
            assert got[i] == np.sqrt((feats[i] ** 2).sum())

    def test_missing_edge_rejected(self):
        g = graph_with_features(3, [(0, 1)], np.eye(3))
        st = StealthState(g, homophily_values(g))
        for i, j in ((0, 2), (1, 1)):
            with pytest.raises(ValueError):
                homophily_after_edge_removal(st, i, j)

    def test_distance_uses_sorted_clean(self):
        g = generate_sbm(4, [10, 10], 0.3, 0.1, feature_dim=3, noise=0.3)
        clean = homophily_values(g)
        trial = clean * np.linspace(0.5, 1.5, len(clean))
        st = StealthState(g, trial, clean)
        assert st.distance(trial) == distribution_distance(clean, trial)


def flip_candidates(g):
    """Every edge removal, both ways round, and one sign-rule flip of every
    feature entry (negated or tripled), as the attack asks for them."""
    edges = [("edge", int(a), int(b)) for i, j in g.edge_array() for a, b in ((i, j), (j, i))]
    flips = [
        ("feature", node, dim, g.features[node, dim] * (-1.0 if (node + dim) % 2 else 3.0))
        for node in range(g.num_nodes)
        for dim in range(g.feature_dim)
    ]
    return edges + flips


def ask(state, cand):
    kind, *move = cand
    if kind == "edge":
        return homophily_after_edge_removal(state, *move)
    return homophily_after_feature_change(state, *move)


def ask_oracle(g, values, cand):
    kind, *move = cand
    if kind == "edge":
        return oracle.homophily_after_edge_removal(g, values, *move)
    return oracle_feature_change(g, values, *move)


@pytest.fixture
def recomputes(monkeypatch):
    """The number of trials recomputed so far, as a one-item list."""
    count = [0]
    real = StealthState._remember

    def counted(self, keys, *args):
        count[0] += len(keys)
        return real(self, keys, *args)

    monkeypatch.setattr(StealthState, "_remember", counted)
    return count


class TestRememberedTrials:
    """Trials held between moves equal the per-node oracle, and a move drops
    every trial held."""

    @given(graph_cases, st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_every_candidate_before_and_after_each_move(self, case, moves):
        seed, n, dim, p, ops = case
        g0, _ = draw_graph(seed, n, dim, p)
        for g in random_edit_script(g0, ops):
            pass
        g = g.copy()
        state = StealthState(g, homophily_values(g))
        for is_edge, k in [*moves, (None, 0)]:
            for cand in flip_candidates(g):
                if cand[0] == "edge" and not g.has_edge(cand[1], cand[2]):
                    continue
                assert np.array_equal(ask(state, cand), ask_oracle(g, state.values, cand))
            if is_edge is None:
                break
            if is_edge and g.num_edges:
                i, j = (int(v) for v in g.edge_array()[k % g.num_edges])
                state.remove_edge(i, j, homophily_after_edge_removal(state, i, j))
            else:
                node, d = k % n, k % dim
                value = -3.0 * g.features[node, d]
                state.set_feature(node, d, value,
                                  homophily_after_feature_change(state, node, d, value))

    @pytest.mark.parametrize("move", ["edge", "feature"])
    def test_move_leaves_no_trial_behind(self, recomputes, move):
        # Each trial is computed once while the graph stands; after a move
        # none is held, and each is computed again, equal to the oracle.
        g = generate_sbm(4, [10, 10], 0.3, 0.1, feature_dim=3, noise=0.3)
        state = StealthState(g, homophily_values(g))
        cands = flip_candidates(g)
        for _ in range(2):
            for cand in cands:
                ask(state, cand)
        assert recomputes[0] == len(cands) == len(state.memo)
        u = int(np.argmax(g.degrees()))
        v = int(g.neighbors(u)[0])
        if move == "edge":
            state.remove_edge(u, v, homophily_after_edge_removal(state, u, v))
            cands = [c for c in cands if c[0] == "feature" or {c[1], c[2]} != {u, v}]
        else:
            state.set_feature(u, 0, 5.0, homophily_after_feature_change(state, u, 0, 5.0))
        assert not state.memo
        before = recomputes[0]
        for cand in cands:
            assert np.array_equal(ask(state, cand), ask_oracle(g, state.values, cand))
        assert recomputes[0] - before == len(cands)


def batch_candidates(g, rng):
    """Every edge removal both ways round, and per node two entry moves, one
    by the sign rule (negated or tripled) and one to a fresh draw, as
    ``edge_trials`` and ``feature_trials`` take them."""
    pairs = [(int(a), int(b)) for i, j in g.edge_array() for a, b in ((i, j), (j, i))]
    nodes = np.repeat(np.arange(g.num_nodes), 2)
    dims = rng.integers(g.feature_dim, size=len(nodes))
    values = g.features[nodes, dims] * np.where(rng.random(len(nodes)) < 0.5, -1.0, 3.0)
    values[1::2] = rng.standard_normal(g.num_nodes)
    return pairs, nodes, dims, values


def oracle_of(state, key):
    """The oracle's trial vector for a memo key: a feature move
    ``(node, dim, value)`` or an edge removal ``(i, j)``."""
    if len(key) == 3:
        return oracle_feature_change(state.graph, state.values, *key)
    return oracle.homophily_after_edge_removal(state.graph, state.values, *key)


def assert_batch_remembered(state, pairs, nodes, dims, values):
    """Every trial the state holds equals the oracle's, and every candidate
    of the batch is held."""
    for key in state.memo:
        assert np.array_equal(state.recall(key), oracle_of(state, key)), key
    for key in [*pairs, *zip(nodes.tolist(), dims.tolist(), values.tolist())]:
        assert state.recall(key) is not None


def apply_move(state, is_edge, k):
    g = state.graph
    if is_edge and g.num_edges:
        i, j = (int(v) for v in g.edge_array()[k % g.num_edges])
        state.remove_edge(i, j, homophily_after_edge_removal(state, i, j))
    else:
        node, d = k % g.num_nodes, k % g.feature_dim
        value = -3.0 * g.features[node, d]
        state.set_feature(node, d, value, homophily_after_feature_change(state, node, d, value))


move_lists = st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=4)
# 1 puts every block that gathers a row in a chunk of its own; the default
# holds these graphs whole.
chunk_floats = st.sampled_from([1, 8, 64, homophily._CHUNK_FLOATS])


class TestBatchedTrials:
    """The batched trial kernels hold trials equal to the per-node oracle
    bit for bit, however the candidates are chunked, and the bounds they
    return hold for the W1 penalties the attack computes."""

    @given(graph_cases, chunk_floats, move_lists)
    @settings(max_examples=60, deadline=None)
    def test_remembered_trials_equal_oracle(self, case, chunk, moves):
        # Each batch after a move is computed on the moved graph.
        seed, n, dim, p, ops = case
        g0, rng = draw_graph(seed, n, dim, p)
        for g in random_edit_script(g0, ops):
            pass
        state = StealthState(g.copy(), homophily_values(g))
        with mock.patch.object(homophily, "_CHUNK_FLOATS", chunk):
            for is_edge, k in [*moves, (None, 0)]:
                batch = batch_candidates(state.graph, rng)
                state.edge_trials(batch[0])
                state.feature_trials(*batch[1:])
                assert_batch_remembered(state, *batch)
                if is_edge is None:
                    break
                apply_move(state, is_edge, k)

    @pytest.mark.parametrize("chunk", [1, homophily._CHUNK_FLOATS])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_degree_one_endpoints_and_isolated_nodes(self, chunk, dim):
        # Path 0-1-2, edge 3-4, node 5 isolated: removals leave endpoints
        # isolated, and a feature trial of node 5 has a block of one.
        feats = np.arange(6 * dim, dtype=float).reshape(6, dim) - 7.5
        g = graph_with_features(6, [(0, 1), (1, 2), (3, 4)], feats)
        state = StealthState(g, homophily_values(g))
        batch = batch_candidates(g, np.random.default_rng(0))
        with mock.patch.object(homophily, "_CHUNK_FLOATS", chunk):
            state.edge_trials(batch[0])
            state.feature_trials(*batch[1:])
        assert_batch_remembered(state, *batch)

    @pytest.mark.parametrize("chunk", [1, 8, 64, homophily._CHUNK_FLOATS])
    def test_chunks_are_whole_blocks_within_bound(self, chunk):
        # Chunks run over the blocks in order, and each gathers fewer than
        # _CHUNK_FLOATS floats plus those of its last block.
        g = generate_sbm(4, [20, 20], 0.3, 0.1, feature_dim=3, noise=0.3)
        state = StealthState(g, homophily_values(g))
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 5, size=30)
        first = np.cumsum(sizes) - sizes
        nodes = rng.integers(g.num_nodes, size=sizes.sum())
        cost = [n * g.degrees(nodes[a : a + n]).max() * 3 for a, n in zip(first, sizes)]
        with mock.patch.object(homophily, "_CHUNK_FLOATS", chunk):
            chunks = list(state._chunks(nodes, first))
        assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
        assert chunks[0].start == 0 and chunks[-1].stop == len(nodes)
        for c in chunks:
            blocks = np.flatnonzero((first >= c.start) & (first < c.stop))
            assert first[blocks[0]] == c.start
            assert sum(cost[k] for k in blocks) < chunk + cost[blocks[-1]]

    def test_missing_edge_in_batch_remembers_nothing(self):
        g = graph_with_features(3, [(0, 1)], np.eye(3))
        state = StealthState(g, homophily_values(g))
        with pytest.raises(ValueError, match=r"edge \(1, 2\) not present"):
            state.edge_trials([(0, 1), (1, 2)])
        assert not state.memo

    def test_empty_batches_remember_nothing(self):
        # No pairs and no moves give empty bounds; a move to the entry's own
        # value raises, alone or in a batch, and no trial is held.
        g = generate_sbm(4, [10, 10], 0.3, 0.1, feature_dim=3, noise=0.3)
        state = StealthState(g, homophily_values(g))
        assert len(state.edge_trials([])) == 0
        assert len(state.feature_trials([], [], [])) == 0
        with pytest.raises(ValueError, match=r"feature \(3, 2\) already holds"):
            state.feature_trials([0, 3], [1, 2], [g.features[0, 1] + 1.0, g.features[3, 2]])
        with pytest.raises(ValueError, match=r"feature \(0, 1\) already holds"):
            homophily_after_feature_change(state, 0, 1, float(g.features[0, 1]))
        assert not state.memo

    @given(graph_cases, move_lists)
    @settings(max_examples=60, deadline=None)
    def test_bounds_hold(self, case, moves):
        seed, n, dim, p, ops = case
        g0, rng = draw_graph(seed, n, dim, p)
        for g in random_edit_script(g0, ops):
            pass
        state = StealthState(g.copy(), homophily_values(g))
        for is_edge, k in moves:
            apply_move(state, is_edge, k)
        pairs, nodes, dims, values = batch_candidates(state.graph, rng)
        moves = zip(nodes.tolist(), dims.tolist(), values.tolist())
        trials = [homophily_after_edge_removal(state, *key) for key in pairs]
        trials += [homophily_after_feature_change(state, *move) for move in moves]
        bounds = np.concatenate(
            [state.edge_trials(pairs), state.feature_trials(nodes, dims, values)]
        )
        for lam in (0.3, 1.0, 5.0):
            for trial, bound in zip(trials, bounds.tolist()):
                assert abs(lam * (state.distance(trial) - state.dist)) <= lam * bound


class TestDistributionDistance:
    def test_identity(self):
        v = np.array([0.3, 1.2, 2.0])
        assert distribution_distance(v, v) == 0.0

    def test_two_point_closed_form(self):
        p, q = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        assert distribution_distance(p, q) == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, pairs):
        pa, pb = np.array(pairs).T
        d1 = distribution_distance(pa, pb)
        d2 = distribution_distance(pb, pa)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert d1 >= 0.0

    @given(
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_w1_triangle_inequality(self, a, b, c):
        pa, pb, pc = np.array(a), np.array(b), np.array(c)
        dab = distribution_distance(pa, pb)
        dbc = distribution_distance(pb, pc)
        dac = distribution_distance(pa, pc)
        assert dac <= dab + dbc + 1e-12

    def test_empty_rejected(self):
        for p, q in (([], [1.0]), ([], [])):
            with pytest.raises(ValueError):
                distribution_distance(np.array(p), np.array(q))

    def test_unequal_sizes(self):
        # Both vectors are one graph's, one entry per node; vectors of two
        # sizes are a caller's mistake.
        with pytest.raises(ValueError, match="equal length"):
            distribution_distance(np.array([0.0]), np.array([0.0, 1.0]))


def test_histogram_csv(tmp_path):
    g = generate_sbm(4, [10, 10], 0.3, 0.05, feature_dim=3, noise=0.3)
    gp = g.copy()
    gp.features[0] *= 3.0
    out = tmp_path / "hist.csv"
    clean, perturbed = homophily_values(g), homophily_values(gp)
    write_histogram_csv(clean, perturbed, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count_clean,count_perturbed"
    assert len(lines) == 33  # header + 32 bins
    total_clean = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total_clean == g.num_nodes
    # Both edge columns are plain numbers that round-trip the shared edges.
    edges = np.histogram_bin_edges(np.concatenate([clean, perturbed]), bins=32)
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == edges[:-1].tolist()
    assert [float(r[1]) for r in rows] == edges[1:].tolist()
