import importlib.util
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graph_oracle
from conftest import edit_ops, random_edit_script, scipy_csr
from distpoison import graph
from distpoison.graph import (
    GraphError,
    build_graph,
    generate_sbm,
    normalize_adjacency,
    partition_nodes,
    sample_1hop,
)


def make_graph(num_nodes, edges, feature_dim=2):
    feats = np.zeros((num_nodes, feature_dim))
    labels = np.zeros(num_nodes, dtype=np.int64)
    return build_graph(edges, feats, labels)


def dense_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    for i, j in g.edge_array():
        a[i, j] = a[j, i] = 1.0
    return a


def dense_normalized(g):
    # Independent dense construction of the self-looped normalization.
    a = dense_adjacency(g) + np.eye(g.num_nodes)
    d = a.sum(axis=1)
    dinv = np.diag(1.0 / np.sqrt(d))
    return dinv @ a @ dinv


class TestBuildGraph:
    def test_symmetrization(self):
        g = make_graph(2, [(0, 1)])
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0]
        assert g.num_edges == 1

    def test_dedup_and_self_loop_drop(self):
        with pytest.warns(UserWarning):
            g = make_graph(3, [(0, 1), (1, 0), (2, 2)])
        assert g.num_edges == 1
        assert g.dropped_self_loops == 1
        assert not g.has_edge(2, 2)

    def test_out_of_range_edge(self):
        with pytest.raises(GraphError):
            make_graph(3, [(0, 5)])

    def test_duplicate_split_node(self):
        feats = np.zeros((3, 2))
        labels = np.zeros(3, dtype=np.int64)
        with pytest.raises(GraphError):
            build_graph([(0, 1)], feats, labels, splits=([0], [0], []))

    def test_empty_node_set(self):
        with pytest.raises(GraphError):
            build_graph([], np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_negative_label_names_first_node(self):
        with pytest.raises(GraphError, match="node 1 has negative label -1"):
            build_graph([(0, 1)], np.zeros((4, 2)), [0, -1, 1, -2])

    def test_edges_not_pairs(self):
        with pytest.raises(GraphError, match="pairs"):
            make_graph(3, [(0, 1, 2)])


def _build_outcome(build, *args):
    """What ``build(*args)`` gives: the graph or the GraphError message, and
    the messages of the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(*args)
        except GraphError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@st.composite
def build_inputs(draw):
    """Edge lists with duplicates, reversed pairs, self-loops and the odd id
    out of range, and splits that either partition the nodes or are drawn
    freely, so that they overlap, repeat or leave the range."""
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    edge_id = st.one_of(node, node, node, node, st.integers(-2, n + 1))
    edges = draw(st.lists(st.tuples(edge_id, edge_id), max_size=24))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        a, b = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        splits = (perm[:a], perm[a:b], perm[b:])
    else:
        ids = st.lists(st.one_of(node, node, st.integers(-1, n)), max_size=n + 1)
        splits = (draw(ids), draw(ids), draw(ids))
    return n, edges, splits


class TestBuildGraphOracle:
    """The array build equals the per-edge loop build in graph, errors and warnings."""

    @given(build_inputs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_build(self, case, as_array):
        n, edges, splits = case
        if as_array:
            edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        features = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
        labels = np.arange(n) % 3
        got, got_warned = _build_outcome(build_graph, edges, features, labels, splits)
        want, want_warned = _build_outcome(graph_oracle.build_graph, edges, features, labels, splits)
        assert got_warned == want_warned
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        for name in ("indptr", "indices", "labels", "train_mask", "val_mask", "test_mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        np.testing.assert_array_equal(got.features, want.features)
        assert got.dropped_self_loops == want.dropped_self_loops
        assert got.num_edges == want.num_edges
        np.testing.assert_array_equal(got.degrees(), want.degrees())

    def test_empty_edge_list(self):
        for edges in ([], np.empty((0, 2), dtype=np.int64)):
            got = build_graph(edges, np.ones((3, 2)), [0, 1, 0], ([0], [1], [2]))
            want = graph_oracle.build_graph(edges, np.ones((3, 2)), [0, 1, 0], ([0], [1], [2]))
            np.testing.assert_array_equal(got.indptr, want.indptr)
            assert got.indices.dtype == want.indices.dtype and len(got.indices) == 0
            assert got.num_edges == 0


class TestNormalizeAdjacency:
    def test_single_node(self):
        g = make_graph(1, [])
        adj = normalize_adjacency(g)
        np.testing.assert_allclose(scipy_csr(adj.matrix).toarray(), [[1.0]])

    def test_two_nodes_one_edge(self):
        # Hand oracle: self-looped degrees (2, 2) so every entry is 0.5.
        g = make_graph(2, [(0, 1)])
        adj = normalize_adjacency(g)
        np.testing.assert_allclose(scipy_csr(adj.matrix).toarray(), [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(adj.degrees, [2.0, 2.0])

    def test_star_center_diagonal(self):
        g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        adj = normalize_adjacency(g)
        assert scipy_csr(adj.matrix)[0, 0] == pytest.approx(1.0 / 5.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 33)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = make_graph(n, edges)
        adj = normalize_adjacency(g)
        ref = dense_normalized(g)
        np.testing.assert_allclose(scipy_csr(adj.matrix).toarray(), ref, atol=1e-14)
        # support iff (i == j or edge present)
        got = scipy_csr(adj.matrix).toarray() > 0
        want = (dense_adjacency(g) + np.eye(n)) > 0
        assert np.array_equal(got, want)


class TestPartition:
    def test_round_robin(self):
        g = make_graph(8, [(0, 1)])
        part = partition_nodes(g, 4, "round_robin")
        assert [sorted(part.share(w)) for w in range(4)] == [
            [0, 4],
            [1, 5],
            [2, 6],
            [3, 7],
        ]

    def test_single_worker(self):
        g = make_graph(5, [(0, 1)])
        part = partition_nodes(g, 1)
        assert np.all(part.assignment == 0)

    def test_path_cross_edges(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        part = partition_nodes(g, 2, "round_robin")
        # Enumeration oracle: count endpoint-assignment mismatches directly.
        want = sum(
            1 for i, j in g.edge_array() if part.assignment[i] != part.assignment[j]
        )
        assert want == 3

    @pytest.mark.parametrize("strategy", ["round_robin", "hash", "random"])
    @pytest.mark.parametrize("seed", range(5))
    def test_totality(self, strategy, seed):
        g = make_graph(17, [(0, 1)])
        part = partition_nodes(g, 3, strategy, seed=seed)
        counts = np.bincount(part.assignment, minlength=3)
        assert counts.sum() == 17

    def test_invalid_worker_count(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            partition_nodes(g, 0)


class TestSample1Hop:
    def test_isolated_target(self):
        g = make_graph(3, [(1, 2)])
        sub = sample_1hop(g, 0)
        assert list(sub.node_ids) == [0]
        assert len(sub.edges) == 0

    def test_star_center(self):
        g = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        sub = sample_1hop(g, 0)
        assert sorted(sub.node_ids) == [0, 1, 2, 3, 4]

    def test_path_induced_edges(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = sample_1hop(g, 1)
        assert sorted(sub.node_ids) == [0, 1, 2]
        got = {tuple(sorted(sub.node_ids[[i, j]].tolist())) for i, j in sub.edges}
        assert got == {(0, 1), (1, 2)}  # 2-3 excluded, 0 and 2 not adjacent

    @pytest.mark.parametrize("seed", range(20))
    def test_node_set_equals_target_plus_neighbors(self, seed):
        g = generate_sbm(seed, [6, 6], 0.4, 0.1, feature_dim=2, noise=0.1)
        for t in range(g.num_nodes):
            sub = sample_1hop(g, t)
            assert set(sub.node_ids) == {t} | set(int(v) for v in g.neighbors(t))

    def test_reflects_edge_removal(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        g.remove_edge(1, 2)
        sub = sample_1hop(g, 1)
        assert sorted(sub.node_ids) == [0, 1]

    def test_invalid_target(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            sample_1hop(g, 7)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 0.9), edit_ops)
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_walk(self, seed, n, p, ops):
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g0 = build_graph(edges, rng.standard_normal((n, 2)), rng.integers(0, 3, size=n))
        for g in random_edit_script(g0, ops):
            for t in range(n):
                got, want = sample_1hop(g, t), graph_oracle.sample_1hop(g, t)
                for name in ("node_ids", "edges", "features", "labels"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert np.array_equal(a, b), name

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 0.9), edit_ops)
    @settings(max_examples=60, deadline=None)
    def test_edges_in_edge_list_order(self, seed, n, p, ops):
        # The subgraph is the graph build_graph makes of its own edges, and
        # per-edge subgraph gradients, which follow the normalized subgraph's
        # edge_list(), are read against sub.edges.
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        edges = [(i, j) for i, j in edges if 0 not in (i, j)]  # node 0 is isolated
        g0 = build_graph(edges, rng.standard_normal((n, 2)), rng.integers(0, 3, size=n))
        for g in random_edit_script(g0, ops):
            for t in range(n):
                sub = sample_1hop(g, t)
                want = build_graph(sub.edges, sub.features, sub.labels)
                for name in ("indptr", "indices", "features", "labels"):
                    a, b = getattr(sub, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
                assert sub.num_nodes == want.num_nodes
                assert not (sub.train_mask | sub.val_mask | sub.test_mask).any()
                listed = normalize_adjacency(sub).edge_list()
                assert sub.edges.shape == listed.shape
                assert np.array_equal(sub.edges, listed)


class TestMutation:
    def test_remove_and_add(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert g.num_edges == 2
        g.add_edge(0, 3)
        assert g.has_edge(3, 0)
        assert g.num_edges == 3

    def test_remove_missing_edge(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.remove_edge(0, 2)

    def test_add_existing_edge(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.add_edge(1, 0)

    def test_copy_is_independent(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        h = g.copy()
        h.remove_edge(0, 1)
        h.set_feature(0, 0, 9.0)
        assert g.has_edge(0, 1)
        assert g.features[0, 0] == 0.0


class TestDegreeCache:
    """Degrees read from the row pointer equal a recount of the edge list."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), edit_ops)
    @settings(max_examples=80, deadline=None)
    def test_degrees_equal_recount(self, seed, n, ops):
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        for g in random_edit_script(make_graph(n, edges), ops):
            recount = np.bincount(g.edge_array().ravel(), minlength=n)
            np.testing.assert_array_equal(g.degrees(), recount)
            assert [g.degree(i) for i in range(n)] == recount.tolist()
            indptr, indices = g.indptr, g.indices
            np.testing.assert_array_equal(np.diff(indptr), recount)
            for i in range(n):
                np.testing.assert_array_equal(indices[indptr[i] : indptr[i + 1]], g.neighbors(i))

    def test_degrees_returns_a_copy(self):
        g = make_graph(3, [(0, 1)])
        g.degrees()[0] = 7
        assert g.degree(0) == 1

    def test_edit_counter(self):
        # Every edited edge and feature counts.
        g = make_graph(4, [(0, 1), (1, 2)])
        assert g.edits == 0
        g.remove_edge(0, 1)
        g.add_edge(0, 3)
        g.set_feature(2, 1, 5.0)
        assert g.edits == 3
        h = g.copy()
        assert g.edits == h.edits == 3
        h.remove_edge(0, 3)
        assert (g.edits, h.edits) == (3, 4)

    def test_copy_keeps_its_own_degrees(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        h = g.copy()
        h.remove_edge(0, 1)
        assert g.degrees().tolist() == [1, 2, 1]
        assert h.degrees().tolist() == [0, 1, 1]


def assert_same_structure(g, h):
    """``g`` and ``h`` hold the same adjacency, dtypes included."""
    for a, b in ((g.indptr, h.indptr), (g.indices, h.indices)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in ((g.degrees(), h.degrees()), (g.edge_array(), h.edge_array())):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert g.num_edges == h.num_edges
    for i in range(g.num_nodes):
        for j in range(g.num_nodes):
            assert g.has_edge(i, j) == h.has_edge(i, j)


class TestEditScripts:
    """Edited graphs against fresh builds of the same edge set."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        ops=st.lists(
            st.tuples(st.sampled_from(["remove", "add", "add", "copy"]), st.integers(0, 10**6)),
            max_size=40,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_edits_equal_fresh_build(self, seed, n, ops):
        # Views of the CSR arrays and of every row, taken before an edit, and
        # a copy made before it, read the same after it.
        rng = np.random.default_rng(seed)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        g = make_graph(n, sorted(edges))
        for op, k in ops:
            if op == "copy":
                g = g.copy()
                assert_same_structure(g, make_graph(n, sorted(edges)))
                continue
            old, before = set(edges), g.copy()
            views = [g.indptr, g.indices, *(g.neighbors(i) for i in range(n))]
            saved = [v.copy() for v in views]
            edits = g.edits
            if op == "remove" and edges:
                i, j = sorted(edges)[k % len(edges)]
                g.remove_edge(i, j) if k % 2 else g.remove_edge(j, i)
                edges.remove((i, j))
            elif op == "add":
                absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
                if absent:
                    i, j = absent[k % len(absent)]
                    g.add_edge(i, j) if k % 2 else g.add_edge(j, i)
                    edges.add((i, j))
            assert g.edits - edits == len(edges ^ old)
            for v, w in zip(views, saved):
                assert np.array_equal(v, w)
            assert_same_structure(before, make_graph(n, sorted(old)))
            assert_same_structure(g, make_graph(n, sorted(edges)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_single_edits(self, seed, n, data):
        # Removals first, then additions; a removed edge may come back.
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = make_graph(n, edges)
        removed = data.draw(st.lists(st.sampled_from(edges), unique=True), "removed") if edges else []
        absent = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if (i, j) not in edges or (i, j) in removed]
        added = data.draw(st.lists(st.sampled_from(absent), unique=True), "added") if absent else []
        removed = [(j, i) if data.draw(st.booleans()) else (i, j) for i, j in removed]
        added = [(j, i) if data.draw(st.booleans()) else (i, j) for i, j in added]
        one = g.copy()
        for i, j in removed:
            one.remove_edge(i, j)
        for i, j in added:
            one.add_edge(i, j)
        batch = g.copy()
        batch.edit(removed=removed, added=added)
        assert_same_structure(batch, one)
        assert batch.edits == one.edits == len(removed) + len(added)
        assert_same_structure(g, make_graph(n, edges))


class TestEditChecks:
    """``edit`` checks every edge before it changes anything."""

    # On the path 0-1-2-3 plus the isolated node 4. Each case puts a good
    # edge before the first bad one and another bad one after it.
    CASES = {
        "absent_removal": ([(0, 1), (2, 0), (4, 4)], [(1, 1)], "edge (2, 0) not present"),
        "repeated_removal": ([(1, 2), (0, 1), (2, 1)], [(0, 0)], "edge (2, 1) not present"),
        "removal_out_of_range": ([(0, 1), (-1, 2), (0, 2)], [], "node id out of range in edge (-1, 2)"),
        "existing_addition": ([(0, 1)], [(1, 0), (0, 4), (3, 2), (5, 0)], "edge (3, 2) already present"),
        "repeated_addition": ([], [(0, 4), (4, 0), (1, 1)], "edge (4, 0) already present"),
        "self_loop": ([(2, 3)], [(0, 4), (3, 3), (1, 2)], "self-loops are not storable: edge (3, 3)"),
        "addition_out_of_range": ([(0, 1)], [(1, 4), (4, 5), (2, 2)], "node id out of range in edge (4, 5)"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_first_bad_edge_raises_and_nothing_changes(self, case):
        removed, added, message = self.CASES[case]
        g = make_graph(5, [(0, 1), (1, 2), (2, 3)])
        g.set_feature(0, 0, 1.0)
        indptr, indices = g.indptr, g.indices
        saved = indptr.copy(), indices.copy()
        with pytest.raises(GraphError) as err:
            g.edit(removed=removed, added=added)
        assert str(err.value) == message
        assert g.indptr is indptr and g.indices is indices and g.edits == 1
        assert np.array_equal(indptr, saved[0]) and np.array_equal(indices, saved[1])


class TestNormalizeAdjacencyOracle:
    """The CSR built from the graph's rows equals the COO build bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 0.9), edit_ops)
    @settings(max_examples=80, deadline=None)
    def test_arrays_equal_coo_build(self, seed, n, p, ops):
        # Low edge probabilities leave isolated nodes; the edit script
        # rebuilds the arrays and copies the graph across its edits.
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g0 = build_graph(edges, rng.standard_normal((n, 2)), np.zeros(n, dtype=np.int64))
        for g in random_edit_script(g0, ops):
            got = normalize_adjacency(g)
            want = graph_oracle.normalize_adjacency(g)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got.matrix, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            m = got.matrix
            for r in range(g.num_nodes):
                assert (np.diff(m.indices[m.indptr[r] : m.indptr[r + 1]]) > 0).all(), r
            np.testing.assert_array_equal(got.degrees, g.degrees() + 1.0)


def random_csr(rng, n_rows, n_cols, density):
    """CSR arrays (int64 indices, each row's columns ascending) of a random
    n_rows x n_cols matrix. Entries span six decades, so a change in the
    order of any row's sums shows in its last bits."""
    rows, cols = np.nonzero(rng.random((n_rows, n_cols)) < density)
    data = rng.standard_normal(len(cols)) * 10.0 ** rng.uniform(-3, 3, len(cols))
    return np.searchsorted(rows, np.arange(n_rows + 1)), cols, data


def random_dense(rng, n_rows, width, layout):
    """A random (n_rows, width) matrix: C-ordered, Fortran-ordered or a
    strided view."""
    M = rng.standard_normal((n_rows, width)) * 10.0 ** rng.uniform(-3, 3, (n_rows, width))
    if layout == "F":
        return np.asfortranarray(M)
    if layout == "strided":
        return np.repeat(M, 2, axis=1)[:, ::2]
    return M


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


csr_cases = given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 12),
    n_cols=st.integers(1, 12),
    density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    width=st.integers(1, 17),
    layout=st.sampled_from(["C", "F", "strided"]),
    index=st.sampled_from([np.int32, np.int64]),
)


class TestCSRProduct:
    """``CSR @ M`` and ``graph.matvecs`` against scipy's products, byte for
    byte: scipy's ``A @ M`` and ``A.T @ M`` are the oracle."""

    @csr_cases
    @settings(max_examples=200, deadline=None)
    @example(seed=0, n_rows=1, n_cols=1, density=0.0, width=1, layout="C", index=np.int32)
    @example(seed=1, n_rows=1, n_cols=5, density=1.0, width=1, layout="F", index=np.int64)
    @example(seed=2, n_rows=7, n_cols=7, density=0.1, width=17, layout="strided", index=np.int32)
    def test_kernels_equal_scipy(self, seed, n_rows, n_cols, density, width, layout, index):
        rng = np.random.default_rng(seed)
        indptr, cols, data = random_csr(rng, n_rows, n_cols, density)
        M, MT = random_dense(rng, n_cols, width, layout), random_dense(rng, n_rows, width, layout)
        arrays = indptr.astype(index), cols.astype(index), data
        want = sp.csr_matrix((data, cols, indptr), shape=(n_rows, n_cols))
        # Read as CSR, the arrays are A; read as CSC, they are A.T.
        assert_same_bytes(graph.matvecs(graph.sparsetools.csr_matvecs, n_rows, arrays, M), want @ M)
        assert_same_bytes(graph.matvecs(graph.sparsetools.csc_matvecs, n_cols, arrays, MT), want.T @ MT)
        assert_same_bytes(graph.CSR(*arrays, (n_rows, n_cols)) @ M, want @ M)

    @csr_cases
    @settings(max_examples=100, deadline=None)
    def test_square_picks_scipys_index_dtype(self, seed, n_rows, n_cols, density, width, layout, index):
        rng = np.random.default_rng(seed)
        indptr, cols, data = random_csr(rng, n_rows, n_rows, density)
        M = random_dense(rng, n_rows, width, layout)
        got = graph.CSR.square(indptr.astype(index), cols.astype(index), data)
        want = sp.csr_matrix((data, cols, indptr), shape=(n_rows, n_rows))
        assert got.shape == want.shape and got.nnz == want.nnz
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert_same_bytes(got @ M, want @ M)

    def test_rejects_what_it_does_not_multiply(self):
        m = graph.CSR.square(np.array([0, 1, 2]), np.array([0, 1]), np.ones(2))
        for bad in (np.ones(2), np.ones((2, 1), dtype=np.int64), np.ones((3, 1)), [[1.0], [2.0]]):
            with pytest.raises(ValueError, match="2-D float64 M of 2 rows"):
                m @ bad

    def test_kernel_loaded_by_path_equals_scipy_import(self, monkeypatch):
        import importlib.util
        import sys
        from pathlib import Path

        import scipy.sparse as sp
        from scipy.sparse import _sparsetools as imported

        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        by_path = graph._load_sparsetools()
        assert by_path is not imported
        assert Path(by_path.__file__).parent == Path(sp.__file__).parent
        rng = np.random.default_rng(0)
        for density, width in [(0.0, 3), (0.3, 1), (0.5, 17), (1.0, 8)]:
            arrays, M = random_csr(rng, 9, 9, density), random_dense(rng, 9, width, "C")
            for kernel in ("csr_matvecs", "csc_matvecs"):
                assert_same_bytes(
                    graph.matvecs(getattr(by_path, kernel), 9, arrays, M),
                    graph.matvecs(getattr(imported, kernel), 9, arrays, M),
                )
        # Loaded under a name of its own, it leaves scipy's entry unset.
        assert "scipy.sparse._sparsetools" not in sys.modules
        # Without the file, the loader imports the same module.
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        assert graph._load_sparsetools() is imported


def assert_same_sbm(got, want):
    for name in ("indptr", "indices", "features", "labels", "train_mask", "val_mask", "test_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestGenerateSBM:
    def test_extreme_probabilities(self):
        g = generate_sbm(0, [3, 3], 1.0, 0.0, feature_dim=2, noise=0.0)
        cliques = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
        assert {tuple(e) for e in g.edge_array()} == cliques

    def test_zero_probabilities(self):
        g = generate_sbm(1, [4, 4], 0.0, 0.0, feature_dim=2, noise=0.1)
        assert g.num_edges == 0

    def test_determinism(self):
        g1 = generate_sbm(7, [10, 10], 0.3, 0.05, feature_dim=4, noise=0.2)
        g2 = generate_sbm(7, [10, 10], 0.3, 0.05, feature_dim=4, noise=0.2)
        assert np.array_equal(g1.edge_array(), g2.edge_array())
        assert np.array_equal(g1.features, g2.features)
        assert np.array_equal(g1.train_mask, g2.train_mask)

    def test_invalid_probability(self):
        with pytest.raises(GraphError):
            generate_sbm(0, [3], 1.5, 0.0, feature_dim=2, noise=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.lists(st.integers(1, 17), min_size=1, max_size=4),
        p_intra=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
        p_inter=st.sampled_from([0.0, 0.05, 0.3]),
        rows_per_draw=st.integers(1, 9),
    )
    def test_row_blocks_match_one_dense_draw(self, seed, blocks, p_intra, p_inter, rows_per_draw):
        # Uneven blocks, and buffers of 1-9 rows' worth of cells, so that
        # fills end mid-row and rarely divide the n(n-1)/2 upper cells.
        n = sum(blocks)
        args = (seed, blocks, p_intra, p_inter, len(blocks) + 1, 0.3)
        with mock.patch.object(graph, "_SBM_BLOCK_CELLS", rows_per_draw * n):
            assert_same_sbm(generate_sbm(*args), graph_oracle.generate_sbm(*args))

    @pytest.mark.parametrize(
        "blocks, p_intra, p_inter, cells",
        [
            ([1], 0.5, 0.5, None),  # n = 1: no upper cell, the stream still moves past n * n
            ([1, 1, 1, 1], 0.7, 0.7, None),  # one node per block: every pair is inter-block
            ([5, 1, 6], 1.0, 1.0, None),  # every cell an edge
            ([5, 1, 6], 0.0, 0.0, None),  # no cell an edge
            ([7, 9], 0.6, 0.2, 1),  # one cell per fill
            ([7, 9], 0.6, 0.2, 5),  # fills shorter than every row but the last few
            ([7, 9], 1.0, 0.0, 14),  # the first row (15 cells) spans two fills
        ],
    )
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_edge_cases_match_dense_draw(self, blocks, p_intra, p_inter, cells, seed):
        args = (seed, blocks, p_intra, p_inter, len(blocks), 0.3)
        with mock.patch.object(graph, "_SBM_BLOCK_CELLS", cells or graph._SBM_BLOCK_CELLS):
            assert_same_sbm(generate_sbm(*args), graph_oracle.generate_sbm(*args))

    def test_default_blocks_match_dense_draw(self):
        # 1,500 nodes hold 1,124,250 upper cells: two fills at the default
        # buffer size, the second short, and the first ends inside row 1,110.
        args = (7, [500, 700, 300], 0.01, 0.002, 4, 0.5)
        n = 1500
        row_starts = {i * n - i * (i + 1) // 2 for i in range(n)}
        assert graph._SBM_BLOCK_CELLS < n * (n - 1) // 2 < 2 * graph._SBM_BLOCK_CELLS
        assert graph._SBM_BLOCK_CELLS not in row_starts
        assert_same_sbm(generate_sbm(*args), graph_oracle.generate_sbm(*args))

    def test_peak_memory_bounded_by_buffer(self):
        # victim_n6400's dataset. Drawing all n x n uniforms in row blocks
        # peaked at about 26 MB traced; the upper cells through one buffer
        # peak at about 10 MB (numpy 2.4).
        tracemalloc.start()
        try:
            generate_sbm(12345, [1600] * 4, 0.003125, 0.0003125, feature_dim=8, noise=1.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * graph._SBM_BLOCK_CELLS * 8

    def test_masks_disjoint_and_stratified(self):
        g = generate_sbm(3, [10, 10, 10], 0.3, 0.02, feature_dim=4, noise=0.2)
        overlap = (
            g.train_mask.astype(int) + g.val_mask.astype(int) + g.test_mask.astype(int)
        )
        assert overlap.max() <= 1
        for b in range(3):
            assert np.any(g.train_mask & (g.labels == b))
