"""Sparse undirected graphs with features, labels, splits, and worker partitions.

The adjacency is stored as CSR (row pointer + sorted column array), and no
code writes those arrays in place: every edge edit goes through
``Graph.edit``, which checks all of its edges before it changes anything and
then builds new arrays. Copies, neighbor views and caches such as the
stealth state can therefore share the arrays, and a view taken before an
edit reads the same after it. Degrees and the edge count are read from the
row pointer, and an edit counter lets caches built from a graph tell whether
it has changed since.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import NamedTuple

import numpy as np

__all__ = [
    "CSR",
    "Graph",
    "NormalizedAdjacency",
    "Partition",
    "Subgraph",
    "build_graph",
    "normalize_adjacency",
    "partition_nodes",
    "sample_1hop",
    "generate_sbm",
]

# generate_sbm draws the upper triangle's uniforms into one buffer of this
# many cells (8 MB of float64), or of the whole triangle when that is smaller.
_SBM_BLOCK_CELLS = 1 << 20


def _load_sparsetools():
    """scipy's compiled sparse kernels, without importing ``scipy.sparse``.

    Only ``csr_matvecs``/``csc_matvecs`` are used, and importing the package
    costs about 0.2 s of start-up and 15 MB of memory (scipy 1.17, 2-core
    x86), most of it in ``scipy._lib``'s clone of the numpy namespace.
    ``find_spec`` locates scipy without importing it; the extension file
    under its ``sparse/`` directory is loaded by itself, under a name of
    this package's, so that a later ``import scipy.sparse`` still binds its
    own ``_sparsetools``. When scipy has loaded the module already, that
    one is used, and when the file is not there it is imported the usual
    way.
    """
    if "scipy.sparse._sparsetools" in sys.modules:
        return sys.modules["scipy.sparse._sparsetools"]
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or []) if spec else []:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                # The last name part picks the module's init function.
                name = "distpoison._sparsetools"
                loader = ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


sparsetools = _load_sparsetools()


def matvecs(kernel, n_out: int, arrays: tuple, M: np.ndarray) -> np.ndarray:
    """The sparse matrix held in ``arrays[:3]`` (pointers, indices, data)
    times the 2-D float64 M, into a zeroed (n_out, width) array by one call
    of ``sparsetools.csr_matvecs`` or ``csc_matvecs`` (the arrays read as
    CSR or as CSC): what scipy's ``A @ M`` runs."""
    out = np.zeros((n_out, M.shape[1]))
    kernel(n_out, len(M), M.shape[1], *arrays[:3], M.ravel(), out.ravel())
    return out


class CSR(NamedTuple):
    """A float64 sparse matrix in CSR form.

    ``scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)``
    is the same matrix as a scipy one.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def square(cls, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> "CSR":
        """The n x n matrix of the arrays, n = len(indptr) - 1, its index
        arrays int32 while n and the entry count fit: scipy's choice, so
        products run the same kernel instantiation."""
        n = len(indptr) - 1
        idx = np.int32 if max(n, len(data)) <= np.iinfo(np.int32).max else np.int64
        return cls(indptr.astype(idx, copy=False), indices.astype(idx, copy=False), data, (n, n))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, M: np.ndarray) -> np.ndarray:
        if not (isinstance(M, np.ndarray) and M.ndim == 2 and M.dtype == np.float64
                and len(M) == self.shape[1]):
            raise ValueError(f"CSR of shape {self.shape} @ M takes a 2-D float64 M of {self.shape[1]} rows")
        return matvecs(sparsetools.csr_matvecs, self.shape[0], self, M)


class GraphError(ValueError):
    """Invalid graph construction or mutation.

    ``source`` names the input at fault when a graph is built from data:
    "features" (the feature matrix or the labels), "edges" or "splits".
    """

    def __init__(self, message: str, source: str | None = None):
        super().__init__(message)
        self.source = source


class Graph:
    """Undirected graph: CSR adjacency, dense features, labels, split masks.

    The CSR arrays are replaced, never written, by ``edit`` and its one-edge
    forms ``remove_edge`` and ``add_edge``; ``set_feature`` writes one
    feature in place. Edits are meant to be driven by a single perturbation
    owner; concurrent readers are safe.
    """

    def __init__(
        self,
        num_nodes: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        test_mask: np.ndarray,
        dropped_self_loops: int = 0,
    ):
        self.num_nodes = int(num_nodes)
        self.indptr = indptr
        self.indices = indices
        self.features = features
        self.labels = labels
        self.train_mask = train_mask
        self.val_mask = val_mask
        self.test_mask = test_mask
        self.dropped_self_loops = dropped_self_loops
        # Bumped once per edge or feature edited.
        self.edits = 0

    # -- queries ---------------------------------------------------------

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.num_nodes else 0

    @property
    def num_edges(self) -> int:
        """Undirected edge count of the current (possibly perturbed) graph."""
        return len(self.indices) // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbors of ``i`` ascending: a view that later edits leave as it is."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self, nodes=None) -> np.ndarray:
        """Current degrees of every node, or of ``nodes``, as a fresh array."""
        if nodes is None:
            return np.diff(self.indptr)
        nodes = np.asarray(nodes)
        return self.indptr[nodes + 1] - self.indptr[nodes]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return bool(pos < len(row) and row[pos] == j)

    def edge_array(self) -> np.ndarray:
        """All current undirected edges as an (m, 2) array with i < j, ascending."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]])

    def adjacency_csr(self) -> CSR:
        """Raw adjacency A (no self-loops) as a CSR matrix of 1.0s."""
        return CSR.square(self.indptr, self.indices, np.ones(len(self.indices)))

    # -- mutation (perturbation owner only) --------------------------------

    def edit(self, removed=(), added=()) -> None:
        """Remove the edges ``removed``, then add the edges ``added``.

        Both are sequences of (i, j) pairs, in either orientation. The result
        equals removing and then adding them one at a time, so an edge removed
        here may be added back in the same call. Every edge is checked before
        anything changes: the first bad one in input order (a removal of an
        absent edge, an addition of a present one, a self-loop or an id out of
        range) raises ``GraphError`` and leaves the graph as it was. ``edits``
        goes up by one per edge.
        """
        n = self.num_nodes
        rem, add = _edge_pairs(removed), _edge_pairs(added)
        # Each CSR entry as its key row * n + col, ascending.
        keys = np.repeat(np.arange(n) * n, np.diff(self.indptr)) + self.indices

        # Either phase is skipped when empty: one-edge calls are the common case.
        if len(rem):
            rem_key = _undirected_keys(rem, n)
            bad = ~_contains(keys, rem_key) | _repeats(rem_key)
            if bad.any():
                k = int(np.argmax(bad))
                i, j = rem[k]
                if rem_key[k] < 0:
                    raise GraphError(f"node id out of range in edge ({i}, {j})")
                raise GraphError(f"edge ({i}, {j}) not present")
            keys = np.delete(keys, np.searchsorted(keys, _directed_keys(rem, n)))
        if len(add):
            add_key = _undirected_keys(add, n)
            loop = add[:, 0] == add[:, 1]
            bad = loop | (add_key < 0) | _contains(keys, add_key) | _repeats(add_key)
            if bad.any():
                k = int(np.argmax(bad))
                i, j = add[k]
                if loop[k]:
                    raise GraphError(f"self-loops are not storable: edge ({i}, {j})")
                if add_key[k] < 0:
                    raise GraphError(f"node id out of range in edge ({i}, {j})")
                raise GraphError(f"edge ({i}, {j}) already present")
            new = np.sort(_directed_keys(add, n))
            keys = np.insert(keys, np.searchsorted(keys, new), new)

        self.indptr, self.indices = _csr(keys, n)
        self.edits += len(rem) + len(add)

    def remove_edge(self, i: int, j: int) -> None:
        self.edit(removed=[(i, j)])

    def add_edge(self, i: int, j: int) -> None:
        self.edit(added=[(i, j)])

    def set_feature(self, node: int, dim: int, value: float) -> None:
        self.features[node, dim] = value
        self.edits += 1

    def copy(self) -> "Graph":
        """A graph that edits independently of this one; the CSR arrays, which
        no edit writes, are shared."""
        g = Graph.__new__(Graph)
        g.__dict__.update(self.__dict__)
        for name in ("features", "labels", "train_mask", "val_mask", "test_mask"):
            setattr(g, name, getattr(self, name).copy())
        return g


def _edge_pairs(edge_list, source: str | None = None) -> np.ndarray:
    """``edge_list`` as an (m, 2) int64 array, an empty list included."""
    e = np.asarray(edge_list, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphError(f"edge list must hold (i, j) pairs, got shape {e.shape}", source)
    return e


def _undirected_keys(e: np.ndarray, n: int) -> np.ndarray:
    """One key min * n + max per edge of ``e``; -1 where an id is out of range."""
    lo, hi = e.min(axis=1), e.max(axis=1)
    return np.where((lo < 0) | (hi >= n), -1, lo * n + hi)


def _directed_keys(e: np.ndarray, n: int) -> np.ndarray:
    """Both directed keys row * n + col of each edge of ``e``."""
    i, j = e[:, 0], e[:, 1]
    return np.concatenate([i * n + j, j * n + i])


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the ascending, distinct entry keys ``keys``,
    marked read-only: graphs and their copies share them."""
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    indices = keys % n
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` is in the ascending array ``sorted_keys``."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys if len(sorted_keys) else np.zeros(len(keys), dtype=bool)


def _repeats(ids: np.ndarray) -> np.ndarray:
    """Marks every entry of ``ids`` equal to an earlier one."""
    order = np.argsort(ids, kind="stable")
    rep = np.zeros(len(ids), dtype=bool)
    rep[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    return rep


def _distinct(ids) -> np.ndarray:
    """``np.unique(ids)`` by one sort. numpy 2.4's np.unique hashes when asked
    for the values alone: 219 µs against 18 µs for this sort on 1,920 ids
    (numpy 2.4.6, 2-core x86)."""
    s = np.sort(ids)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def build_graph(
    edge_list,
    features: np.ndarray,
    labels: np.ndarray,
    splits: tuple = ((), (), ()),
) -> Graph:
    """Build a Graph from an undirected edge list.

    ``edge_list`` is a sequence of (i, j) pairs or an (m, 2) array. Edges are
    symmetrized and deduplicated; self-loops are dropped (with a counter kept
    on the graph) because normalization adds them canonically. Features must
    be finite and labels nonnegative. ``splits`` is (train_ids, val_ids,
    test_ids); a node may appear in at most one split. Each error names the
    first offending edge, feature, label or split entry in input order.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise GraphError("features must be a nonempty (num_nodes, dim) matrix", "features")
    if not np.isfinite(features).all():
        node, col = np.argwhere(~np.isfinite(features))[0]
        raise GraphError(
            f"node {node} has non-finite feature {features[node, col]} in column {col}", "features"
        )
    n = features.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise GraphError(f"labels shape {labels.shape} does not match num_nodes={n}", "features")
    if labels.min() < 0:
        node = int(np.argmax(labels < 0))
        raise GraphError(f"node {node} has negative label {labels[node]}", "features")

    e = _edge_pairs(edge_list, "edges")
    if len(e) and (e.min() < 0 or e.max() >= n):
        i, j = e[np.argmax(((e < 0) | (e >= n)).any(axis=1))]
        raise GraphError(f"edge ({i}, {j}) references a node id >= {n}", "edges")
    loops = e[:, 0] == e[:, 1]
    dropped = int(np.count_nonzero(loops))
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s) from input edge list")
        e = e[~loops]

    masks = _split_masks(splits, n)

    # Sorted and deduplicated, the edges' directed keys are the CSR entries
    # in order.
    keys = _directed_keys(e, n)
    if len(keys):
        keys = _distinct(keys)
    return Graph(n, *_csr(keys, n), features, labels, *masks, dropped_self_loops=dropped)


def _split_masks(splits, n: int) -> list[np.ndarray]:
    """Boolean masks of the (train, val, test) id lists, checked for ids out of
    range and for ids listed twice, within a split or across splits."""
    masks = []
    taken = np.zeros(n, dtype=bool)
    for name, ids in zip(("train", "val", "test"), splits):
        mask = np.zeros(n, dtype=bool)
        if len(ids):
            ids = np.asarray(ids, dtype=np.int64).ravel()
            out = (ids < 0) | (ids >= n)
            bad = _repeats(ids) | out | taken[np.where(out, 0, ids)]
            if bad.any():
                k = int(np.argmax(bad))
                if out[k]:
                    raise GraphError(
                        f"{name} split references node id {ids[k]} out of range", "splits"
                    )
                raise GraphError(f"node {ids[k]} appears in more than one split", "splits")
            mask[ids] = True
            taken |= mask
        masks.append(mask)
    return masks


@dataclass
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops added.

    ``matrix[i, j] = 1/sqrt(deg_sl[i] * deg_sl[j])`` wherever the self-looped
    adjacency has an entry, where ``deg_sl = degree(A) + 1``.
    """

    matrix: CSR
    degrees: np.ndarray  # self-looped degree per node, float64

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of every stored entry, diagonal included."""
        m = self.matrix
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return rows, m.indices, m.data

    def edge_list(self) -> np.ndarray:
        """Off-diagonal support as canonical (i < j) undirected pairs."""
        rows, cols, _ = self.support()
        keep = rows < cols
        return np.column_stack([rows[keep], cols[keep]])


def normalize_adjacency(g: Graph) -> NormalizedAdjacency:
    """Degree-normalize ``g``'s adjacency with self-loops added.

    The CSR arrays come straight from the graph's sorted rows, each row's
    diagonal entry slotted in after its neighbors with smaller ids.
    """
    n = g.num_nodes
    deg_sl = g.degrees().astype(np.float64) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg_sl)
    indptr, cols = g.indptr, g.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    out_ptr = indptr + np.arange(n + 1)
    # Row r's entries move up by the r diagonals before it, and by one more
    # past its own diagonal.
    pos = np.arange(len(cols)) + rows + (cols > rows)
    diag = out_ptr[:-1] + np.bincount(rows[cols < rows], minlength=n)
    indices = np.empty(len(cols) + n, dtype=np.int64)
    data = np.empty(len(cols) + n)
    indices[pos] = cols
    data[pos] = inv_sqrt[rows] * inv_sqrt[cols]
    indices[diag] = np.arange(n)
    data[diag] = inv_sqrt * inv_sqrt
    return NormalizedAdjacency(matrix=CSR.square(out_ptr, indices, data), degrees=deg_sl)


@dataclass(frozen=True)
class Partition:
    """Assignment of every graph node to one of ``n`` logical workers."""

    assignment: np.ndarray
    n: int

    def share(self, worker: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == worker)

    def training_pool(self, g: Graph, worker: int) -> np.ndarray:
        return np.flatnonzero((self.assignment == worker) & g.train_mask)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # Deterministic integer mixer; Python's hash() of ints is the identity.
    z = (x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return z ^ (z >> np.uint64(31))


PARTITION_STRATEGIES = ("round_robin", "hash", "random")


def partition_nodes(g: Graph, n: int, strategy: str = "round_robin", seed: int = 0) -> Partition:
    """Assign every node to a worker in [0, n).

    ``round_robin`` maps node i to i mod n (equal 1/n shares); ``hash`` uses a
    stable integer mix; ``random`` draws uniform worker ids from ``seed``.
    """
    if n <= 0:
        raise GraphError(f"worker count must be >= 1, got {n}")
    ids = np.arange(g.num_nodes, dtype=np.int64)
    if strategy == "round_robin":
        assignment = ids % n
    elif strategy == "hash":
        assignment = (_splitmix64(ids) % np.uint64(n)).astype(np.int64)
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, n, size=g.num_nodes, dtype=np.int64)
    else:
        raise GraphError(f"unknown partition strategy {strategy!r}")
    return Partition(assignment=assignment, n=n)


class Subgraph(Graph):
    """A target node plus its current 1-hop neighbors, with induced structure.

    Local node k is global node ``node_ids[k]``, and ``node_ids[0]`` is
    always the target. No node is in a split. ``edges`` is ``edge_array()``,
    the induced undirected adjacency in local ids (canonical i < j), sorted by
    (i, j): the order of ``normalize_adjacency(self).edge_list()``, which
    per-edge gradients of the subgraph follow.
    """

    def __init__(self, node_ids, indptr, indices, features, labels):
        none = np.zeros(len(node_ids), dtype=bool)
        super().__init__(len(node_ids), indptr, indices, features, labels, none, none, none)
        self.node_ids = node_ids
        self.edges = self.edge_array()


def sample_1hop(g: Graph, target: int) -> Subgraph:
    """Induced subgraph on the target and all of its current neighbors.

    The members' CSR rows are gathered at once and their columns looked up
    among the members by one ``searchsorted``; the member-to-member entries,
    as sorted local keys, give the subgraph's CSR arrays.
    """
    if not 0 <= target < g.num_nodes:
        raise GraphError(f"target node {target} out of range")
    indptr, indices = g.indptr, g.indices
    node_ids = np.concatenate([[target], g.neighbors(target)]).astype(np.int64)
    k = len(node_ids)
    starts = indptr[node_ids]
    counts = indptr[node_ids + 1] - starts
    li = np.repeat(np.arange(k), counts)
    cols = indices[np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(len(li))]
    # node_ids is ascending except for the target in front.
    order = np.argsort(node_ids)
    lw = order[np.minimum(np.searchsorted(node_ids[order], cols), k - 1)]
    member = node_ids[lw] == cols
    keys = np.sort(li[member] * k + lw[member])
    return Subgraph(node_ids, *_csr(keys, k), g.features[node_ids], g.labels[node_ids])


def generate_sbm(
    seed: int,
    block_sizes,
    p_intra: float,
    p_inter: float,
    feature_dim: int,
    noise: float,
    train_frac: float = 0.3,
    val_frac: float = 0.2,
) -> Graph:
    """Stochastic block model graph with label = block id.

    Node pair (i, j), i < j, is an edge with probability ``p_intra`` inside
    a block and ``p_inter`` across blocks, decided by cell (i, j) of one
    row-major (n, n) draw of uniforms from the seed's generator. Only the
    n(n-1)/2 upper cells are drawn (see ``_sbm_edges``), so memory stays at
    one buffer of ``_SBM_BLOCK_CELLS`` cells whatever n is.

    Features are one-hot(label) plus Gaussian noise of scale ``noise``, drawn
    from the stream after the n * n cells. Splits are stratified per block so
    every class is represented in training; the test split is every node in
    neither train nor val. Deterministic per seed.
    """
    block_sizes = list(block_sizes)
    if not block_sizes:
        raise GraphError("block_sizes must be nonempty")
    if not (0.0 <= p_intra <= 1.0 and 0.0 <= p_inter <= 1.0):
        raise GraphError("edge probabilities must lie in [0, 1]")
    if feature_dim < len(block_sizes):
        raise GraphError(
            f"feature_dim={feature_dim} cannot one-hot {len(block_sizes)} blocks"
        )
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes).astype(np.int64)
    n = len(labels)

    edges = _sbm_edges(rng, labels, p_intra, p_inter)

    features = noise * rng.standard_normal((n, feature_dim))
    features[np.arange(n), labels] += 1.0

    train, val = [], []
    for b in range(len(block_sizes)):
        members = rng.permutation(np.flatnonzero(labels == b))
        n_train = int(round(train_frac * len(members)))
        n_val = int(round(val_frac * len(members)))
        train.append(members[:n_train])
        val.append(members[n_train : n_train + n_val])
    train, val = np.concatenate(train), np.concatenate(val)
    test = np.ones(n, dtype=bool)
    test[train] = test[val] = False
    return build_graph(edges, features, labels, (train, val, np.flatnonzero(test)))


def _sbm_edges(rng: np.random.Generator, labels: np.ndarray, p_intra: float, p_inter: float):
    """The SBM's edges (i < j, row-major) from ``rng``'s next n * n uniforms.

    Cell (i, j) keeps stream position i * n + j of one (n, n) draw, and an edge
    is kept where its uniform is below its block pair's probability. Only the
    upper cells are drawn: PCG64 spends one 64-bit output per float64, so
    advancing by i + 1 before row i skips its cells (i, 0) to (i, i), and the
    advance at the last row leaves the stream at n * n. The rows'
    upper parts fill a buffer of ``_SBM_BLOCK_CELLS`` cells end to end, a row
    longer than what is left of it running on into the next fill.
    """
    n = len(labels)
    bitgen = rng.bit_generator
    buf = np.empty(min(_SBM_BLOCK_CELLS, n * (n - 1) // 2))
    chunks = [np.empty((0, 2), dtype=np.int64)]
    runs, fill = [], 0  # (buffer offset, row, first column) of each row run
    for i in range(n):
        bitgen.advance(i + 1)
        j = i + 1
        while j < n:
            take = min(n - j, len(buf) - fill)
            runs.append((fill, i, j))
            rng.random(out=buf[fill : fill + take])
            fill += take
            j += take
            if fill == len(buf):
                chunks.append(_sbm_hits(buf, runs, labels, p_intra, p_inter))
                runs, fill = [], 0
    if fill:
        chunks.append(_sbm_hits(buf[:fill], runs, labels, p_intra, p_inter))
    return np.concatenate(chunks)


def _sbm_hits(u, runs, labels, p_intra, p_inter) -> np.ndarray:
    """Edges of the filled buffer ``u``: its cells below the larger of the two
    probabilities, mapped back to (row, column), then held to their own."""
    hits = np.flatnonzero(u < max(p_intra, p_inter))
    offset, row, col = np.array(runs, dtype=np.int64).T
    run = np.searchsorted(offset, hits, side="right") - 1
    i = row[run]
    j = col[run] + hits - offset[run]
    keep = u[hits] < np.where(labels[i] == labels[j], p_intra, p_inter)
    return np.column_stack([i[keep], j[keep]])
