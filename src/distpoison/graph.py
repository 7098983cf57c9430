"""Sparse undirected graphs with features, labels, splits, and worker partitions.

The graph is stored as CSR (row pointer + sorted column array). Edge removal
tombstones entries in place and compacts lazily, so that attacks removing a
handful of edges per iteration do not pay a full rebuild each time. Edges added
after construction (used by the random/DICE baselines) live in a small overlay
until the next compaction. The degree vector is kept current by every edit,
so degree queries never recount the adjacency, and an edit counter lets
caches built from a graph tell whether it has changed since.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "NormalizedAdjacency",
    "Partition",
    "Subgraph",
    "build_graph",
    "normalize_adjacency",
    "partition_nodes",
    "sample_1hop",
    "generate_sbm",
    "count_cross_edges",
]

# Compact once this many tombstoned/overlay entries accumulate.
_COMPACT_SLACK = 64

# generate_sbm draws the upper triangle's uniforms into one buffer of this
# many cells (8 MB of float64), or of the whole triangle when that is smaller.
_SBM_BLOCK_CELLS = 1 << 20


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

    Immutable after construction except through the explicit mutation methods
    (``remove_edge``, ``add_edge``, ``set_feature``), which are meant to be
    driven by a single perturbation owner; concurrent readers are safe.
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
        self._alive = np.ones(len(indices), dtype=bool)
        self._extra: dict[int, set[int]] = {}
        self._overlay = 0  # entries held in _extra, both directions counted
        self._num_edges = len(indices) // 2
        self._dead = 0
        self._deg = np.diff(indptr).astype(np.int64)
        # Bumped by every mutation method; compaction is not an edit.
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
        return self._num_edges

    def neighbors(self, i: int) -> np.ndarray:
        base = self.indices[self.indptr[i] : self.indptr[i + 1]]
        mask = self._alive[self.indptr[i] : self.indptr[i + 1]]
        cols = base[mask]
        extra = self._extra.get(i)
        if extra:
            cols = np.concatenate([cols, np.fromiter(extra, dtype=np.int64)])
            cols.sort()
        return cols

    def degree(self, i: int) -> int:
        return int(self._deg[i])

    def degrees(self, nodes=None) -> np.ndarray:
        """Current degrees of every node, or of ``nodes``, as a fresh array."""
        return self._deg.copy() if nodes is None else self._deg[nodes]

    def has_edge(self, i: int, j: int) -> bool:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        pos = lo + np.searchsorted(self.indices[lo:hi], j)
        if pos < hi and self.indices[pos] == j and self._alive[pos]:
            return True
        extra = self._extra.get(i)
        return bool(extra and j in extra)

    def edge_array(self) -> np.ndarray:
        """All current undirected edges as an (m, 2) array with i < j."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        keep = self._alive & (rows < self.indices)
        pairs = [np.column_stack([rows[keep], self.indices[keep]])]
        for i, extra in self._extra.items():
            js = np.fromiter((j for j in extra if i < j), dtype=np.int64)
            if len(js):
                pairs.append(np.column_stack([np.full(len(js), i, dtype=np.int64), js]))
        out = np.concatenate(pairs, axis=0) if pairs else np.empty((0, 2), dtype=np.int64)
        order = np.lexsort((out[:, 1], out[:, 0]))
        return out[order]

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the current adjacency, rows ascending.

        Tombstones are dropped and overlay edges merged in; the arrays are the
        graph's own when it holds neither, so treat them as read-only.
        """
        if not self._dead and not self._extra:
            return self.indptr, self.indices
        n = self.num_nodes
        rows = np.repeat(np.arange(n), np.diff(self.indptr))[self._alive]
        cols = self.indices[self._alive]
        if self._extra:
            extra = np.array(
                [(i, j) for i, js in self._extra.items() for j in js], dtype=np.int64
            ).reshape(-1, 2)
            keys = np.sort(np.concatenate([rows * n + cols, extra[:, 0] * n + extra[:, 1]]))
            cols = keys % n
        indptr = np.concatenate([[0], np.cumsum(self._deg)])
        return indptr, cols

    def adjacency_csr(self) -> sp.csr_matrix:
        """Raw adjacency A (no self-loops) as a scipy CSR matrix of 1.0s."""
        e = self.edge_array()
        if len(e) == 0:
            return sp.csr_matrix((self.num_nodes, self.num_nodes), dtype=np.float64)
        r = np.concatenate([e[:, 0], e[:, 1]])
        c = np.concatenate([e[:, 1], e[:, 0]])
        m = sp.coo_matrix(
            (np.ones(len(r)), (r, c)), shape=(self.num_nodes, self.num_nodes)
        ).tocsr()
        m.sort_indices()
        return m

    # -- mutation (perturbation owner only) --------------------------------

    def remove_edge(self, i: int, j: int) -> None:
        if i == j or not self.has_edge(i, j):
            raise GraphError(f"edge ({i}, {j}) not present")
        for a, b in ((i, j), (j, i)):
            extra = self._extra.get(a)
            if extra and b in extra:
                extra.remove(b)
                self._overlay -= 1
                continue
            lo, hi = self.indptr[a], self.indptr[a + 1]
            pos = lo + np.searchsorted(self.indices[lo:hi], b)
            self._alive[pos] = False
            self._dead += 1
        self._deg[[i, j]] -= 1
        self._num_edges -= 1
        self.edits += 1
        self._maybe_compact()

    def add_edge(self, i: int, j: int) -> None:
        if i == j:
            raise GraphError("self-loops are not storable")
        if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
            raise GraphError(f"node id out of range in edge ({i}, {j})")
        if self.has_edge(i, j):
            raise GraphError(f"edge ({i}, {j}) already present")
        self._extra.setdefault(i, set()).add(j)
        self._extra.setdefault(j, set()).add(i)
        self._overlay += 2
        self._deg[[i, j]] += 1
        self._num_edges += 1
        self.edits += 1
        self._maybe_compact()

    def set_feature(self, node: int, dim: int, value: float) -> None:
        self.features[node, dim] = value
        self.edits += 1

    def _maybe_compact(self) -> None:
        if self._dead + self._overlay > max(_COMPACT_SLACK, len(self.indices) // 4):
            self.compact()

    def compact(self) -> None:
        """Rebuild the CSR arrays, folding in tombstones and overlay edges."""
        self.indptr, self.indices = self.csr_arrays()
        self._alive = np.ones(len(self.indices), dtype=bool)
        self._extra = {}
        self._overlay = 0
        self._dead = 0

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g.num_nodes = self.num_nodes
        g.indptr = self.indptr.copy()
        g.indices = self.indices.copy()
        g.features = self.features.copy()
        g.labels = self.labels.copy()
        g.train_mask = self.train_mask.copy()
        g.val_mask = self.val_mask.copy()
        g.test_mask = self.test_mask.copy()
        g.dropped_self_loops = self.dropped_self_loops
        g._alive = self._alive.copy()
        g._extra = {i: set(s) for i, s in self._extra.items()}
        g._overlay = self._overlay
        g._num_edges = self._num_edges
        g._dead = self._dead
        g._deg = self._deg.copy()
        g.edits = self.edits
        return g


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
    on the graph) because normalization adds them canonically. Labels must be
    nonnegative. ``splits`` is (train_ids, val_ids, test_ids); a node may
    appear in at most one split. Each error names the first offending edge,
    label or split entry in input order.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise GraphError("features must be a nonempty (num_nodes, dim) matrix", "features")
    n = features.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise GraphError(f"labels shape {labels.shape} does not match num_nodes={n}", "features")
    if labels.min() < 0:
        node = int(np.argmax(labels < 0))
        raise GraphError(f"node {node} has negative label {labels[node]}", "features")

    e = np.asarray(edge_list, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphError(f"edge list must hold (i, j) pairs, got shape {e.shape}", "edges")
    if len(e) and (e.min() < 0 or e.max() >= n):
        i, j = e[np.argmax(((e < 0) | (e >= n)).any(axis=1))]
        raise GraphError(f"edge ({i}, {j}) references a node id >= {n}", "edges")
    i, j = e[:, 0], e[:, 1]
    loops = i == j
    dropped = int(np.count_nonzero(loops))
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s) from input edge list")
        i, j = i[~loops], j[~loops]

    masks = _split_masks(splits, n)

    # Each edge as its two directed keys row * n + col: sorted and
    # deduplicated, they are the CSR entries in order.
    keys = np.concatenate([i * n + j, j * n + i])
    if len(keys):
        keys = _distinct(keys)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return Graph(n, indptr, keys % n, features, labels, *masks, dropped_self_loops=dropped)


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
            _, first = np.unique(ids, return_index=True)
            bad = np.ones(len(ids), dtype=bool)
            bad[first] = False  # now marks repeats within the split
            bad |= out | taken[np.where(out, 0, ids)]
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

    matrix: sp.csr_matrix
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
    indptr, cols = g.csr_arrays()
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
    m = sp.csr_matrix((data, indices, out_ptr), shape=(n, n))
    return NormalizedAdjacency(matrix=m, degrees=deg_sl)


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


def count_cross_edges(g: Graph, part: Partition) -> int:
    """Number of undirected edges whose endpoints live on different workers."""
    e = g.edge_array()
    if len(e) == 0:
        return 0
    return int(np.count_nonzero(part.assignment[e[:, 0]] != part.assignment[e[:, 1]]))


@dataclass
class Subgraph:
    """A target node plus its current 1-hop neighbors, with induced structure.

    ``node_ids[0]`` is always the target. ``edges`` holds the induced
    undirected adjacency in local ids (canonical i < j).
    """

    node_ids: np.ndarray
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    local_of: dict[int, int] = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def to_graph(self) -> Graph:
        return build_graph(self.edges, self.features, self.labels)

    def to_global(self, i: int, j: int) -> tuple[int, int]:
        a, b = int(self.node_ids[i]), int(self.node_ids[j])
        return (a, b) if a < b else (b, a)


def sample_1hop(g: Graph, target: int) -> Subgraph:
    """Induced subgraph on the target and all of its current neighbors."""
    if not 0 <= target < g.num_nodes:
        raise GraphError(f"target node {target} out of range")
    neigh = g.neighbors(target)
    node_ids = np.concatenate([[target], neigh]).astype(np.int64)
    local_of = {int(v): k for k, v in enumerate(node_ids)}
    edges = []
    for li, v in enumerate(node_ids):
        for w in g.neighbors(int(v)):
            lw = local_of.get(int(w))
            if lw is not None and li < lw:
                edges.append((li, lw))
    edges = np.array(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
    return Subgraph(
        node_ids=node_ids,
        edges=edges,
        features=g.features[node_ids].copy(),
        labels=g.labels[node_ids].copy(),
        local_of=local_of,
    )


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
