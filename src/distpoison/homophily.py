"""Node homophily and the distance between homophily distributions.

Per-node homophily is the Euclidean norm of the concatenation of a node's own
features with a degree-weighted aggregate of its neighbors' features. The
aggregate weights each neighbor j of node i by sqrt(d_j)/sqrt(d_i) with d the
raw degree (no self-loop); an isolated node contributes the empty sum, so its
homophily is just the norm of its own features.

The Wasserstein-1 distance between the clean and perturbed distributions is
the stealth signature; smaller distance means a less noticeable attack.

The greedy attack scores each candidate with a trial vector: the
homophily vector with only the candidate's one-hop neighborhood (its
block) recomputed. The trials read a ``StealthState`` built once per attack
and advanced by each applied move: it reads the graph's own CSR arrays and
degrees and keeps the weighted rows of the whole graph. One trial kernel
per move kind computes a whole attack step's candidates together, in
vectorized passes over chunks of a bounded size: an edge removal re-sums
the rows of both endpoints' neighborhoods, with the endpoints re-weighted
and each endpoint's row closed over the removed slot; a feature change
(node, dim, value) re-sums only column dim of the slot holding the node.
Trial vectors are bit-identical to recomputing each affected node from
scratch on its own, with its neighbor rows summed in ascending neighbor
order; the tests keep that per-node recompute as their oracle.

The state holds the trials of its graph as it stands: a batch's trials are
kept until the next applied move, which drops them all, so a trial asked
after a move is computed again. Each batch also returns, per trial, its
shift, the l1 distance of its entries from the current ones. Sorting is a
contraction in l1, so the shift over n bounds how far the trial can move
the W1 distance, and the attack measures W1 only for candidates that bound
leaves in reach of a pick.
"""

from __future__ import annotations

import csv

import numpy as np

from distpoison.graph import Graph, _distinct

__all__ = [
    "homophily_values",
    "distribution_distance",
    "StaleStateError",
    "StealthState",
    "homophily_after_edge_removal",
    "homophily_after_feature_change",
    "write_histogram_csv",
]

HISTOGRAM_BINS = 32

# A chunk of trials gathers the neighbor rows of its blocks' nodes, one slot
# per neighbor up to the block's largest degree; it takes fewer than this
# many floats plus those of its last block.
_CHUNK_FLOATS = 1 << 16

# Relative pad on a bound of how far a trial moves W1: far above the rounding
# of the n-term sums W1 and the bound take, far below any gap between scores.
_BOUND_PAD = 1e-9


def _neighbor_weights(degrees: np.ndarray) -> np.ndarray:
    # Per-source-node multiplier sqrt(d_j) applied to neighbor features
    # before the 1/sqrt(d_i) division.
    safe = np.where(degrees > 0, degrees.astype(np.float64), 1.0)
    return np.sqrt(safe)


def homophily_values(g: Graph) -> np.ndarray:
    """Vector of per-node homophily for every node of ``g``."""
    deg = g.degrees().astype(np.float64)
    a = g.adjacency_csr()
    weighted = g.features * _neighbor_weights(deg)[:, None]
    agg = a @ weighted
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    agg = agg * inv_sqrt[:, None]
    return np.sqrt((agg**2).sum(axis=1) + (g.features**2).sum(axis=1))


def _w1_sorted(p_sorted: np.ndarray, q_sorted: np.ndarray) -> float:
    """Empirical W1 of two equal-size samples given in ascending order."""
    # The mean, summed and divided as np.mean does, without its call overhead.
    return float(np.abs(p_sorted - q_sorted).sum() / len(p_sorted))


def distribution_distance(p, q) -> float:
    """Empirical Wasserstein-1 distance between two homophily vectors of one
    graph, the mean absolute difference of their sorted entries; raises
    ``ValueError`` unless both are nonempty and of equal length."""
    pv, qv = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if len(pv) == 0 or len(pv) != len(qv):
        raise ValueError(f"need two nonempty vectors of equal length, got {len(pv)} and {len(qv)}")
    return _w1_sorted(np.sort(pv), np.sort(qv))


# -- incremental evaluation for greedy candidate scoring ---------------------


class StaleStateError(RuntimeError):
    """A stealth trial was asked of a state whose graph has been edited since."""


class StealthState:
    """What every stealth trial reads, kept current with the graph it describes.

    Reads the adjacency and degrees from ``graph`` itself, whose CSR arrays
    no edit writes. Holds, for ``g`` as it stands: each node's weighted row
    (its features times its neighbor weight; one row per node plus a zero row
    at index n that pads the slots a trial gathers), the squared norms of
    the own rows, the current homophily vector ``values``, the clean vector
    sorted once for W1, and ``dist``, the W1 distance of ``values`` from it.
    ``clean`` defaults to ``values``. Everything cached is O(n d).

    ``edge_trials`` and ``feature_trials`` compute the trials of many
    candidates at once and keep them in ``memo``, which maps each
    candidate's move, ``(i, j)`` or ``(node, dim, value)``, to its block's
    node ids and their recomputed entries;
    ``homophily_after_edge_removal`` and ``homophily_after_feature_change``
    answer one candidate, from ``memo`` or by a batch of one.

    ``remove_edge`` and ``set_feature`` edit the graph and advance the state
    with it: the weighted rows are updated where they changed, ``dist`` is
    measured again, and ``memo`` is emptied, since its trials describe the
    graph before the move. Once ``g`` is edited any other way, trials raise
    ``StaleStateError`` and a fresh state must be built.
    """

    def __init__(self, g: Graph, values: np.ndarray, clean: np.ndarray | None = None):
        n = g.num_nodes
        self.values = np.asarray(values, dtype=np.float64)
        clean = self.values if clean is None else np.asarray(clean, dtype=np.float64)
        if len(self.values) != n or len(clean) != n:
            raise ValueError(f"homophily vectors must have one entry per node ({n})")
        self.graph = g
        self.edits = g.edits
        self.clean_sorted = np.sort(clean)
        self.dist = self.distance(self.values)
        self.weights = _neighbor_weights(g.degrees())
        self.rows = np.zeros((n + 1, g.feature_dim))
        self.rows[:n] = g.features * self.weights[:, None]
        self.own_sq = (g.features**2).sum(axis=1)
        # The trials computed since the last move: key -> (block node ids,
        # their entries).
        self.memo: dict = {}

    def recall(self, key) -> np.ndarray | None:
        """The trial vector held under ``key``, its block's entries written
        into a copy of the current ``values``, or None."""
        hit = self.memo.get(key)
        if hit is None:
            return None
        out = self.values.copy()
        out[hit[0]] = hit[1]
        return out

    @property
    def stale(self) -> bool:
        return self.graph.edits != self.edits

    def _check(self) -> None:
        if self.stale:
            raise StaleStateError("graph edited since this stealth state was built")

    def distance(self, trial: np.ndarray) -> float:
        """W1 distance of a trial homophily vector from the clean one."""
        return _w1_sorted(self.clean_sorted, np.sort(trial))

    def edge_trials(self, pairs) -> np.ndarray:
        """Compute the trial of removing each edge (i, j) of ``pairs`` and
        keep it in ``memo`` under the key ``(i, j)``.

        Returns, per pair, a bound on ``|distance(trial) - dist|``. A missing
        edge raises ``ValueError`` and leaves the state as it was.
        """
        self._check()
        ij = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        shifts = self._edge_kernel(ij[:, 0], ij[:, 1], pairs) if len(ij) else np.zeros(0)
        return self._bounds(shifts)

    def feature_trials(self, nodes, dims, values) -> np.ndarray:
        """Compute the trial of setting feature ``dims[k]`` of node
        ``nodes[k]`` to ``values[k]``, for each k, and keep it in ``memo``
        under the key ``(node, dim, value)``.

        Returns, per move, a bound on ``|distance(trial) - dist|``. A value
        equal to the entry's own raises ``ValueError`` and leaves the state
        as it was.
        """
        self._check()
        nodes, dims = np.asarray(nodes, dtype=np.int64), np.asarray(dims, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        same = values == self.graph.features[nodes, dims]
        if same.any():
            k = np.argmax(same)
            raise ValueError(f"feature ({nodes[k]}, {dims[k]}) already holds {values[k]}")
        keys = list(zip(nodes.tolist(), dims.tolist(), values.tolist()))
        shifts = self._feature_kernel(nodes, dims, values, keys) if len(keys) else np.zeros(0)
        return self._bounds(shifts)

    def _bounds(self, shifts: np.ndarray) -> np.ndarray:
        """Bounds on how far the W1 distance of trials whose entries differ
        from ``values`` by ``shifts`` in sum lies from ``dist``.

        Sorting is a contraction in l1, so ``|W1(t) - W1(v)| <= sum|t - v| / n``;
        the pad covers the rounding of both distances.
        """
        return shifts / len(self.values) * (1.0 + _BOUND_PAD) + _BOUND_PAD * self.dist

    def _slots(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Degrees and padded neighbor ids of ``nodes``: row k lists the
        neighbors of ``nodes[k]`` ascending, then n, which reads the zero row."""
        g = self.graph
        counts = g.degrees(nodes)
        slot = np.arange(counts.max(initial=0))
        # Padding slots may point past the last entry; clipped, then set to n.
        ids = np.take(g.indices, g.indptr[nodes, None] + slot, mode="clip")
        return counts, np.where(slot < counts[:, None], ids, g.num_nodes)

    def _edge_kernel(self, i: np.ndarray, j: np.ndarray, keys) -> np.ndarray:
        """Keep the removal trials of the edges (i[k], j[k]) under ``keys``;
        return their shifts.

        A block holds both endpoints and their neighbors, distinct and
        ascending. Each block node's neighbor rows are summed anew: both
        endpoints lose one degree, which re-weights every slot holding them,
        and each endpoint's row drops the other endpoint, closing the gap.
        """
        g, n = self.graph, self.graph.num_nodes
        c = np.arange(len(i))
        nbr_i, deg_i = _concat_neighbors(g, i)
        nbr_j, deg_j = _concat_neighbors(g, j)
        owner = np.concatenate([c, c, np.repeat(c, deg_i), np.repeat(c, deg_j)])
        owner, nodes = np.divmod(_distinct(owner * n + np.concatenate([i, j, nbr_i, nbr_j])), n)
        first = np.searchsorted(owner, c)
        new_i = g.features[i] * _neighbor_weights(deg_i - 1)[:, None]
        new_j = g.features[j] * _neighbor_weights(deg_j - 1)[:, None]
        pairwise = g.feature_dim == 1
        h = np.empty(len(nodes))
        for rows_at in self._chunks(nodes, first):
            v, o = nodes[rows_at], owner[rows_at]
            counts, ids = self._slots(v)
            end = np.flatnonzero((v == i[o]) | (v == j[o]))
            other = np.where(v[end] == i[o[end]], j[o[end]], i[o[end]])
            hit = ids[end] == other[:, None]
            absent = ~hit.any(axis=1)
            if absent.any():
                k = o[end[np.argmax(absent)]]
                raise ValueError(f"edge ({i[k]}, {j[k]}) not present")
            slot = np.arange(ids.shape[1])
            after = slot + (slot >= hit.argmax(axis=1)[:, None])
            padded = np.concatenate([ids[end], np.full((len(end), 1), n)], axis=1)
            ids[end] = np.take_along_axis(padded, after, axis=1)
            counts[end] -= 1
            rows = np.take(self.rows, ids, axis=0)
            for ends, new in ((i, new_i), (j, new_j)):
                r, s = np.nonzero(ids == ends[o][:, None])
                rows[r, s] = new[o[r]]
            h[rows_at] = _homophily(_slot_sums(rows, counts, pairwise), counts, self.own_sq[v])
        return self._remember(keys, nodes, h, first)

    def _feature_kernel(self, u: np.ndarray, dims: np.ndarray, values: np.ndarray,
                        keys) -> np.ndarray:
        """Keep the trials of setting feature dims[k] of node u[k] to
        values[k] under ``keys``; return their shifts.

        A block holds the node, then its neighbors. The node's own norm
        changes; in each neighbor's row only column dims[k] of the slot
        holding the node changes, so only that column is summed anew, and
        the others keep the sums of the current graph.
        """
        g = self.graph
        nbrs, deg = _concat_neighbors(g, u)
        first = np.cumsum(deg + 1) - (deg + 1)
        head = np.zeros(len(u) + len(nbrs), dtype=bool)
        head[first] = True
        nodes = np.empty(len(head), dtype=np.int64)
        nodes[head], nodes[~head] = u, nbrs
        owner = np.repeat(np.arange(len(u)), deg + 1)
        own_sq = self.own_sq[nodes]
        sq = g.features[u] ** 2
        sq[np.arange(len(u)), dims] = values**2
        own_sq[first] = sq.sum(axis=1)
        pairwise = g.feature_dim == 1
        h = np.empty(len(nodes))
        for rows_at in self._chunks(nodes, first):
            v, o = nodes[rows_at], owner[rows_at]
            distinct = _distinct(v)
            at = np.searchsorted(distinct, v)
            counts, ids = self._slots(distinct)
            rows = np.take(self.rows, ids, axis=0)
            agg = _slot_sums(rows, counts, pairwise)[at]
            r = np.flatnonzero(~head[rows_at])
            if len(r):
                held, col = u[o[r]], dims[o[r]]
                x = rows[at[r], :, col]
                p, s = np.nonzero(ids[at[r]] == held[:, None])
                x[p, s] = (values[o[r]] * self.weights[held])[p]
                agg[r, col] = _slot_sums(x, counts[at[r]], pairwise)
            h[rows_at] = _homophily(agg, counts[at], own_sq[rows_at])
        return self._remember(keys, nodes, h, first)

    def _chunks(self, nodes: np.ndarray, first: np.ndarray):
        """Slices of whole blocks (block k starts at ``first[k]``), cut where
        the floats gathered before a block cross a multiple of
        ``_CHUNK_FLOATS``: a chunk takes fewer than that plus its last block's."""
        degrees = self.graph.degrees(nodes)
        cost = np.diff(first, append=len(nodes)) * np.maximum.reduceat(degrees, first)
        cost *= self.graph.feature_dim
        chunk = (np.cumsum(cost) - cost) // _CHUNK_FLOATS
        starts = first[np.flatnonzero(np.diff(chunk, prepend=-1))].tolist()
        for a, b in zip(starts, [*starts[1:], len(nodes)]):
            yield slice(a, b)

    def _remember(self, keys, nodes: np.ndarray, h: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Keep the trial of each key, whose block is ``nodes`` from
        ``first[k]`` on, with entries ``h``; return the trials' shifts, the
        sums of ``|h - values|`` over their blocks."""
        stops = [*first[1:].tolist(), len(nodes)]
        for key, a, b in zip(keys, first.tolist(), stops):
            self.memo[key] = (nodes[a:b], h[a:b])
        return np.add.reduceat(np.abs(h - self.values[nodes]), first)

    def remove_edge(self, i: int, j: int, values: np.ndarray) -> None:
        """Remove edge (i, j) from the graph and advance the state with it.

        ``values`` is the homophily vector after the removal, as
        ``homophily_after_edge_removal`` gives it.
        """
        self._check()
        g = self.graph
        g.remove_edge(i, j)
        self.weights[[i, j]] = _neighbor_weights(g.degrees([i, j]))
        self.rows[[i, j]] = g.features[[i, j]] * self.weights[[i, j], None]
        self._advance(values)

    def set_feature(self, node: int, dim: int, value: float, values: np.ndarray) -> None:
        """Set one feature in the graph and advance the state with it.

        ``values`` is the homophily vector after the change, as
        ``homophily_after_feature_change`` gives it.
        """
        self._check()
        self.graph.set_feature(node, dim, value)
        row = self.graph.features[[node]]
        self.rows[node] = row[0] * self.weights[node]
        self.own_sq[node] = (row**2).sum(axis=1)[0]
        self._advance(values)

    def _advance(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.dist = self.distance(self.values)
        self.edits = self.graph.edits
        self.memo.clear()


def _concat_neighbors(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor lists of ``nodes``, one after another, and their lengths."""
    counts = g.degrees(nodes)
    start = np.repeat(g.indptr[nodes] - (np.cumsum(counts) - counts), counts)
    return g.indices[start + np.arange(len(start))], counts


def _slot_sums(x: np.ndarray, counts: np.ndarray, pairwise: bool) -> np.ndarray:
    """Row k of ``x`` summed over its slots (axis 1) as numpy sums the
    ``counts[k]`` rows of one node's neighbors on their own, so that trials
    are bit-identical to a per-node recompute.

    ``x`` is (rows, slots, d), or (rows, slots) for one feature column of
    each slot. With several feature columns numpy adds a node's neighbor
    rows in sequence, so the slots are added in sequence, and the zero
    padding past a row's count changes no sum. With a single column
    (``pairwise``) numpy sums them pairwise, which the padding would
    regroup, so rows are then summed in blocks of one count each.
    """
    if pairwise:
        out = np.zeros(x.shape[:1] + x.shape[2:])
        for c in np.unique(counts):
            sel = counts == c
            out[sel] = x[sel, :c].sum(axis=1)
        return out
    if x.ndim == 3:
        # A sum over a middle axis adds in sequence.
        return x.sum(axis=1)
    # Over the last axis numpy sums pairwise; a running sum adds in sequence.
    return np.cumsum(x, axis=1)[:, -1]


def _homophily(agg: np.ndarray, counts: np.ndarray, own_sq: np.ndarray) -> np.ndarray:
    """Homophily from each node's summed weighted neighbor rows ``agg``, its
    degree and the squared norm of its own row."""
    agg /= np.sqrt(np.maximum(counts, 1))[:, None]
    return np.sqrt((agg**2).sum(axis=1) + own_sq)


def homophily_after_edge_removal(state: StealthState, i: int, j: int) -> np.ndarray:
    """Homophily vector of the state's graph with edge (i, j) removed.

    Only nodes within one hop of either endpoint change; everything else is
    carried over from ``state.values``. The graph is not touched. The trial
    is read from ``state.memo``, or computed and kept there under ``(i, j)``.
    """
    state._check()
    if (i, j) not in state.memo:
        state.edge_trials([(i, j)])
    return state.recall((i, j))


def homophily_after_feature_change(
    state: StealthState, node: int, dim: int, value: float
) -> np.ndarray:
    """Homophily vector of the state's graph with feature ``dim`` of
    ``node`` set to ``value``.

    Only the node and its neighbors change. The trial is read from
    ``state.memo``, or computed and kept there under ``(node, dim, value)``;
    a value equal to the entry's own raises ``ValueError``.
    """
    state._check()
    key = (node, dim, value)
    if key not in state.memo:
        state.feature_trials([node], [dim], [value])
    return state.recall(key)


def write_histogram_csv(clean: np.ndarray, perturbed: np.ndarray, path) -> None:
    """Clean-vs-perturbed histogram over a shared range, one row for each of
    its ``HISTOGRAM_BINS`` bins."""
    pooled = np.concatenate([np.asarray(clean), np.asarray(perturbed)])
    edges = np.histogram_bin_edges(pooled, bins=HISTOGRAM_BINS)
    c_clean, _ = np.histogram(clean, bins=edges)
    c_pert, _ = np.histogram(perturbed, bins=edges)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count_clean", "count_perturbed"])
        for k in range(len(edges) - 1):
            writer.writerow([repr(float(edges[k])), repr(float(edges[k + 1])), int(c_clean[k]),
                             int(c_pert[k])])
