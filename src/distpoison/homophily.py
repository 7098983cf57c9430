"""Node homophily and the distance between homophily distributions.

Per-node homophily is the Euclidean norm of the concatenation of a node's own
features with a degree-weighted aggregate of its neighbors' features. The
aggregate weights each neighbor j of node i by sqrt(d_j)/sqrt(d_i) with d the
raw degree (no self-loop); an isolated node contributes the empty sum, so its
homophily is just the norm of its own features.

The Wasserstein-1 distance between the clean and perturbed distributions is
the stealth signature; smaller distance means a less noticeable attack.

The greedy attack scores each candidate with a trial vector
(``homophily_after_edge_removal``, ``homophily_after_feature_change``) that
recomputes only the candidate's one-hop neighborhood. The trials read a
``StealthState`` built once per attack and advanced by each applied move: it
reads the graph's own CSR arrays and degrees and keeps the weighted rows of
the whole graph, so a trial gathers the affected rows, overrides the entries
the candidate changes and reduces them. The state also keeps the W1 distance
of its current vector, the base each candidate's shift is measured from.
Trial vectors are bit-identical to recomputing each affected node from
scratch on its own, with its neighbor rows summed in ascending neighbor
order; the tests keep that per-node recompute as their oracle.

Most candidates of one attack step are candidates of the next one too, and
a move changes the trials of few of them. So the state remembers each
trial's recomputed entries, with a version count per node that every move
bumps where it changes a homophily input; a trial asked again while no node
of its block has moved returns the remembered entries, the same floats.
"""

from __future__ import annotations

import csv

import numpy as np

from distpoison.graph import Graph

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
    at index n that pads the blocks a trial gathers), the squared norms of
    the own rows, the current homophily vector ``values``, the clean vector
    sorted once for W1, and ``dist``, the W1 distance of ``values`` from it.
    ``clean`` defaults to ``values``. Everything cached is O(n d), so a trial
    pads only the neighborhood it touches.

    ``remove_edge`` and ``set_feature`` edit the graph and advance the state
    with it: the weighted rows are updated where they changed, and ``dist``
    is measured again. Once ``g`` is edited any other way, trials raise
    ``StaleStateError`` and a fresh state must be built.

    Trials are remembered (see ``recall``). ``version[u]`` counts the moves
    that changed an input of node u's homophily: its features, its degree,
    or a neighbor's features or degree. A removal of (i, j) bumps i, j and
    their neighbors, a change of u's features bumps u and its neighbors.
    ``begin_step`` forgets the trials the last step did not ask for, so
    what is remembered is at most two steps' trials.
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
        self._feature_block = None
        self.version = np.zeros(n, dtype=np.int64)
        # Trials asked since the last begin_step, and those asked in the
        # step before: key -> (block node ids, their entries, version sum).
        self.memo: dict = {}
        self.last_memo: dict = {}

    def begin_step(self) -> None:
        """Start an attack step: forget the trials the last one did not ask for."""
        self.last_memo, self.memo = self.memo, {}

    def recall(self, key) -> np.ndarray | None:
        """The trial vector remembered under ``key``, or None.

        A trial is returned only while no node of its block has moved since
        it was computed; its block's entries are written into a copy of the
        current ``values``, as the trial that computed them wrote them.
        """
        hit = self.memo.get(key)
        if hit is None:
            hit = self.last_memo.pop(key, None)
            if hit is None:
                return None
            self.memo[key] = hit
        nodes, entries, versions = hit
        if self.version[nodes].sum() != versions:
            return None
        out = self.values.copy()
        out[nodes] = entries
        return out

    def remember(self, key, nodes: np.ndarray, trial: np.ndarray) -> np.ndarray:
        """Remember ``trial``, which recomputed the entries of ``nodes``
        under ``key``, and return it."""
        self.memo[key] = (nodes, trial[nodes], self.version[nodes].sum())
        return trial

    @property
    def stale(self) -> bool:
        return self.graph.edits != self.edits

    def _check(self) -> None:
        if self.stale:
            raise StaleStateError("graph edited since this stealth state was built")

    def block(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Degrees, padded neighbor ids and weighted rows of ``nodes``.

        Row k lists the neighbors of ``nodes[k]`` ascending, then n; the
        rows are gathered per slot, so padding slots read the zero row.
        """
        g = self.graph
        counts = g.degrees(nodes)
        slot = np.arange(counts.max(initial=0))
        # Padding slots may point past the last entry; clipped, then set to n.
        ids = np.take(g.indices, g.indptr[nodes, None] + slot, mode="clip")
        ids = np.where(slot < counts[:, None], ids, g.num_nodes)
        return counts, ids, np.take(self.rows, ids, axis=0)

    def feature_block(self, node: int):
        """``node`` and its neighbors with their block, as a feature trial
        reads it, plus a mask of the slots holding ``node``.

        Kept for the last node asked: the attack scores a node's dimensions
        one after another. A trial overwrites only the slots holding
        ``node`` and the first own norm, the same ones on every call.
        """
        if self._feature_block is None or self._feature_block[0] != node:
            nodes = np.concatenate([[node], self.graph.neighbors(node)])
            counts, ids, rows = self.block(nodes)
            self._feature_block = (node, nodes, counts, ids == node, rows, self.own_sq[nodes])
        return self._feature_block[1:]

    def distance(self, trial: np.ndarray) -> float:
        """W1 distance of a trial homophily vector from the clean one."""
        return _w1_sorted(self.clean_sorted, np.sort(trial))

    def remove_edge(self, i: int, j: int, values: np.ndarray) -> None:
        """Remove edge (i, j) from the graph and advance the state with it.

        ``values`` is the homophily vector after the removal, as
        ``homophily_after_edge_removal`` gives it.
        """
        self._check()
        g = self.graph
        touched = np.concatenate([[i, j], g.neighbors(i), g.neighbors(j)])
        g.remove_edge(i, j)
        self.version[touched] += 1
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
        self.version[node] += 1
        self.version[self.graph.neighbors(node)] += 1
        row = self.graph.features[[node]]
        self.rows[node] = row[0] * self.weights[node]
        self.own_sq[node] = (row**2).sum(axis=1)[0]
        self._advance(values)

    def _advance(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.dist = self.distance(self.values)
        self.edits = self.graph.edits
        self._feature_block = None

    def _trial(self, nodes, counts, rows, own_sq) -> np.ndarray:
        """``values`` with the entries of ``nodes`` recomputed from scratch.

        ``rows[k]`` holds the weighted rows of the ``counts[k]`` neighbors
        of ``nodes[k]`` in the trial graph, ascending by id, and zeros past
        them. Each node's rows are added in sequence, exactly as
        ``(rows * w).sum(axis=0)`` adds them for one node: summing over slots
        does this, and the zero padding changes no sum. With a single feature
        column numpy sums a node's rows pairwise instead and the padding
        would regroup them, so nodes are then summed in blocks of one
        neighbor count each.
        """
        if rows.shape[2] > 1:
            agg = rows.sum(axis=1)
        else:
            agg = np.zeros((len(nodes), 1))
            for c in np.unique(counts):
                agg[counts == c] = rows[counts == c, :c].sum(axis=1)
        agg /= np.sqrt(np.maximum(counts, 1))[:, None]
        out = self.values.copy()
        out[nodes] = np.sqrt((agg**2).sum(axis=1) + own_sq)
        return out


def homophily_after_edge_removal(state: StealthState, i: int, j: int) -> np.ndarray:
    """Homophily vector of the state's graph with edge (i, j) removed.

    Only nodes within one hop of either endpoint change; everything else is
    carried over from ``state.values``. The graph is not touched. The trial
    is remembered under ``(i, j)``.
    """
    state._check()
    remembered = state.recall((i, j))
    if remembered is not None:
        return remembered
    g = state.graph
    nodes = np.unique(np.concatenate([[i, j], g.neighbors(i), g.neighbors(j)]))
    counts, ids, rows = state.block(nodes)
    # Both endpoints lose one degree, which re-weights every slot holding them.
    w = _neighbor_weights(g.degrees([i, j]) - 1)
    rows[ids == i] = g.features[i] * w[0]
    rows[ids == j] = g.features[j] * w[1]
    for a, b in ((i, j), (j, i)):
        # Drop b from a's row, closing the gap.
        r = np.searchsorted(nodes, a)
        c = counts[r]
        p = np.searchsorted(ids[r, :c], b)
        if p == c or ids[r, p] != b:
            raise ValueError(f"edge ({i}, {j}) not present")
        rows[r, p : c - 1] = rows[r, p + 1 : c]
        rows[r, c - 1] = 0.0
        counts[r] = c - 1
    return state.remember((i, j), nodes, state._trial(nodes, counts, rows, state.own_sq[nodes]))


def homophily_after_feature_change(
    state: StealthState, node: int, new_row: np.ndarray
) -> np.ndarray:
    """Homophily vector of the state's graph with node's feature row replaced.

    The trial is remembered under ``(node, new_row.tobytes())``. A row equal
    to the node's own is never remembered: the node moves when its row does.
    """
    state._check()
    new_row = np.asarray(new_row, dtype=np.float64)
    key = (node, new_row.tobytes())
    remembered = state.recall(key)
    if remembered is not None:
        return remembered
    if np.array_equal(state.graph.features[node], new_row):
        return state.values.copy()
    nodes, counts, holds_node, rows, own_sq = state.feature_block(node)
    # Every call for this block overwrites the same entries, so the cached
    # arrays are edited in place.
    rows[holds_node] = new_row * state.weights[node]
    own_sq[0] = (new_row[None] ** 2).sum(axis=1)[0]
    return state.remember(key, nodes, state._trial(nodes, counts, rows, own_sq))


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
            writer.writerow([repr(edges[k]), repr(edges[k + 1]), int(c_clean[k]), int(c_pert[k])])
