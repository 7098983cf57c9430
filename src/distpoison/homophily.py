"""Node homophily, empirical homophily distributions, and stealth distances.

Per-node homophily is the Euclidean norm of the concatenation of a node's own
features with a degree-weighted aggregate of its neighbors' features. The
aggregate weights each neighbor j of node i by sqrt(d_j)/sqrt(d_i) with d the
raw degree (no self-loop); an isolated node contributes the empty sum, so its
homophily is just the norm of its own features. A ``degree_ratio=False``
switch swaps in the conventional 1/sqrt(d_i d_j) weighting for sensitivity
runs.

The shift between the clean and perturbed distributions is the stealth
signature; smaller distance means a less noticeable attack.

The greedy attack scores each candidate with a trial vector
(``homophily_after_edge_removal``, ``homophily_after_feature_change``) that
recomputes only the candidate's one-hop neighborhood, in a few vectorized
passes. Trial vectors are bit-identical to recomputing each affected node
from scratch on its own, with its neighbor rows summed in ascending neighbor
order; the tests keep that per-node recompute as their oracle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from distpoison.graph import Graph

__all__ = [
    "HomophilyDistribution",
    "node_homophily",
    "homophily_distribution",
    "homophily_values",
    "distribution_distance",
    "stealth_penalty",
    "homophily_after_edge_removal",
    "homophily_after_feature_change",
    "write_histogram_csv",
]

DEFAULT_BINS = 32


@dataclass
class HomophilyDistribution:
    """Per-node homophily values plus a fixed-bin summary histogram."""

    values: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray


def _neighbor_weights(degrees: np.ndarray, degree_ratio: bool) -> np.ndarray:
    # Per-source-node multiplier applied to neighbor features before the
    # 1/sqrt(d_i) division: sqrt(d_j) as written, or 1/sqrt(d_j) conventional.
    safe = np.where(degrees > 0, degrees.astype(np.float64), 1.0)
    return np.sqrt(safe) if degree_ratio else 1.0 / np.sqrt(safe)


def homophily_values(g: Graph, degree_ratio: bool = True) -> np.ndarray:
    """Vector of per-node homophily for every node of ``g``."""
    deg = g.degrees().astype(np.float64)
    a = g.adjacency_csr()
    weighted = g.features * _neighbor_weights(deg, degree_ratio)[:, None]
    agg = a @ weighted
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    agg = agg * inv_sqrt[:, None]
    return np.sqrt((agg**2).sum(axis=1) + (g.features**2).sum(axis=1))


def node_homophily(g: Graph, i: int, degree_ratio: bool = True) -> float:
    """Homophily of a single node; isolated nodes reduce to ||X_i||."""
    deg = g.degrees().astype(np.float64)
    neigh = g.neighbors(i)
    if len(neigh) == 0:
        agg = np.zeros(g.feature_dim)
    else:
        w = _neighbor_weights(deg, degree_ratio)[neigh]
        agg = (g.features[neigh] * w[:, None]).sum(axis=0) / np.sqrt(deg[i])
    return float(np.sqrt((agg**2).sum() + (g.features[i] ** 2).sum()))


def homophily_distribution(
    g: Graph, bins: int = DEFAULT_BINS, degree_ratio: bool = True
) -> HomophilyDistribution:
    values = homophily_values(g, degree_ratio)
    counts, edges = np.histogram(values, bins=bins)
    return HomophilyDistribution(values=values, bin_edges=edges, counts=counts)


def _as_values(d) -> np.ndarray:
    v = d.values if isinstance(d, HomophilyDistribution) else np.asarray(d, dtype=np.float64)
    if len(v) == 0:
        raise ValueError("empty homophily distribution")
    return v


def distribution_distance(p, q, measure: str = "wasserstein1") -> float:
    """Distance between two empirical homophily distributions.

    ``wasserstein1`` for equal sample counts is the mean absolute difference
    of the sorted samples (the standard empirical W1 otherwise); ``ks`` is the
    maximum CDF gap.
    """
    pv, qv = _as_values(p), _as_values(q)
    if measure == "wasserstein1":
        if len(pv) == len(qv):
            return float(np.abs(np.sort(pv) - np.sort(qv)).mean())
        # Imported here: scipy.stats costs about half a second of start-up.
        from scipy.stats import wasserstein_distance

        return float(wasserstein_distance(pv, qv))
    if measure == "ks":
        grid = np.concatenate([pv, qv])
        cdf_p = np.searchsorted(np.sort(pv), grid, side="right") / len(pv)
        cdf_q = np.searchsorted(np.sort(qv), grid, side="right") / len(qv)
        return float(np.abs(cdf_p - cdf_q).max())
    raise ValueError(f"unknown distance measure {measure!r}")


def stealth_penalty(
    g: Graph,
    g_perturbed: Graph,
    lambda_homo: float,
    measure: str = "wasserstein1",
) -> float:
    """Weighted homophily-distribution shift between a graph and its perturbation."""
    if g.num_nodes != g_perturbed.num_nodes:
        raise ValueError(
            f"node count mismatch: {g.num_nodes} vs {g_perturbed.num_nodes}"
        )
    if lambda_homo == 0.0:
        return 0.0
    return lambda_homo * distribution_distance(
        homophily_values(g), homophily_values(g_perturbed), measure
    )


# -- incremental evaluation for greedy candidate scoring ---------------------


def _recompute_nodes(
    values: np.ndarray,
    nodes: np.ndarray,
    counts: np.ndarray,
    own_rows: np.ndarray,
    nbr_rows: np.ndarray,
    nbr_deg: np.ndarray,
    degree_ratio: bool,
) -> np.ndarray:
    """``values`` with the entries of ``nodes`` recomputed from scratch.

    ``nbr_rows[k]`` and ``nbr_deg[k]`` hold the feature rows and trial
    degrees of the ``counts[k]`` neighbors of ``nodes[k]`` in the trial
    graph, ascending by id and padded past ``counts[k]`` (a block from
    ``Graph.neighbor_block``); ``own_rows`` are the nodes' own rows.

    Each node's weighted neighbor rows are added in sequence, exactly as
    ``(rows * w).sum(axis=0)`` adds them for one node: summing the block
    over slots does this, and the zero rows padding it change no sum. With
    a single feature column numpy sums a node's rows pairwise instead and
    the padding would regroup them, so nodes are then summed in blocks of
    one neighbor count each.
    """
    valid = np.arange(nbr_rows.shape[1]) < counts[:, None]
    # A live neighbor has trial degree >= 1; padding slots get weight 0.
    dv = np.maximum(nbr_deg, 1)
    w = (np.sqrt(dv) if degree_ratio else 1.0 / np.sqrt(dv)) * valid
    weighted = nbr_rows * w[..., None]
    if weighted.shape[2] > 1:
        agg = weighted.sum(axis=1)
    else:
        agg = np.zeros((len(nodes), 1))
        for c in np.unique(counts):
            agg[counts == c] = weighted[counts == c, :c].sum(axis=1)
    agg /= np.sqrt(np.maximum(counts, 1))[:, None]
    out = values.copy()
    out[nodes] = np.sqrt((agg**2).sum(axis=1) + (own_rows**2).sum(axis=1))
    return out


def homophily_after_edge_removal(
    g: Graph, values: np.ndarray, i: int, j: int, degree_ratio: bool = True
) -> np.ndarray:
    """Homophily vector of ``g`` with edge (i, j) removed, without mutating ``g``.

    Only nodes within one hop of either endpoint change; everything else is
    carried over from ``values`` (the vector for the current ``g``).
    """
    nodes = np.unique(np.concatenate([[i, j], g.neighbors(i), g.neighbors(j)]))
    nbrs, counts = g.neighbor_block(nodes)
    for a, b in ((i, j), (j, i)):
        # Drop b from a's sorted row, closing the gap.
        r = np.searchsorted(nodes, a)
        p = np.searchsorted(nbrs[r, : counts[r]], b)
        if p == counts[r] or nbrs[r, p] != b:
            raise ValueError(f"edge ({i}, {j}) not present")
        nbrs[r, p:-1] = nbrs[r, p + 1 :]
        counts[r] -= 1
    nbr_deg = g.degrees(nbrs) - (nbrs == i) - (nbrs == j)
    return _recompute_nodes(
        values, nodes, counts, g.features[nodes], g.features[nbrs], nbr_deg, degree_ratio
    )


def homophily_after_feature_change(
    g: Graph,
    values: np.ndarray,
    node: int,
    new_row: np.ndarray,
    degree_ratio: bool = True,
) -> np.ndarray:
    """Homophily vector of ``g`` with node's feature row replaced."""
    if np.array_equal(g.features[node], new_row):
        return values.copy()
    nodes = np.concatenate([[node], g.neighbors(node)])
    nbrs, counts = g.neighbor_block(nodes)
    own_rows = g.features[nodes]
    own_rows[0] = new_row
    nbr_rows = g.features[nbrs]
    nbr_rows[nbrs == node] = new_row
    return _recompute_nodes(
        values, nodes, counts, own_rows, nbr_rows, g.degrees(nbrs), degree_ratio
    )


def write_histogram_csv(
    clean: np.ndarray,
    perturbed: np.ndarray,
    path,
    bins: int = DEFAULT_BINS,
) -> None:
    """Clean-vs-perturbed histogram over a shared range, one row per bin."""
    pooled = np.concatenate([np.asarray(clean), np.asarray(perturbed)])
    edges = np.histogram_bin_edges(pooled, bins=bins)
    c_clean, _ = np.histogram(clean, bins=edges)
    c_pert, _ = np.histogram(perturbed, bins=edges)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count_clean", "count_perturbed"])
        for k in range(len(edges) - 1):
            writer.writerow([repr(edges[k]), repr(edges[k + 1]), int(c_clean[k]), int(c_pert[k])])
