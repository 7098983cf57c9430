"""The random and DICE baselines as first written, kept as the test oracle.

Each removal unit rebuilds the list of edges still available, and the share's
edges are found by a Python loop over the edge array.
``distpoison.attack.baseline_random`` and ``baseline_dice`` must return equal
perturbations: the same moves in the same order, from the same RNG stream.
"""

import numpy as np

from distpoison.attack import EdgeAddition, EdgeRemoval, FeatureFlip, PerturbationSet, flipped_value
from distpoison.graph import Graph, Partition


def baseline_random(
    g: Graph,
    part: Partition,
    edge_budget: int,
    feature_budget: int,
    seed: int,
    poisoned_worker: int = 0,
) -> PerturbationSet:
    """Random edge removals/additions and feature sign flips on one share."""
    if edge_budget < 0 or feature_budget < 0:
        raise ValueError("budgets must be nonnegative")
    rng = np.random.default_rng(seed)
    share = set(int(v) for v in part.share(poisoned_worker))
    pert = PerturbationSet(
        config={
            "kind": "ra",
            "edge_budget": edge_budget,
            "feature_budget": feature_budget,
            "seed": seed,
            "poisoned_worker": poisoned_worker,
        }
    )
    base_edges = [
        (int(i), int(j))
        for i, j in g.edge_array()
        if int(i) in share or int(j) in share
    ]
    removed: set[tuple[int, int]] = set()
    added: set[tuple[int, int]] = set()
    share_list = sorted(share)
    for unit in range(edge_budget):
        if rng.random() < 0.5:
            avail = [e for e in base_edges if e not in removed]
            if not avail:
                continue
            i, j = avail[rng.integers(len(avail))]
            removed.add((i, j))
            pert.edges_removed.append(EdgeRemoval(i, j, 0.0, unit + 1))
        else:
            pick = None
            for _ in range(1000):
                u = share_list[rng.integers(len(share_list))]
                v = int(rng.integers(g.num_nodes))
                key = (min(u, v), max(u, v))
                if u != v and not g.has_edge(u, v) and key not in added:
                    pick = key
                    break
            if pick is None:
                continue
            added.add(pick)
            pert.edges_added.append(EdgeAddition(pick[0], pick[1], unit + 1))
    flipped: set[tuple[int, int]] = set()
    for unit in range(feature_budget):
        pick = None
        for _ in range(1000):
            node = share_list[rng.integers(len(share_list))]
            dim = int(rng.integers(g.feature_dim))
            if (node, dim) not in flipped:
                pick = (node, dim)
                break
        if pick is None:
            continue
        node, dim = pick
        flipped.add(pick)
        old = float(g.features[node, dim])
        new = flipped_value(old, 1)
        pert.features_flipped.append(FeatureFlip(node, dim, old, new, 1, unit + 1))
    return pert


def baseline_dice(
    g: Graph,
    part: Partition,
    edge_budget: int,
    seed: int,
    poisoned_worker: int = 0,
) -> PerturbationSet:
    """Remove same-label edges / add different-label edges on one share.

    Each budget unit flips a fair coin between the two moves; a unit with no
    eligible candidate is skipped.
    """
    if edge_budget < 0:
        raise ValueError("edge budget must be nonnegative")
    rng = np.random.default_rng(seed)
    share = set(int(v) for v in part.share(poisoned_worker))
    pert = PerturbationSet(
        config={
            "kind": "dice",
            "edge_budget": edge_budget,
            "seed": seed,
            "poisoned_worker": poisoned_worker,
        }
    )
    removed: set[tuple[int, int]] = set()
    added: set[tuple[int, int]] = set()
    labels = g.labels
    base_edges = [
        (int(i), int(j))
        for i, j in g.edge_array()
        if int(i) in share or int(j) in share
    ]
    share_list = sorted(share)
    for unit in range(edge_budget):
        if rng.random() < 0.5:
            avail = [
                e for e in base_edges if labels[e[0]] == labels[e[1]] and e not in removed
            ]
            if not avail:
                continue
            i, j = avail[rng.integers(len(avail))]
            removed.add((i, j))
            pert.edges_removed.append(EdgeRemoval(i, j, 0.0, unit + 1))
        else:
            avail = [
                (min(u, v), max(u, v))
                for u in share_list
                for v in range(g.num_nodes)
                if u != v
                and labels[u] != labels[v]
                and not g.has_edge(u, v)
                and (min(u, v), max(u, v)) not in added
            ]
            if not avail:
                continue
            i, j = avail[rng.integers(len(avail))]
            added.add((i, j))
            pert.edges_added.append(EdgeAddition(i, j, unit + 1))
    return pert
