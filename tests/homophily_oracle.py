"""Per-node homophily trials as first written, kept as the test oracle.

Each trial recomputes every affected node from scratch in a Python loop:
``neighbors`` per node, ``degrees()`` recounted per call, the whole feature
matrix copied for a feature change. ``distpoison.homophily`` must return
bit-identical vectors.
"""

import numpy as np


def _recompute_nodes(values, nodes, features, neighbor_of, degree_of):
    out = values.copy()
    for u in nodes:
        neigh = neighbor_of(u)
        own = float((features[u] ** 2).sum())
        if len(neigh) == 0:
            out[u] = np.sqrt(own)
            continue
        du = degree_of(u)
        dv = np.array([degree_of(v) for v in neigh], dtype=np.float64)
        w = np.sqrt(dv)
        agg = (features[neigh] * w[:, None]).sum(axis=0) / np.sqrt(du)
        out[u] = np.sqrt((agg**2).sum() + own)
    return out


def node_homophily(g, i):
    """Node i's homophily, recomputed on its own."""
    deg = g.degrees()
    return float(_recompute_nodes(np.zeros(g.num_nodes), [i], g.features, g.neighbors,
                                  lambda v: deg[v])[i])


def homophily_after_edge_removal(g, values, i, j):
    deg = g.degrees().astype(np.float64)

    def degree_of(u):
        return deg[u] - 1.0 if u in (i, j) else deg[u]

    def neighbor_of(u):
        neigh = g.neighbors(u)
        if u == i:
            return neigh[neigh != j]
        if u == j:
            return neigh[neigh != i]
        return neigh

    affected = {i, j} | set(int(v) for v in g.neighbors(i)) | set(
        int(v) for v in g.neighbors(j)
    )
    return _recompute_nodes(values, affected, g.features, neighbor_of, degree_of)


def homophily_after_feature_change(g, values, node, new_row):
    if np.array_equal(g.features[node], new_row):
        return values.copy()
    deg = g.degrees().astype(np.float64)
    features = g.features.copy()
    features[node] = new_row
    affected = {node} | set(int(v) for v in g.neighbors(node))
    return _recompute_nodes(values, affected, features, g.neighbors, lambda u: deg[u])
