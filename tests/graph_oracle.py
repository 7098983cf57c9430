"""Graph routines as first written, kept as test oracles.

``generate_sbm`` draws all n x n uniforms at once and keeps the upper
triangle through ``triu_indices``; ``distpoison.graph.generate_sbm`` draws
the same stream a block of rows at a time and must return identical graphs.

``normalize_adjacency`` builds the self-looped matrix as COO from the edge
list, converts it to CSR and sorts the indices;
``distpoison.graph.normalize_adjacency`` builds the CSR arrays from the
graph's sorted rows and must return identical arrays.
"""

import numpy as np
import scipy.sparse as sp

from distpoison.graph import build_graph


def normalize_adjacency(g):
    """The normalized CSR matrix of ``g``."""
    deg_sl = g.degrees().astype(np.float64) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg_sl)
    e = g.edge_array()
    diag = np.arange(g.num_nodes)
    rows = np.concatenate([e[:, 0], e[:, 1], diag])
    cols = np.concatenate([e[:, 1], e[:, 0], diag])
    vals = inv_sqrt[rows] * inv_sqrt[cols]
    m = sp.coo_matrix((vals, (rows, cols)), shape=(g.num_nodes, g.num_nodes)).tocsr()
    m.sort_indices()
    return m


def generate_sbm(seed, block_sizes, p_intra, p_inter, feature_dim, noise,
                 train_frac=0.3, val_frac=0.2):
    block_sizes = list(block_sizes)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes).astype(np.int64)
    n = len(labels)

    u = rng.random((n, n))
    prob = np.where(labels[:, None] == labels[None, :], p_intra, p_inter)
    iu, ju = np.triu_indices(n, k=1)
    keep = u[iu, ju] < prob[iu, ju]
    edges = np.column_stack([iu[keep], ju[keep]])

    features = noise * rng.standard_normal((n, feature_dim))
    features[np.arange(n), labels] += 1.0

    train, val = [], []
    for b in range(len(block_sizes)):
        members = rng.permutation(np.flatnonzero(labels == b))
        n_train = int(round(train_frac * len(members)))
        n_val = int(round(val_frac * len(members)))
        train.extend(members[:n_train])
        val.extend(members[n_train : n_train + n_val])
    test = sorted(set(range(n)) - set(train) - set(val))
    return build_graph(edges, features, labels, (train, val, test))
