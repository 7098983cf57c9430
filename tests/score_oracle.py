"""Edge scoring as first written, kept as the test oracle.

Scores go through sparse matrices: a symmetric communication matrix, the
gradient and the score matrix itself, then a dict of the upper triangle.
``distpoison.attack.edge_scores`` computes flat arrays instead and must give
the same keys, zero scores included, and bit-identical values.
"""

import numpy as np
import scipy.sparse as sp


def communication_matrix(sub, part):
    n = sub.num_nodes
    if len(sub.edges) == 0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    gi = sub.node_ids[sub.edges[:, 0]]
    gj = sub.node_ids[sub.edges[:, 1]]
    if gi.max(initial=-1) >= len(part.assignment) or gj.max(initial=-1) >= len(part.assignment):
        raise ValueError("subgraph node missing from partition assignment")
    vals = np.where(part.assignment[gi] != part.assignment[gj], 1.0, -1.0)
    r = np.concatenate([sub.edges[:, 0], sub.edges[:, 1]])
    c = np.concatenate([sub.edges[:, 1], sub.edges[:, 0]])
    return sp.coo_matrix((np.concatenate([vals, vals]), (r, c)), shape=(n, n)).tocsr()


def edge_scores(edge_grad, sub, part, lambda_comm):
    """The symmetric score matrix of the subgraph's edges."""
    n = sub.num_nodes
    comm = communication_matrix(sub, part)
    if len(sub.edges) == 0:
        return sp.csr_matrix((n, n))
    i, j = sub.edges[:, 0], sub.edges[:, 1]
    vals = np.asarray(edge_grad[i, j]).ravel() + lambda_comm * np.asarray(comm[i, j]).ravel()
    r = np.concatenate([i, j])
    c = np.concatenate([j, i])
    return sp.coo_matrix((np.concatenate([vals, vals]), (r, c)), shape=(n, n)).tocsr()


def global_items(scores, sub):
    out = {}
    coo = sp.triu(scores.tocoo(), k=1)
    for i, j, v in zip(coo.row, coo.col, coo.data):
        a, b = sorted((int(sub.node_ids[i]), int(sub.node_ids[j])))
        out[(a, b)] = float(v)
    return out
