"""The forward and reverse passes as first written, kept as the test oracle.

``gcn_state``/``sgc_state`` compute every forward intermediate on all n rows;
``distpoison.gnn.forward_state`` must hold bit-identical rows wherever it
holds a row, with or without a ``batches`` argument. Every ``backward`` call
runs its own full-graph forward pass and takes every reverse product over
the whole adjacency, and the adjacency-entry gradient is built
as a COO matrix, converted to CSR and index-sorted.
The loss gradient is an n-row matrix, a node listed several times
contributing once per listing. ``distpoison.gnn.backward`` must return
bit-identical gradients (dA with identical CSR arrays), with or without a
forward state built for the batch and on either side of its full/limited
product choice.
"""

import numpy as np
import scipy.sparse as sp

from conftest import scipy_csr
from distpoison.gnn import GradientBundle, _check_finite, _log_softmax


def gcn_state(params, A, X):
    P = X @ params.W0
    S0 = A @ P
    H = np.maximum(S0, 0.0)
    Q = H @ params.W1
    return P, S0, H, Q, A @ Q


def sgc_state(params, A, X, k):
    us = [X @ params.W0]
    for _ in range(k):
        us.append(A @ us[-1])
    return tuple(us)


def _loss_grad_logits(logits, labels, node_set, objective):
    rows, counts = np.unique(node_set, return_counts=True)
    probs = np.exp(_log_softmax(logits[rows]))
    probs[np.arange(len(rows)), labels[rows]] -= 1.0
    probs *= counts[:, None]
    dZ = np.zeros_like(logits)
    if objective == "masked_ce":
        dZ[rows] = probs / len(node_set)
    elif objective == "attack":
        dZ[rows] = -probs
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return dZ


def _adjacency_entry_grads(adj, products):
    rows, cols, avals = adj.support()

    def m_entries(r, c):
        out = np.zeros(len(r))
        for up, down in products:
            out += np.einsum("ij,ij->i", up[r], down[c])
        return out

    m_support = m_entries(rows, cols)
    t_vals = m_support * avals
    n = adj.num_nodes
    row_sums = np.bincount(rows, weights=t_vals, minlength=n)
    col_sums = np.bincount(cols, weights=t_vals, minlength=n)
    deg = adj.degrees

    edges = adj.edge_list()
    if len(edges) == 0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    k, l = edges[:, 0], edges[:, 1]
    direct = (m_entries(k, l) + m_entries(l, k)) / np.sqrt(deg[k] * deg[l])
    degree_term = 0.5 * (
        (row_sums[k] + col_sums[k]) / deg[k] + (row_sums[l] + col_sums[l]) / deg[l]
    )
    vals = direct - degree_term
    dA = sp.coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([k, l]), np.concatenate([l, k]))),
        shape=(n, n),
    ).tocsr()
    dA.sort_indices()
    return dA


def backward(
    params, adj, X, labels, node_set, want_dA=False, want_dX=False, objective="masked_ce"
):
    node_set = np.asarray(node_set, dtype=np.int64)
    if len(node_set) == 0:
        raise ValueError("node_set must be nonempty")
    _check_finite("backward inputs", X, *params.weights())
    A = scipy_csr(adj.matrix)

    if params.W1 is not None:
        P, S0, H, Q, Z = gcn_state(params, A, X)
        dZ = _loss_grad_logits(Z, labels, node_set, objective)
        dQ = A @ dZ  # A is symmetric
        dW1 = H.T @ dQ
        dS0 = (dQ @ params.W1.T) * (S0 > 0.0)
        dP = A @ dS0
        dW0 = X.T @ dP
        dX = dP @ params.W0.T if want_dX else None
        dA = _adjacency_entry_grads(adj, [(dZ, Q), (dS0, P)]) if want_dA else None
        _check_finite("backward gradients", dW0, dW1, dX)
        return GradientBundle.from_grads(dW0, dW1, dA, dX)

    # Linear propagation model: Z = A^k (X W0).
    us = sgc_state(params, A, X, params.k)
    Z = us[-1]
    dZ = _loss_grad_logits(Z, labels, node_set, objective)
    dus = [dZ]
    for _ in range(params.k):
        dus.append(A @ dus[-1])
    dus.reverse()  # dus[t] = dLoss/dU_t
    dW0 = X.T @ dus[0]
    dX = dus[0] @ params.W0.T if want_dX else None
    dA = (
        _adjacency_entry_grads(
            adj, [(dus[t + 1], us[t]) for t in range(params.k)]
        )
        if want_dA
        else None
    )
    _check_finite("backward gradients", dW0, dX)
    return GradientBundle.from_grads(dW0, None, dA, dX)
