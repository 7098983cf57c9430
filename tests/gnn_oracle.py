"""The reverse pass as first written, kept as the test oracle.

Every call runs its own full-graph forward pass and takes every reverse
product over the whole adjacency. ``distpoison.gnn.backward`` must return
bit-identical gradients, with or without a shared forward state and on
either side of its full/limited product choice.
"""

import numpy as np

from distpoison.gnn import (
    GradientBundle,
    _adjacency_entry_grads,
    _check_finite,
    _loss_grad_logits,
)


def backward(
    params, adj, X, labels, node_set, want_dA=False, want_dX=False, objective="masked_ce"
):
    node_set = np.asarray(node_set, dtype=np.int64)
    if len(node_set) == 0:
        raise ValueError("node_set must be nonempty")
    _check_finite("backward inputs", X, *params.weights())
    A = adj.matrix

    if params.W1 is not None:
        P = X @ params.W0
        S0 = A @ P
        H = np.maximum(S0, 0.0)
        Q = H @ params.W1
        Z = A @ Q
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
    us = [X @ params.W0]
    for _ in range(params.k):
        us.append(A @ us[-1])
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
