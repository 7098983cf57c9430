"""Forward and backward passes for small GCN / SGC models on sparse graphs.

The two architectures share a weight container: a 2-layer GCN holds (W0, W1)
and propagates ``A_hat @ relu(A_hat @ X @ W0) @ W1``; SGC holds a single W
(``W1 is None``) and propagates ``A_hat^k @ X @ W``. Reverse mode produces
exact gradients for the weights and, on request, for the node features and
for each existing undirected adjacency entry -- the latter chained through
the symmetric degree normalization, degree terms included, so that removing
an edge is differentiated faithfully.

All math is float64. ReLU's subgradient at 0 is taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from distpoison.graph import NormalizedAdjacency, _distinct

__all__ = [
    "ParamSet",
    "GradientBundle",
    "NumericalError",
    "gcn_forward",
    "sgc_forward",
    "forward",
    "forward_state",
    "ForwardState",
    "masked_ce_loss",
    "attack_loss",
    "backward",
    "sgd_step",
    "check_gradients",
    "GradCheckReport",
    "predict_accuracy",
]


class NumericalError(FloatingPointError):
    """A non-finite value appeared in a forward or backward pass."""


@dataclass
class ParamSet:
    """Model weights plus the SGD learning rate.

    ``W1 is None`` selects the single-weight linear propagation model with
    depth ``k``.
    """

    W0: np.ndarray
    W1: np.ndarray | None = None
    learning_rate: float = 0.1
    k: int = 2

    def weights(self) -> list[np.ndarray]:
        return [self.W0] if self.W1 is None else [self.W0, self.W1]

    def copy(self) -> "ParamSet":
        return ParamSet(
            W0=self.W0.copy(),
            W1=None if self.W1 is None else self.W1.copy(),
            learning_rate=self.learning_rate,
            k=self.k,
        )

    @staticmethod
    def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=(fan_in, fan_out))

    @classmethod
    def init_gcn(
        cls,
        feature_dim: int,
        hidden_dim: int,
        num_classes: int,
        seed: int = 0,
        learning_rate: float = 0.1,
    ) -> "ParamSet":
        rng = np.random.default_rng(seed)
        return cls(
            W0=cls._glorot(rng, feature_dim, hidden_dim),
            W1=cls._glorot(rng, hidden_dim, num_classes),
            learning_rate=learning_rate,
        )

    @classmethod
    def init_sgc(
        cls,
        feature_dim: int,
        num_classes: int,
        seed: int = 0,
        learning_rate: float = 0.1,
        k: int = 2,
    ) -> "ParamSet":
        rng = np.random.default_rng(seed)
        return cls(
            W0=cls._glorot(rng, feature_dim, num_classes),
            W1=None,
            learning_rate=learning_rate,
            k=k,
        )


@dataclass
class GradientBundle:
    """Gradients of a loss w.r.t. weights and optionally adjacency/features.

    ``dA`` (when present) is a symmetric sparse matrix over existing edges of
    the unnormalized adjacency; ``l2_norm`` is the Euclidean norm of the
    flattened weight gradients.
    """

    dW0: np.ndarray
    dW1: np.ndarray | None = None
    dA: sp.csr_matrix | None = None
    dX: np.ndarray | None = None
    l2_norm: float = 0.0

    @classmethod
    def from_grads(cls, dW0, dW1=None, dA=None, dX=None) -> "GradientBundle":
        sq = float((dW0**2).sum())
        if dW1 is not None:
            sq += float((dW1**2).sum())
        return cls(dW0=dW0, dW1=dW1, dA=dA, dX=dX, l2_norm=float(np.sqrt(sq)))

    def weight_grads(self) -> list[np.ndarray]:
        return [self.dW0] if self.dW1 is None else [self.dW0, self.dW1]


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        if a is not None and not np.isfinite(a).all():
            raise NumericalError(f"non-finite values encountered in {name}")


# A product with A is limited to the rows it gathers once A holds at least
# _LIMITED_MIN_NNZ entries and those rows hold at most 1/_LIMITED_SHARE of
# them; on smaller or more fully reached matrices the gather costs more than
# the full product. The threshold lies between two measured graphs (degree
# 6.4, median epoch of train_distributed, 2-core x86, one BLAS thread): at
# n = 1,200 (nnz 9,050) full products were faster, at n = 1,600 (nnz 11,932)
# limited ones.
_LIMITED_MIN_NNZ = 10_000
_LIMITED_SHARE = 8


def _limited_entries(A: sp.csr_matrix, rows: np.ndarray) -> tuple | None:
    """Positions in ``A.indices``/``A.data`` of the given rows' entries, in
    row then CSR order, and each row's entry count; None when A is too small
    or the rows hold too much of it for a limited product."""
    if A.nnz < _LIMITED_MIN_NNZ:
        return None
    lo = A.indptr[rows]
    lens = A.indptr[rows + 1] - lo
    total = int(lens.sum())
    if total * _LIMITED_SHARE > A.nnz:
        return None
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(total), lens


def _take(M: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """The rows of an n-row M (all of them when ``rows`` is None)."""
    return M if rows is None else M[rows]


def _full(block: np.ndarray, rows: np.ndarray | None, n: int) -> np.ndarray:
    """The n-row matrix that is ``block`` on ``rows`` and zero elsewhere."""
    if rows is None:
        return block
    out = np.zeros((n, block.shape[1]))
    out[rows] = block
    return out


def _rowwise(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``M @ W`` with each row as a GEMM over many rows computes it.

    numpy hands a one-row M to GEMV, which can add a row's terms in another
    order than GEMM; a zero row keeps it on GEMM.
    """
    if len(M) > 1:
        return M @ W
    return (np.vstack([M, np.zeros_like(M)]) @ W)[:1]


def _receptive_rows(A: sp.csr_matrix, rows, depth: int) -> list[tuple]:
    """Row-restricted copies of A for a forward pass that needs only ``rows``.

    Entry h of the ``depth`` entries is ``(field, sub)``: ``field`` holds the
    sorted nodes h hops from ``rows`` and ``sub`` is A's rows at those nodes,
    its columns numbered as the positions in field h + 1 when that field is
    limited and as node ids otherwise. From the first field whose rows hold
    more than 1/_LIMITED_SHARE of A on, entries are ``(None, A)``: all n
    rows. Every entry is ``(None, A)`` when ``rows`` is None, when A holds
    fewer than _LIMITED_MIN_NNZ entries, or when a deeper product would be
    full and only the logits' product limited: that one is at the output
    width and saves less than the gathers cost. Each row of ``sub @ M`` sums
    the same terms in the same CSR order as the same row of ``A @ M``, so the
    two agree bit for bit.
    """
    full = [(None, A)] * depth
    if rows is None or A.nnz < _LIMITED_MIN_NNZ:
        return full
    hops = []  # [field, entry positions, columns, entry counts]
    field = _distinct(rows)
    while len(hops) < depth:
        entries = _limited_entries(A, field)
        if entries is None:
            break
        pos, lens = entries
        if hops:  # the hop below reads this field's rows: number its columns in it
            hops[-1][2] = inverse.astype(A.indices.dtype)
        hops.append([field, pos, A.indices[pos], lens])
        if len(hops) < depth:
            field, inverse = np.unique(hops[-1][2], return_inverse=True)
    if len(hops) < min(depth, 2):
        return full
    out = []
    for h, (field, pos, cols, lens) in enumerate(hops):
        width = len(hops[h + 1][0]) if h + 1 < len(hops) else A.shape[1]
        indptr = np.zeros(len(field) + 1, dtype=A.indptr.dtype)
        np.cumsum(lens, out=indptr[1:])
        out.append((field, sp.csr_matrix((A.data[pos], cols, indptr), shape=(len(field), width))))
    return out + full[len(out):]


@dataclass(frozen=True)
class ForwardState:
    """The forward intermediates that ``backward`` reverses, logits last.

    ``values[t]`` holds intermediate t on the rows ``fields[t]`` (sorted
    node ids), or on all n rows when ``fields[t]`` is None.
    """

    values: tuple
    fields: tuple

    @property
    def limited(self) -> bool:
        return any(f is not None for f in self.fields)

    def take(self, t: int, rows: np.ndarray | None) -> np.ndarray:
        """Rows ``rows`` of intermediate t, all n of them when ``rows`` is None.

        Raises ValueError for rows the state does not hold.
        """
        M, held = self.values[t], self.fields[t]
        if held is None:
            return _take(M, rows)
        if rows is not None:
            at = np.minimum(np.searchsorted(held, rows), len(held) - 1)
            if (held[at] == rows).all():
                return M[at]
        raise ValueError(
            f"forward state holds intermediate {t} on {len(held)} rows only, "
            "not on every row asked for; pass the batch to forward_state"
        )


def _gcn_state(params: ParamSet, X: np.ndarray, hops: list) -> ForwardState:
    (f0, sub0), (f1, sub1) = hops  # the rows of Z, and of S0, H and Q (None: all n)
    P = X @ params.W0
    S0 = sub1 @ P
    H = np.maximum(S0, 0.0)
    Q = _rowwise(H, params.W1)
    return ForwardState((P, S0, H, Q, sub0 @ Q), (None, f1, f1, f1, f0))


def _sgc_state(params: ParamSet, X: np.ndarray, hops: list) -> ForwardState:
    hops = hops[::-1]  # hops[t - 1]: the rows of U_t
    us = [X @ params.W0]
    for _, sub in hops:
        us.append(sub @ us[-1])
    return ForwardState(tuple(us), (None, *(f for f, _ in hops)))


def gcn_forward(params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray) -> np.ndarray:
    """Logits of the 2-layer GCN (no activation on the output layer)."""
    if params.W1 is None:
        raise ValueError("gcn_forward requires a two-weight ParamSet")
    _check_finite("gcn_forward inputs", X, params.W0, params.W1)
    Z = _gcn_state(params, X, [(None, adj.matrix)] * 2).values[-1]
    _check_finite("gcn_forward logits", Z)
    return Z


def sgc_forward(params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray, k: int) -> np.ndarray:
    """Logits of the linear model: k propagation steps then one weight."""
    if k < 1:
        raise ValueError(f"propagation depth must be >= 1, got {k}")
    _check_finite("sgc_forward inputs", X, params.W0)
    U = _sgc_state(params, X, [(None, adj.matrix)] * k).values[-1]
    _check_finite("sgc_forward logits", U)
    return U


def forward(params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray) -> np.ndarray:
    if params.W1 is None:
        return sgc_forward(params, adj, X, params.k)
    return gcn_forward(params, adj, X)


def forward_state(
    params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray, rows=None
) -> ForwardState:
    """The forward intermediates that ``backward`` reverses; logits last.

    For the GCN this is ``(P, S0, H, Q, Z)`` with ``P = X W0``, ``S0 = A P``,
    ``H = relu(S0)``, ``Q = H W1`` and ``Z = A Q``; for the linear model it is
    ``(U_0, ..., U_k)`` with ``U_0 = X W0`` and ``U_t = A U_{t-1}``. The state
    depends on the weights, the adjacency and the features only, so every
    batch on the same graph view under the same weights can share one.

    ``rows`` names the nodes whose logits will be differentiated (repeats
    allowed); None means every node. On a large graph the products are then
    taken over the receptive field of ``rows`` only: Z over ``rows``, S0, H
    and Q over the nodes one hop away, and U_t over the nodes k - t hops
    away, each while that field passes the product rule (see
    ``_receptive_rows``); P and U_0 stay full. Held rows are bit-identical
    to the full state's while the row-restricted GEMM ``H W1`` stays on
    OpenBLAS's small-matrix kernel (see ``backward``).
    """
    _check_finite("forward inputs", X, *params.weights())
    A = adj.matrix
    if params.W1 is None:
        return _sgc_state(params, X, _receptive_rows(A, rows, params.k))
    return _gcn_state(params, X, _receptive_rows(A, rows, 2))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def masked_ce_loss(logits: np.ndarray, labels: np.ndarray, node_set) -> float:
    """Mean cross-entropy over the given node ids."""
    node_set = np.asarray(node_set, dtype=np.int64)
    if len(node_set) == 0:
        raise ValueError("node_set must be nonempty")
    ls = _log_softmax(logits[node_set])
    return float(-ls[np.arange(len(node_set)), labels[node_set]].mean())


def attack_loss(logits: np.ndarray, labels: np.ndarray, target_set) -> float:
    """Negated sum of target-node cross-entropies; the attacker drives this down."""
    target_set = np.asarray(target_set, dtype=np.int64)
    if len(target_set) == 0:
        raise ValueError("target_set must be nonempty")
    ls = _log_softmax(logits[target_set])
    return float(ls[np.arange(len(target_set)), labels[target_set]].sum())


def _loss_grad_rows(
    state: ForwardState,
    labels: np.ndarray,
    node_set: np.ndarray,
    objective: str,
    ordered: bool,
    assume_unique: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """dLoss/dlogits as ``(block, rows)``: zero outside the unique ``rows``.

    A node listed more than once counts once per listing, as in the losses.
    ``rows`` are sorted unless ``node_set`` is taken as unique and ``ordered``
    is false: only a limited product needs them in ascending order.
    """
    if assume_unique:
        rows, counts = (np.sort(node_set) if ordered else node_set), None
    else:
        rows, counts = np.unique(node_set, return_counts=True)
    probs = np.exp(_log_softmax(state.take(-1, rows)))
    probs[np.arange(len(rows)), labels[rows]] -= 1.0
    if counts is not None:
        probs *= counts[:, None]
    if objective == "masked_ce":
        return probs / len(node_set), rows
    if objective == "attack":
        return -probs, rows
    raise ValueError(f"unknown objective {objective!r}")


def _adjacency_entry_grads(
    adj: NormalizedAdjacency, products: list[tuple[np.ndarray, np.ndarray]]
) -> sp.csr_matrix:
    """Gradient w.r.t. each existing undirected entry of the raw adjacency.

    ``products`` is a list of (upstream, downstream) pairs such that the loss
    gradient w.r.t. the normalized matrix is ``sum_t upstream_t @ downstream_t.T``,
    needed only on the normalized support. Chains through the entry value and
    through both endpoint degrees.
    """

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
    # dA has the support of A off the diagonal, rows and columns sorted: an
    # upper entry is the next edge in order, a lower entry (r, c) takes the
    # value of edge (c, r).
    off = rows != cols
    r, c = rows[off], cols[off]
    lower = r > c
    edge_of = np.empty(len(r), dtype=np.int64)
    edge_of[~lower] = np.arange(len(k))
    edge_of[lower] = np.searchsorted(k * n + l, c[lower] * n + r[lower])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=n))])
    return sp.csr_matrix((vals[edge_of], c, indptr), shape=(n, n))


def _reverse_product(
    A: sp.csr_matrix, M: np.ndarray, rows: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``A @ M`` for the symmetric A and an M given on ``rows`` only.

    ``rows`` holds unique ids, sorted once A holds _LIMITED_MIN_NNZ entries,
    and M one row for each, zero elsewhere; None means M is a full n-row
    matrix. Returns the product as a block over
    the sorted rows it can be nonzero on, with those rows, or the full
    product with None. A symmetric A gives ``A @ M == A[rows].T @ M[rows]``:
    the limited path scatters the entries of ``rows`` into the block in
    order, so each output row sums the same terms in the same ascending
    order as scipy's CSR product, less the zero ones, and the two agree bit
    for bit.
    """
    if rows is not None:
        entries = _limited_entries(A, rows)
        if entries is not None:
            pos, lens = entries
            reached, slot = np.unique(A.indices[pos], return_inverse=True)
            w = M.shape[1]
            terms = A.data[pos, None] * np.repeat(M, lens, axis=0)
            # bincount adds its weights one by one in input order.
            flat = (slot[:, None] * w + np.arange(w)).ravel()
            out = np.bincount(flat, weights=terms.ravel(), minlength=len(reached) * w)
            return out.reshape(-1, w), reached
        M = _full(M, rows, A.shape[0])
    return A @ M, None


def backward(
    params: ParamSet,
    adj: NormalizedAdjacency,
    X: np.ndarray,
    labels: np.ndarray,
    node_set,
    want_dA: bool = False,
    want_dX: bool = False,
    objective: str = "masked_ce",
    state: ForwardState | None = None,
    assume_unique: bool = False,
) -> GradientBundle:
    """Exact reverse-mode gradients of the chosen objective.

    ``objective`` is "masked_ce" (mean CE over node_set, the training loss)
    or "attack" (negated CE sum over node_set as targets). ``state`` is a
    ``forward_state(params, adj, X, rows)`` whose ``rows`` include node_set,
    when the caller already has one; a state that does not hold a row the
    pass reads raises ValueError. Without a state, or when ``want_dA`` needs
    the intermediates on every row and ``state`` is limited, the pass
    computes its own. A node listed twice in node_set counts twice; with
    ``assume_unique`` the caller vouches that none is, as for a batch drawn
    without replacement, and the pass skips that check.

    Each reverse quantity is carried as a block over the rows it can be
    nonzero on, with those rows, or as a full matrix with None once a product
    went full; the dense steps then read only those rows of the state and of
    X. dA and dX are built from full matrices. A row-restricted GEMM sums the
    same nonzero terms as the full one. OpenBLAS adds them in the same order,
    so the two agree bit for bit, while the full product stays on its
    small-matrix GEMM kernel (m*n*k <= 10**6, every weight at least two
    wide); beyond that it sums over the n rows in blocks, or as a GEMV, and
    the two agree within rounding.
    """
    node_set = np.asarray(node_set, dtype=np.int64)
    if len(node_set) == 0:
        raise ValueError("node_set must be nonempty")
    if state is None or (want_dA and state.limited):
        state = forward_state(params, adj, X, None if want_dA else node_set)
    A = adj.matrix
    n = A.shape[0]
    ordered = A.nnz >= _LIMITED_MIN_NNZ  # a limited product may read the loss rows

    if params.W1 is not None:
        dZ, r0 = _loss_grad_rows(state, labels, node_set, objective, ordered, assume_unique)
        dQ, r1 = _reverse_product(A, dZ, r0)  # A is symmetric
        H = state.take(2, r1)
        dW1 = H.T @ dQ
        dS0 = _rowwise(dQ, params.W1.T) * (H > 0.0)  # H > 0 exactly where S0 > 0
        dP, r2 = _reverse_product(A, dS0, r1)
        dW0 = _take(X, r2).T @ dP
        dX = _full(dP, r2, n) @ params.W0.T if want_dX else None
        dA = (
            _adjacency_entry_grads(
                adj, [(_full(dZ, r0, n), state.values[3]), (_full(dS0, r1, n), state.values[0])]
            )
            if want_dA
            else None
        )
        _check_finite("backward gradients", dW0, dW1, dX)
        return GradientBundle.from_grads(dW0, dW1, dA, dX)

    # Linear propagation model: Z = A^k (X W0).
    dus = [_loss_grad_rows(state, labels, node_set, objective, ordered, assume_unique)]
    for _ in range(params.k):
        dus.append(_reverse_product(A, *dus[-1]))
    dus.reverse()  # dus[t] = dLoss/dU_t, with its rows
    du0, r0 = dus[0]
    dW0 = _take(X, r0).T @ du0
    dX = _full(du0, r0, n) @ params.W0.T if want_dX else None
    dA = (
        _adjacency_entry_grads(
            adj, [(_full(*dus[t + 1], n), state.values[t]) for t in range(params.k)]
        )
        if want_dA
        else None
    )
    _check_finite("backward gradients", dW0, dX)
    return GradientBundle.from_grads(dW0, None, dA, dX)


def sgd_step(params: ParamSet, grad: GradientBundle) -> ParamSet:
    """One descent step; returns a new ParamSet, inputs untouched."""
    weights = params.weights()
    grads = grad.weight_grads()
    if len(weights) != len(grads) or any(
        w.shape != g.shape for w, g in zip(weights, grads)
    ):
        raise ValueError("gradient shapes do not match parameter shapes")
    new = params.copy()
    new.W0 = new.W0 - params.learning_rate * grads[0]
    if new.W1 is not None:
        new.W1 = new.W1 - params.learning_rate * grads[1]
    return new


def predict_accuracy(
    params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray, labels: np.ndarray, mask
) -> float:
    """Micro accuracy of argmax predictions over the masked nodes."""
    ids = np.flatnonzero(mask) if np.asarray(mask).dtype == bool else np.asarray(mask)
    logits = forward(params, adj, X)
    return float((logits[ids].argmax(axis=1) == labels[ids]).mean())


# -- finite-difference oracle -------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: dict[str, float]

    @property
    def overall(self) -> float:
        return max(self.max_rel_err.values())


def _rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    # Coordinates where both sides are below the finite-difference resolution
    # floor are treated as agreeing; a ratio of pure roundoff noise is not
    # evidence of a wrong gradient.
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    rel = np.where(denom < floor, 0.0, err / np.where(denom < floor, 1.0, denom))
    return float(rel.max()) if rel.size else 0.0


def _renormalized(adj: NormalizedAdjacency, i: int, j: int, value: float) -> NormalizedAdjacency:
    """Rebuild the normalization with raw entry (i, j) = (j, i) set to ``value``.

    Dense, independent reconstruction used only by the oracle.
    """
    n = adj.num_nodes
    a = np.zeros((n, n))
    for k, l in adj.edge_list():
        a[k, l] = a[l, k] = 1.0
    a[i, j] = a[j, i] = value
    a_tilde = a + np.eye(n)
    d = a_tilde.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    m = sp.csr_matrix(inv[:, None] * a_tilde * inv[None, :])
    return NormalizedAdjacency(matrix=m, degrees=d)


def check_gradients(
    params: ParamSet,
    adj: NormalizedAdjacency,
    X: np.ndarray,
    labels: np.ndarray,
    node_set,
    epsilon: float = 1e-4,
    objective: str = "masked_ce",
) -> GradCheckReport:
    """Central-difference check of every gradient the engine produces.

    Perturbs each weight entry, each feature entry, and each existing
    undirected adjacency entry (renormalizing, so degree dependence is
    exercised) and compares against ``backward``. Intended for graphs of at
    most a few dozen nodes; cost is two forward passes per coordinate.
    """
    if adj.num_nodes > 64:
        raise ValueError("finite-difference oracle is limited to graphs of <= 64 nodes")
    node_set = np.asarray(node_set, dtype=np.int64)
    loss_of = masked_ce_loss if objective == "masked_ce" else attack_loss

    bundle = backward(
        params, adj, X, labels, node_set, want_dA=True, want_dX=True, objective=objective
    )

    def loss_at(p: ParamSet, a: NormalizedAdjacency, x: np.ndarray) -> float:
        return loss_of(forward(p, a, x), labels, node_set)

    def fd_tensor(base: np.ndarray, setter) -> np.ndarray:
        out = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = base[idx]
            base[idx] = orig + epsilon
            hi = setter()
            base[idx] = orig - epsilon
            lo = setter()
            base[idx] = orig
            out[idx] = (hi - lo) / (2 * epsilon)
            it.iternext()
        return out

    report: dict[str, float] = {}
    p = params.copy()
    report["W0"] = _rel_err(bundle.dW0, fd_tensor(p.W0, lambda: loss_at(p, adj, X)))
    if p.W1 is not None:
        report["W1"] = _rel_err(bundle.dW1, fd_tensor(p.W1, lambda: loss_at(p, adj, X)))
    Xw = X.copy()
    report["X"] = _rel_err(bundle.dX, fd_tensor(Xw, lambda: loss_at(params, adj, Xw)))

    edges = adj.edge_list()
    analytic = np.array([bundle.dA[i, j] for i, j in edges]) if len(edges) else np.zeros(0)
    numeric = np.zeros(len(edges))
    for e, (i, j) in enumerate(edges):
        hi = loss_at(params, _renormalized(adj, i, j, 1.0 + epsilon), X)
        lo = loss_at(params, _renormalized(adj, i, j, 1.0 - epsilon), X)
        numeric[e] = (hi - lo) / (2 * epsilon)
    report["A"] = _rel_err(analytic, numeric)
    return GradCheckReport(max_rel_err=report)
