"""Forward and backward passes for small GCN / SGC models on sparse graphs.

The two architectures share a weight container: a 2-layer GCN holds (W0, W1)
and propagates ``A_hat @ relu(A_hat @ X @ W0) @ W1``; SGC holds a single W
(``W1 is None``) and propagates ``A_hat^k @ X @ W``. Reverse mode produces
exact gradients for the weights and, on request, for the node features and
for each existing undirected adjacency entry -- the latter chained through
the symmetric degree normalization, degree terms included, so that removing
an edge is differentiated faithfully.

``forward_state`` and ``backward`` hold every intermediate on all n rows and
take full products. ``sweep`` gives many batches' weight gradients at once,
one training epoch on one graph view: on a large graph it multiplies only
the rows each batch reaches, with each batch's blocks of A laid along the
diagonal of one matrix per hop, and its gradients equal ``backward``'s.

All math is float64. ReLU's subgradient at 0 is taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from distpoison.graph import CSR, NormalizedAdjacency, matvecs, sparsetools

__all__ = [
    "ParamSet",
    "GradientBundle",
    "NumericalError",
    "forward",
    "forward_state",
    "ForwardState",
    "masked_ce_loss",
    "attack_loss",
    "backward",
    "sweep",
    "sgd_step",
    "fit_gcn",
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

    ``dA`` (when present) is a float64 vector with one value per undirected
    edge of the unnormalized adjacency, in ``adj.edge_list()`` order: the
    derivative w.r.t. the symmetric raw entry ``A[i, j] = A[j, i]``.
    ``l2_norm`` is the Euclidean norm of the flattened weight gradients.
    """

    dW0: np.ndarray
    dW1: np.ndarray | None = None
    dA: np.ndarray | None = None
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


# A view's batches are swept (see ``sweep``) once A holds at least
# _LIMITED_MIN_NNZ entries and each batch's rows at each hop hold at most
# 1/_LIMITED_SHARE of them; on smaller or more fully reached matrices the
# field search costs more than the full products. The threshold lies
# between the largest measured graph on which full products were as fast
# and the smallest on which the sweep was faster. Median epoch of
# train_distributed with the sweep allowed at any size against never
# (degree 6.4, 8 workers, batches of 8, two views, the poisoned one 5% of
# its edges short, 4 seeds x 6 alternating rounds of 100 epochs, 2-core
# x86, one BLAS thread; the share of view-epochs the share rule let sweep):
#   n =   400 (nnz  3,112): 1.64 against 1.37 ms, sweep faster in  0 of 24 (5%)
#   n =   600 (nnz  4,546): 1.33 against 1.27 ms, sweep faster in 13 of 24 (72%)
#   n =   800 (nnz  6,106): 1.21 against 2.05 ms, sweep faster in 23 of 24 (100%)
#   n = 1,200 (nnz  8,660): 1.44 against 3.15 ms, sweep faster in 24 of 24 (100%)
#   n = 1,600 (nnz 11,908): 1.39 against 3.83 ms, sweep faster in 24 of 24 (100%)
# A share of 4 against 8 was faster in 14, 7 and 19 of 24 runs at n = 800,
# 1,600 and 3,200 when each batch's products were limited on their own: no
# consistent gain, so 8 stays.
_LIMITED_MIN_NNZ = 5_000
_LIMITED_SHARE = 8


def _rowwise(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``M @ W`` with each row as a GEMM over many rows computes it.

    numpy hands a one-row M to GEMV, which can add a row's terms in another
    order than GEMM; a zero row keeps it on GEMM.
    """
    if len(M) > 1:
        return M @ W
    return (np.vstack([M, np.zeros_like(M)]) @ W)[:1]


def _stable_sort(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for a stable argsort ``order`` of int64 keys
    in [0, bound).

    The keys are sorted with their positions packed into the low bits, so
    one plain sort stands in for the stable argsort: 29 against 127 µs on
    3,724 keys of seven batches' second hop at n = 6,400 (numpy 2.4.6,
    2-core x86).
    """
    bits = len(keys).bit_length()
    if bound >= 1 << (63 - bits):  # the packed keys would overflow
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    tagged = np.sort((keys << bits) | np.arange(len(keys)))
    return tagged & ((1 << bits) - 1), tagged >> bits


def _gathers(A: CSR, batches: list, depth: int) -> tuple | None:
    """What one sweep of ``depth`` products over ``batches`` reads, or None
    when some batch reaches too much of A.

    ``batches`` are int64 arrays of distinct node ids. The result is
    ``(fields, bounds, blocks)``. ``fields[h]`` lays every batch's sorted
    node ids h hops out end to end, batch after batch, and ``bounds[h]``
    lists each batch's start in it, then its end. ``blocks[h]`` is
    ``(indptr, cols, data)``: in CSR form, the block-diagonal matrix whose
    block b is A on batch b's rows h + 1 hops out and its columns h hops
    out, ``cols`` counting positions in ``fields[h]``; each row holds its
    entries in ascending column order, as in A's own row. Read as CSC, the
    same arrays are A's blocks on the rows h hops out and the columns
    h + 1 hops out: the forward product at hop h.

    All batches are gathered together, from A's CSR arrays: one sort of
    (batch, node) keys gives every batch's rows, and one stable sort of
    (batch, column) keys per hop gives every batch's reached rows and its
    block. A batch's product at hop h pays while its rows h hops out hold
    at most 1/_LIMITED_SHARE of A's entries; the search stops with None at
    the first hop where some batch's does not.
    """
    nb, n = len(batches), A.shape[0]
    ids = np.arange(nb + 1)
    keys = np.sort(np.repeat(ids[:-1] * n, [len(b) for b in batches]) + np.concatenate(batches))
    bid = keys // n  # each row's batch, ascending
    rows = keys - bid * n
    fields, bounds, blocks = [rows], [np.searchsorted(bid, ids).tolist()], []
    for _ in range(depth):
        lo = A.indptr[rows]
        lens = A.indptr[rows + 1] - lo
        if (np.bincount(bid, weights=lens, minlength=nb) * _LIMITED_SHARE > A.nnz).any():
            return None
        pos = np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        order, reach = _stable_sort(np.repeat(bid * n, lens) + A.indices[pos], nb * n)
        new = np.empty(len(reach) + 1, dtype=bool)
        new[0] = new[-1] = True
        np.not_equal(reach[1:], reach[:-1], out=new[1:-1])
        indptr = np.flatnonzero(new)  # each reached row's first entry, and the end
        cols = np.repeat(np.arange(len(rows)), lens)[order]
        reach = reach[indptr[:-1]]
        bid = reach // n
        rows = reach - bid * n
        fields.append(rows)
        bounds.append(np.searchsorted(bid, ids).tolist())
        blocks.append((indptr, cols, A.data[pos[order]]))
    return fields, bounds, blocks


@dataclass
class ForwardState:
    """The forward intermediates that ``backward`` reverses, on all n rows,
    logits last."""

    values: tuple


def forward(params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray) -> np.ndarray:
    """Logits on every node: ``A relu(A X W0) W1`` for the GCN, ``A^k X W0``
    for the linear model (no activation on the output)."""
    Z = forward_state(params, adj, X).values[-1]
    _check_finite("forward logits", Z)
    return Z


def forward_state(params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray) -> ForwardState:
    """The forward intermediates that ``backward`` reverses; logits last.

    For the GCN this is ``(P, S0, H, Q, Z)`` with ``P = X W0``, ``S0 = A P``,
    ``H = relu(S0)``, ``Q = H W1`` and ``Z = A Q``; for the linear model it is
    ``(U_0, ..., U_k)`` with ``U_0 = X W0`` and ``U_t = A U_{t-1}``, k >= 1.
    Every intermediate is held on all n rows, and every product is full.
    The state depends on the weights, the adjacency and the features only,
    so every batch on the same graph view under the same weights can share
    one.
    """
    if params.W1 is None and params.k < 1:
        raise ValueError(f"propagation depth must be >= 1, got {params.k}")
    _check_finite("forward inputs", X, *params.weights())
    A = adj.matrix
    U0 = X @ params.W0
    if params.W1 is not None:
        S0 = A @ U0
        H = np.maximum(S0, 0.0)
        Q = _rowwise(H, params.W1)
        return ForwardState((U0, S0, H, Q, A @ Q))
    us = [U0]
    for _ in range(params.k):
        us.append(A @ us[-1])
    return ForwardState(tuple(us))


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
    Z: np.ndarray, y: np.ndarray, counts: np.ndarray | None, listed, objective: str
) -> np.ndarray:
    """dLoss/dlogits on the rows of the logits Z, whose labels are y.

    A node listed more than once counts once per listing (``counts``; None:
    once each), as in the losses; ``listed`` is the number of listings, or
    a column of them, one per row.
    """
    probs = np.exp(_log_softmax(Z))
    probs[np.arange(len(Z)), y] -= 1.0
    if counts is not None:
        probs *= counts[:, None]
    if objective == "masked_ce":
        return probs / listed
    if objective == "attack":
        return -probs
    raise ValueError(f"unknown objective {objective!r}")


def _adjacency_entry_grads(
    adj: NormalizedAdjacency, products: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Gradient w.r.t. each existing undirected entry of the raw adjacency,
    one value per edge of ``adj.edge_list()``, in that order.

    ``products`` is a list of (upstream, downstream) pairs such that the loss
    gradient w.r.t. the normalized matrix is ``sum_t upstream_t @ downstream_t.T``,
    needed only on the normalized support. Chains through the entry value and
    through both endpoint degrees.
    """
    rows, cols, avals = adj.support()
    m = np.zeros(len(rows))
    for up, down in products:
        m += np.einsum("ij,ij->i", up[rows], down[cols])
    t_vals = m * avals
    n = adj.num_nodes
    row_sums = np.bincount(rows, weights=t_vals, minlength=n)
    col_sums = np.bincount(cols, weights=t_vals, minlength=n)
    deg = adj.degrees

    # The support is sorted by (row, column): its upper entries are the edges
    # in order, and its lower entries (l, k), sorted stably by k, their mirrors.
    upper, lower = rows < cols, rows > cols
    k, l = rows[upper], cols[upper]
    mirror = m[lower][np.argsort(cols[lower], kind="stable")]
    direct = (m[upper] + mirror) / np.sqrt(deg[k] * deg[l])
    degree_term = 0.5 * (
        (row_sums[k] + col_sums[k]) / deg[k] + (row_sums[l] + col_sums[l]) / deg[l]
    )
    return direct - degree_term


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
    or "attack" (negated CE sum over node_set as targets). A node listed
    twice in node_set counts twice; with ``assume_unique`` the caller
    vouches that none is, as for a batch drawn without replacement, and the
    pass skips that check. ``state`` is the ``forward_state`` of the same
    weights, adjacency and features, built here when not given. Every
    product is full: ``A @ M`` through scipy's CSR kernel (A is symmetric,
    so a product with A reverses one). The weight gradients of many batches
    of one training epoch come cheaper from ``sweep``.
    """
    node_set = np.asarray(node_set, dtype=np.int64)
    if len(node_set) == 0:
        raise ValueError("node_set must be nonempty")
    if state is None:
        state = forward_state(params, adj, X)
    A = adj.matrix
    Z = state.values[-1]
    rows, counts = (node_set, None) if assume_unique else np.unique(node_set, return_counts=True)
    dZ = np.zeros(Z.shape)
    dZ[rows] = _loss_grad_rows(Z[rows], labels[rows], counts, len(node_set), objective)
    if params.W1 is not None:
        P, _, H, Q, _ = state.values
        dQ = A @ dZ
        dW1 = H.T @ dQ
        dS0 = _rowwise(dQ, params.W1.T) * (H > 0.0)  # H > 0 exactly where S0 > 0
        dP = A @ dS0
        dW0 = X.T @ dP
        dX = dP @ params.W0.T if want_dX else None
        dA = _adjacency_entry_grads(adj, [(dZ, Q), (dS0, P)]) if want_dA else None
        _check_finite("backward gradients", dW0, dW1, dX)
        return GradientBundle.from_grads(dW0, dW1, dA, dX)

    # Linear propagation model: Z = A^k (X W0).
    dus = [dZ]
    for _ in range(params.k):
        dus.append(A @ dus[-1])
    dus.reverse()  # dus[t] = dLoss/dU_t
    dW0 = X.T @ dus[0]
    dX = dus[0] @ params.W0.T if want_dX else None
    dA = (
        _adjacency_entry_grads(adj, [(dus[t + 1], state.values[t]) for t in range(params.k)])
        if want_dA
        else None
    )
    _check_finite("backward gradients", dW0, dX)
    return GradientBundle.from_grads(dW0, None, dA, dX)


def sweep(
    params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray, labels: np.ndarray, batches: list
) -> list[GradientBundle] | None:
    """Each batch's mean cross-entropy weight gradients, in one pass over
    all batches, or None when the batches should take ``backward``'s full
    products instead.

    ``batches`` are arrays of distinct node ids, as drawn without
    replacement. This is the one place that decides whether products are
    limited to the rows a batch reaches: on an A of at least
    _LIMITED_MIN_NNZ entries whose every batch passes the share rule at
    every hop (see ``_gathers``). One ``_gathers`` call then finds every
    batch's fields, and its blocks of A, laid end to end, make one
    block-diagonal matrix per hop: for the GCN, ``X W0`` is taken on the
    fields two hops out, ``S0``, ``H`` and ``Q`` one hop out and the logits
    on the batches, each product through scipy's CSC kernel; the loss
    gradient on each batch's rows is divided by that batch's length; and
    ``dQ``, ``dS0`` and ``dP`` go back through the CSR kernel. Each batch's
    ``dW1 = H_b.T dQ_b`` and ``dW0 = X_b.T dP_b`` are GEMMs over its own
    slices. The linear model of depth k works the same way over k hops.
    Only the rows of X in the deepest fields are read.

    Every output row sums the same entries of A, in the same ascending
    column order, as the full product ``A @ M``, so each bundle is
    bit-identical to ``backward`` with ``assume_unique`` while the
    row-restricted GEMMs stay on OpenBLAS's small-matrix kernel (m*n*k <=
    10**6, every weight at least two wide), and agrees within rounding
    beyond it. Nothing is checked for finiteness: a non-finite input
    leaves non-finite gradients in the bundles of the batches that read it.
    """
    A, gcn = adj.matrix, params.W1 is not None
    depth = 2 if gcn else params.k
    found = _gathers(A, batches, depth) if A.nnz >= _LIMITED_MIN_NNZ and depth >= 1 else None
    if found is None:
        return None
    fields, bounds, blocks = found

    def forward_product(h, M):  # A @ M at hop h, for M on fields[h + 1]
        return matvecs(sparsetools.csc_matvecs, len(fields[h]), blocks[h], M)

    def reverse_product(h, M):  # A @ M at hop h, for M on fields[h]
        return matvecs(sparsetools.csr_matvecs, len(fields[h + 1]), blocks[h], M)

    def part(M, h, b):  # batch b's rows of M, held on fields[h]
        return M[bounds[h][b]:bounds[h][b + 1]]

    sizes = np.diff(bounds[0])
    Xf = X[fields[depth]]
    with np.errstate(over="ignore", invalid="ignore"):
        U = _rowwise(Xf, params.W0)
        if gcn:
            H = np.maximum(forward_product(1, U), 0.0)
            U = forward_product(0, _rowwise(H, params.W1))
        else:
            for h in range(depth - 1, -1, -1):
                U = forward_product(h, U)
        dU = _loss_grad_rows(U, labels[fields[0]], None, np.repeat(sizes, sizes)[:, None],
                             "masked_ce")
        if gcn:
            dQ = reverse_product(0, dU)
            dU = reverse_product(1, _rowwise(dQ, params.W1.T) * (H > 0.0))
        else:
            for h in range(depth):
                dU = reverse_product(h, dU)
        return [
            GradientBundle.from_grads(
                part(Xf, depth, b).T @ part(dU, depth, b),
                part(H, 1, b).T @ part(dQ, 1, b) if gcn else None,
            )
            for b in range(len(batches))
        ]


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


def fit_gcn(
    params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray, labels: np.ndarray,
    rows: np.ndarray, epochs: int,
) -> ParamSet:
    """The 2-layer GCN ``params`` after ``epochs`` full-batch descent steps
    on the mean cross-entropy over ``rows`` (unique node ids); inputs
    untouched.

    Each epoch is ``sgd_step(params, backward(params, adj, X, labels, rows,
    assume_unique=True))`` bit for bit: the same full products and GEMMs in
    the same order, without the per-epoch state, bundle, copies and checks.
    The training rows' labels and the zeroed loss-gradient buffer, which is
    nonzero on ``rows`` only, are built once. Raises ``NumericalError`` if
    the final weights are not finite: a non-finite gradient makes some
    weight non-finite, and descent never makes it finite again.
    """
    A, lr = adj.matrix, params.learning_rate
    W0, W1 = params.W0, params.W1
    y, at = labels[rows], np.arange(len(rows))
    dZ = np.zeros((A.shape[0], W1.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            H = np.maximum(A @ (X @ W0), 0.0)
            probs = np.exp(_log_softmax((A @ _rowwise(H, W1))[rows]))
            probs[at, y] -= 1.0
            dZ[rows] = probs / len(rows)
            dQ = A @ dZ
            dW1 = H.T @ dQ
            dS0 = _rowwise(dQ, W1.T) * (H > 0.0)
            W0 = W0 - lr * (X.T @ (A @ dS0))
            W1 = W1 - lr * dW1
    _check_finite("surrogate weights", W0, W1)
    return ParamSet(W0=W0, W1=W1, learning_rate=lr, k=params.k)


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
    dense = inv[:, None] * a_tilde * inv[None, :]
    rows, cols = np.nonzero(dense)  # row-major: each row's columns ascending
    m = CSR.square(np.searchsorted(rows, np.arange(n + 1)), cols, dense[rows, cols])
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
    numeric = np.zeros(len(edges))
    for e, (i, j) in enumerate(edges):
        hi = loss_at(params, _renormalized(adj, i, j, 1.0 + epsilon), X)
        lo = loss_at(params, _renormalized(adj, i, j, 1.0 - epsilon), X)
        numeric[e] = (hi - lo) / (2 * epsilon)
    report["A"] = _rel_err(bundle.dA, numeric)
    return GradCheckReport(max_rel_err=report)
