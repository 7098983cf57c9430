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
from typing import NamedTuple

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


# A product with A is limited to the rows it gathers once A holds at least
# _LIMITED_MIN_NNZ entries and those rows hold at most 1/_LIMITED_SHARE of
# them; on smaller or more fully reached matrices the gather costs more than
# the full product. The threshold lies between the largest measured graph
# on which full products were faster and the smallest on which limited ones
# were. Median epoch of train_distributed with the limited products forced
# against kept full (degree 6.4, 8 workers, batches of 8, two views, 4 seeds
# x 6 alternating rounds, 2-core x86, one BLAS thread):
#   n =   400 (nnz  3,024): 2.21 against 1.88 ms, limited faster in  0 of 24
#   n =   600 (nnz  4,406): 2.37 against 2.18 ms, limited faster in  8 of 24
#   n =   800 (nnz  6,010): 2.04 against 2.70 ms, limited faster in 23 of 24
#   n = 1,200 (nnz  9,050): 2.57 against 3.99 ms, limited faster in 24 of 24
#   n = 1,600 (nnz 11,932): 2.40 against 4.39 ms, limited faster in 24 of 24
# A share of 4 against 8, both limited, was faster in 14, 7 and 19 of 24
# runs at n = 800, 1,600 and 3,200: no consistent gain, so 8 stays.
_LIMITED_MIN_NNZ = 5_000
_LIMITED_SHARE = 8


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


class _Gather(NamedTuple):
    """What one batch's reverse pass reads, found before the pass.

    ``rows`` are the batch's unique node ids, sorted when ``_gathers``
    found them, and ``counts`` how often each is listed (None:
    once each). ``steps[h]`` is the limited reverse product at hop h, as
    ``(indptr, cols, data, reached)``: the block of A on the rows
    ``reached`` (the sorted node ids h + 1 hops from the batch) and the
    columns at the rows h hops out, in CSR form; ``cols`` and ``data`` may
    be shared with other batches, which ``indptr`` skips. Read as CSC, the
    same arrays are A's block on the rows h hops out and the columns
    ``reached``: the forward product at hop h of a state built on the batch.
    The products from hop ``len(steps)`` on are full. ``at`` places the
    rows 0 and 1 hops out in the state: their positions in the field of the
    logits and of the intermediate below them (H for the GCN), the node ids
    where the state holds all n rows, None after a full product.
    """

    rows: np.ndarray
    counts: np.ndarray | None
    steps: tuple
    at: tuple


def _positions(field: np.ndarray | None, ids: np.ndarray) -> np.ndarray:
    """The positions of ``ids`` in the sorted ``field``, which holds them;
    ``ids`` itself when the field is None (all n rows)."""
    return ids if field is None else np.searchsorted(field, ids)


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


def _held_fields(rows: np.ndarray, steps: tuple, depth: int) -> list:
    """The fields of a forward state of ``depth`` products built on a batch
    with sorted unique ``rows`` and limited ``steps``: entry h holds the
    node ids h hops out, up to ``len(steps)`` (``X W0``'s) when every
    product is limited and below it otherwise. Empty (all n rows) when
    fewer than min(depth, 2) products are limited: a lone limited product
    at the logits is at the output width and saves less than it costs.
    """
    if len(steps) < min(depth, 2):
        return []
    fields = [rows, *(reached for *_, reached in steps)]
    return fields if len(steps) == depth else fields[:-1]


def _gathers(A: CSR, batches: list, depth: int) -> list[_Gather]:
    """Each batch's ``_Gather`` for a reverse pass of ``depth`` products over
    an A of at least _LIMITED_MIN_NNZ entries.

    The last batch holds every other batch's rows, and the passes read a
    forward state built on its fields (see ``_held_fields``) at hops 0 and
    1, where every batch's rows lie inside them. All batches are gathered
    together, from A's CSR arrays: one sort of (batch, node) keys
    gives every batch's rows, and one stable sort of (batch, column) keys
    per hop gives every batch's reached rows and its block of A, each block
    row's entries in ascending column order as in A's own row. A batch's
    product at hop h is limited while its rows h hops out hold at most
    1/_LIMITED_SHARE of A's entries; from its first full product on it
    gathers nothing more.
    """
    nb, n = len(batches), A.shape[0]
    ids = np.arange(nb + 1)
    sizes = [len(b) for b in batches]
    keys = np.sort(np.repeat(ids[:-1] * n, sizes) + np.concatenate(batches))
    counts = None
    if (keys[1:] == keys[:-1]).any():
        keys, counts = np.unique(keys, return_counts=True)
    bid = keys // n  # each row's batch, ascending
    rows = batch_rows = keys - bid * n
    bounds = np.searchsorted(bid, ids).tolist()
    hops = []  # per hop, every live batch's arrays in turn, sliced per batch by offsets
    live = np.ones(nb, dtype=bool)
    for h in range(depth):
        lo = A.indptr[rows]
        lens = A.indptr[rows + 1] - lo
        live &= np.bincount(bid, weights=lens, minlength=nb) * _LIMITED_SHARE <= A.nnz
        if not live.all():
            if not live.any():
                break
            keep = live[bid]
            bid, lo, lens = bid[keep], lo[keep], lens[keep]
        row = np.arange(len(bid)) - np.searchsorted(bid, ids)[bid]  # index in its batch
        pos = np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        order, reach = _stable_sort(np.repeat(bid * n, lens) + A.indices[pos], nb * n)
        new = np.empty(len(reach) + 1, dtype=bool)
        new[0] = new[-1] = True
        np.not_equal(reach[1:], reach[:-1], out=new[1:-1])
        indptr = np.flatnonzero(new)  # each reached row's first entry, and the end
        reach = reach[indptr[:-1]]
        bid = reach // n
        rows = reach - bid * n
        hops.append((live.tolist(), np.searchsorted(bid, ids).tolist(), indptr,
                     np.repeat(row, lens)[order], A.data[pos[order]], rows))
    steps = []
    for b in range(nb):
        mine = []
        for held, rb, indptr, cols, data, reached in hops:
            if not held[b]:
                break
            mine.append((indptr[rb[b]:rb[b + 1] + 1], cols, data, reached[rb[b]:rb[b + 1]]))
        steps.append(tuple(mine))
    held = _held_fields(batch_rows[bounds[-2]:], steps[-1], depth)
    f0, f1 = held[:2] if held else (None, None)
    row_at = _positions(f0, batch_rows)
    reached_at, rb = (_positions(f1, hops[0][-1]), hops[0][1]) if hops else (None, None)
    out = []
    for b, mine in enumerate(steps):
        r = slice(bounds[b], bounds[b + 1])
        at = (row_at[r], reached_at[rb[b]:rb[b + 1]] if mine else None)
        out.append(_Gather(batch_rows[r], None if counts is None else counts[r], mine, at))
    return out


@dataclass
class ForwardState:
    """The forward intermediates that ``backward`` reverses, logits last.

    ``values[t]`` holds intermediate t on the rows ``fields[t]`` (sorted
    node ids), or on all n rows when ``fields[t]`` is None. ``gathers``
    maps each batch the state was built for, by the bytes of its int64 ids,
    to what that batch's reverse pass reads (see ``_gathers``), found in the
    same search as the fields.
    """

    values: tuple
    fields: tuple
    gathers: dict | None = None

    @property
    def limited(self) -> bool:
        return any(f is not None for f in self.fields)


def _state(params: ParamSet, A: CSR, X: np.ndarray, fields=(), steps=()
           ) -> tuple[tuple, tuple]:
    """The forward intermediates, logits last, and the rows each is held on.

    ``fields`` and ``steps`` come from the ``_Gather`` of the rows whose
    logits are wanted (see ``_held_fields``); both are empty for a state on
    all n rows. The product at hop h (hop 0 gives the logits) is the step's
    block through scipy's CSC kernel ``csc_matvecs`` while ``steps`` holds
    one for hop h, and ``A @ M`` (its CSR kernel) from then on. A is
    symmetric and both kernels add each output row's terms in ascending
    column order, so the two agree bit for bit.
    """
    def on(h):  # the rows held h hops out (None: all n)
        return fields[h] if h < len(fields) else None

    def product(h, M):  # A @ M at hop h, for M on the rows h + 1 hops out
        if h >= len(steps):
            return A @ M
        M = M if on(h + 1) is not None else M[steps[h][3]]
        return matvecs(sparsetools.csc_matvecs, len(fields[h]), steps[h], M)

    depth = 2 if params.W1 is not None else params.k
    U0 = X @ params.W0 if on(depth) is None else _rowwise(X[on(depth)], params.W0)
    if params.W1 is not None:
        S0 = product(1, U0)
        H = np.maximum(S0, 0.0)
        Q = _rowwise(H, params.W1)
        return (U0, S0, H, Q, product(0, Q)), (on(2), on(1), on(1), on(1), on(0))
    us = [U0]
    for h in range(depth - 1, -1, -1):
        us.append(product(h, us[-1]))
    return tuple(us), tuple(on(h) for h in range(depth, -1, -1))


def forward(params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray) -> np.ndarray:
    """Logits on every node: ``A relu(A X W0) W1`` for the GCN, ``A^k X W0``
    for the linear model (no activation on the output)."""
    Z = forward_state(params, adj, X).values[-1]
    _check_finite("forward logits", Z)
    return Z


def forward_state(
    params: ParamSet, adj: NormalizedAdjacency, X: np.ndarray, batches: list | None = None
) -> ForwardState:
    """The forward intermediates that ``backward`` reverses; logits last.

    For the GCN this is ``(P, S0, H, Q, Z)`` with ``P = X W0``, ``S0 = A P``,
    ``H = relu(S0)``, ``Q = H W1`` and ``Z = A Q``; for the linear model it is
    ``(U_0, ..., U_k)`` with ``U_0 = X W0`` and ``U_t = A U_{t-1}``, k >= 1.
    The state depends on the weights, the adjacency and the features only,
    so every batch on the same graph view under the same weights can share
    one.

    This is the one place that decides whether products are limited.
    ``batches`` lists the node-id arrays (repeats allowed) whose reverse
    passes will read the state. Without batches, or on a graph of fewer
    than _LIMITED_MIN_NNZ entries, the state holds all n rows and every
    product is full. Otherwise one ``_gathers`` call over the batches, with
    their union as one more batch when there are several, finds every
    field: each batch's gathers for its reverse pass, and the union's hop
    fields and blocks of A. The state is held on the union's fields while
    they pass the product rule (see ``_held_fields``): Z over the union,
    S0, H and Q over the nodes one hop away, U_t over the nodes k - t hops
    away, and ``X W0`` over the field the deepest limited product reads.
    Its products read the union's blocks, the same arrays the reverse
    passes read, through the CSC kernel (see ``_state``). Held rows are
    bit-identical to the full state's while the row-restricted GEMMs
    ``X W0`` and ``H W1`` stay on OpenBLAS's small-matrix kernel, and agree
    within rounding beyond it (see ``backward``).
    """
    if params.W1 is None and params.k < 1:
        raise ValueError(f"propagation depth must be >= 1, got {params.k}")
    _check_finite("forward inputs", X, *params.weights())
    A = adj.matrix
    if not batches or A.nnz < _LIMITED_MIN_NNZ:
        return ForwardState(*_state(params, A, X))
    depth = 2 if params.W1 is not None else params.k
    batches = [np.asarray(b, dtype=np.int64) for b in batches]
    # One batch is its own union.
    found = _gathers(A, batches + [np.concatenate(batches)] if len(batches) > 1 else batches, depth)
    union = found[-1]
    held = _held_fields(union.rows, union.steps, depth)
    values, fields = _state(params, A, X, held, union.steps if held else ())
    return ForwardState(values, fields, {b.tobytes(): g for b, g in zip(batches, found)})


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
    Z: np.ndarray, labels: np.ndarray, g: _Gather, listed: int, objective: str
) -> np.ndarray:
    """dLoss/dlogits on the batch's unique rows ``g.rows``, zero elsewhere.

    A node listed more than once counts once per listing, as in the losses;
    ``listed`` is the number of listings.
    """
    probs = np.exp(_log_softmax(Z[g.at[0]]))
    probs[np.arange(len(g.rows)), labels[g.rows]] -= 1.0
    if g.counts is not None:
        probs *= g.counts[:, None]
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


def _reverse_product(
    A: CSR, M: np.ndarray, step: tuple | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``A @ M`` for the symmetric A.

    With ``step`` None, M is a full n-row matrix and so is the product,
    returned with None. Otherwise ``step`` is a ``_Gather`` step and M holds
    the rows at the step's columns, one each, of an n-row matrix that is
    zero on every other row; the product is returned as a block over the
    sorted rows ``reached``, the only ones it can be nonzero on, with those
    rows. It is the step's block of A times M through scipy's CSR kernel,
    the one ``A @ M`` runs: each block row holds the entries of A's row,
    less those at rows of M that are zero, in the same order, so the two
    agree bit for bit.
    """
    if step is None:
        return A @ M, None
    return matvecs(sparsetools.csr_matvecs, len(step[3]), step, M), step[3]


def _hop_product(A: CSR, g: _Gather, h: int, M: np.ndarray, rows) -> tuple:
    """``A @ M`` at hop h of g's reverse pass, for M on ``rows`` (None: all n
    rows): limited while g holds a step for hop h, full from then on. A is
    symmetric, so a product with A reverses a product with A."""
    if h < len(g.steps):
        return _reverse_product(A, M, g.steps[h])
    if rows is not None:
        M = _full(M, rows, A.shape[0])
    return _reverse_product(A, M, None)


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
    vouches that none is, as for a batch drawn without replacement, and a
    pass with full products skips that check.

    Whether products are limited is decided by ``forward_state`` alone.
    Without ``state``, the pass builds the full state and takes full
    products. Given a state, it reads the gathers found for node_set when
    the state was built for it as one of its batches (the same ids in the
    same order), and takes full products when it was not; a limited state
    asked for a node set outside its batches raises ValueError. When
    ``want_dA`` needs the intermediates on every row and ``state`` is
    limited, the pass builds a full one.

    Limited products read the same blocks of A that the state multiplies
    by (see ``_Gather``), through scipy's CSR kernel.
    Each reverse quantity is carried as a block over the rows it can be
    nonzero on, with those rows, or as a full matrix with None once a
    product went full; the dense steps then read only those rows of the
    state and of X. dA and dX are built from full matrices. A
    row-restricted GEMM sums the same nonzero terms as the full one.
    OpenBLAS adds them in the same order, so the two agree bit for bit,
    while the full product stays on its small-matrix GEMM kernel
    (m*n*k <= 10**6, every weight at least two wide); beyond that it sums
    over the n rows in blocks, or as a GEMV, and the two agree within
    rounding.
    """
    node_set = np.asarray(node_set, dtype=np.int64)
    if len(node_set) == 0:
        raise ValueError("node_set must be nonempty")
    if state is None or (want_dA and state.limited):
        state = forward_state(params, adj, X)
    A = adj.matrix
    n = A.shape[0]
    g = state.gathers.get(node_set.tobytes()) if state.gathers else None
    if g is None:
        if state.limited:
            raise ValueError(
                "forward state is limited to the batches it was built for, "
                "and node_set is not one of them; pass it to forward_state"
            )
        rows, counts = (node_set, None) if assume_unique else np.unique(node_set, return_counts=True)
        g = _Gather(rows, counts, (), (rows, None))

    dZ = _loss_grad_rows(state.values[-1], labels, g, len(node_set), objective)
    if params.W1 is not None:
        dQ, r1 = _hop_product(A, g, 0, dZ, g.rows)
        H = _take(state.values[2], g.at[1])
        dW1 = H.T @ dQ
        dS0 = _rowwise(dQ, params.W1.T) * (H > 0.0)  # H > 0 exactly where S0 > 0
        dP, r2 = _hop_product(A, g, 1, dS0, r1)
        dW0 = _take(X, r2).T @ dP
        dX = _full(dP, r2, n) @ params.W0.T if want_dX else None
        dA = (
            _adjacency_entry_grads(
                adj,
                [(_full(dZ, g.rows, n), state.values[3]), (_full(dS0, r1, n), state.values[0])],
            )
            if want_dA
            else None
        )
        _check_finite("backward gradients", dW0, dW1, dX)
        return GradientBundle.from_grads(dW0, dW1, dA, dX)

    # Linear propagation model: Z = A^k (X W0).
    dus = [(dZ, g.rows)]
    for h in range(params.k):
        dus.append(_hop_product(A, g, h, *dus[-1]))
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
