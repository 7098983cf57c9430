"""Simulated multi-worker mini-batch training with synchronized updates.

Workers are logical: each owns a share of the training nodes, samples a batch
per epoch from an independent seeded stream, and computes gradients against
the single global parameter copy. One synchronization per epoch aggregates the
per-worker gradients (mean by default, literal sum available) and applies one
global update. Poisoning is data poisoning: the designated worker sees a
perturbed graph view, and everything downstream of that view is honest
computation.

Workers run one after another. The batches of the workers that see the same
graph view in an epoch are swept together under that epoch's weights (see
``gnn.sweep``): on a large graph, one field search over the view's batches
and one product per hop, each over every batch's block of A at once, give
every worker's gradients, and no n-row dense array is computed. Otherwise the
view's workers share one full forward state and each takes its own reverse
pass (``gnn.backward``). A batch is drawn without replacement, so its pass
skips the repeat check. Results are bit-reproducible for a fixed (graph,
partition, seed, config): batches come from per-worker RNG streams and the
reduction order is fixed by worker index.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from distpoison.gnn import (
    ForwardState,
    GradientBundle,
    ParamSet,
    _check_finite,
    backward,
    forward_state,
    sgd_step,
    sweep,
)
from distpoison.graph import Graph, Partition, normalize_adjacency

__all__ = [
    "WorkerState",
    "SyncRecord",
    "train_distributed",
    "aggregate_gradients",
    "gradient_norm_divergence",
    "write_telemetry_csv",
    "write_divergence_csv",
]


class TrainingError(RuntimeError):
    """Distributed training aborted (bad pools or non-finite gradients)."""


@dataclass
class WorkerState:
    """One logical worker: its training pool and the latest epoch's batch."""

    worker_id: int
    pool: np.ndarray
    poisoned: bool = False
    batch: np.ndarray | None = None


@dataclass
class SyncRecord:
    """Telemetry for one synchronization round."""

    epoch: int
    worker_norms: list[float]
    update_norm: float
    wall_ms: float


def aggregate_gradients(bundles: list[GradientBundle], mode: str = "mean") -> GradientBundle:
    """Combine per-worker weight gradients elementwise, in worker-index order."""
    if not bundles:
        raise ValueError("need at least one gradient bundle")
    if mode not in ("mean", "sum"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    first = bundles[0]
    for b in bundles[1:]:
        if b.dW0.shape != first.dW0.shape or (b.dW1 is None) != (first.dW1 is None):
            raise ValueError("gradient bundle shapes do not match across workers")
        if b.dW1 is not None and b.dW1.shape != first.dW1.shape:
            raise ValueError("gradient bundle shapes do not match across workers")
    dW0 = np.sum([b.dW0 for b in bundles], axis=0)
    dW1 = None if first.dW1 is None else np.sum([b.dW1 for b in bundles], axis=0)
    if mode == "mean":
        dW0 = dW0 / len(bundles)
        if dW1 is not None:
            dW1 = dW1 / len(bundles)
    return GradientBundle.from_grads(dW0, dW1)


def train_distributed(
    g: Graph,
    part: Partition,
    params: ParamSet,
    epochs: int,
    batch_size: int,
    seed: int,
    poisoned: Graph | None = None,
    poisoned_worker: int = 0,
    aggregation: str = "mean",
) -> tuple[ParamSet, list[SyncRecord]]:
    """Run synchronized multi-worker training; returns final weights + telemetry.

    ``poisoned`` is an optional perturbed copy of ``g`` (same nodes, labels
    and splits), installed as ``poisoned_worker``'s graph view.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")

    states = []
    for w in range(part.n):
        pool = part.training_pool(g, w)
        if len(pool) == 0:
            raise TrainingError(f"worker {w} has an empty training pool")
        states.append(
            WorkerState(w, pool, poisoned=poisoned is not None and w == poisoned_worker)
        )

    views = [(normalize_adjacency(g), g.features)]  # views[0]: the clean graph
    view_of = []
    for st in states:
        if st.poisoned:
            views.append((normalize_adjacency(poisoned), poisoned.features))
        view_of.append(len(views) - 1 if st.poisoned else 0)

    rngs = [np.random.default_rng((seed, w)) for w in range(part.n)]
    labels = g.labels
    records: list[SyncRecord] = []

    on_view = [[st for st in states if view_of[st.worker_id] == v] for v in range(len(views))]
    slot = {st.worker_id: b for sts in on_view for b, st in enumerate(sts)}

    def worker_pass(st: WorkerState, fwd: list) -> GradientBundle:
        # fwd holds this epoch's work per view, done by the first worker that
        # needs it: every batch's bundle from one sweep, or one full forward
        # state. A swept bundle is checked at its own worker's turn, so a
        # failure names the first worker, in worker order, whose gradients
        # are not finite.
        v = view_of[st.worker_id]
        adj, X = views[v]
        try:
            if fwd[v] is None:
                fwd[v] = (sweep(params, adj, X, labels, [s.batch for s in on_view[v]])
                          or forward_state(params, adj, X))
            if isinstance(fwd[v], ForwardState):
                return backward(params, adj, X, labels, st.batch, state=fwd[v], assume_unique=True)
            bundle = fwd[v][slot[st.worker_id]]
            if not math.isfinite(bundle.l2_norm):  # a gradient, or only its square, is not finite
                _check_finite("backward gradients", *bundle.weight_grads())
            return bundle
        except FloatingPointError as exc:
            raise TrainingError(
                f"worker {st.worker_id} produced non-finite gradients "
                f"at epoch {len(records)}: {exc}"
            ) from exc

    for epoch in range(epochs):
        t0 = time.perf_counter()
        for st in states:
            size = min(batch_size, len(st.pool))
            st.batch = rngs[st.worker_id].choice(st.pool, size=size, replace=False)
        fwd = [None] * len(views)
        bundles = [worker_pass(st, fwd) for st in states]
        agg = aggregate_gradients(bundles, aggregation)
        params = sgd_step(params, agg)
        records.append(
            SyncRecord(
                epoch=epoch,
                worker_norms=[b.l2_norm for b in bundles],
                update_norm=agg.l2_norm,
                wall_ms=(time.perf_counter() - t0) * 1000.0,
            )
        )
    return params, records


def gradient_norm_divergence(records: list[SyncRecord], poisoned_worker: int) -> np.ndarray:
    """Per-epoch (poisoned norm - mean of clean norms); the clean mean excludes
    the poisoned worker."""
    if not records:
        return np.zeros(0)
    n_workers = len(records[0].worker_norms)
    if n_workers < 2:
        raise ValueError("divergence needs at least 2 workers")
    out = np.zeros(len(records))
    clean_ids = [w for w in range(n_workers) if w != poisoned_worker]
    for t, rec in enumerate(records):
        norms = rec.worker_norms
        out[t] = norms[poisoned_worker] - np.mean([norms[w] for w in clean_ids])
    return out


def write_telemetry_csv(records: list[SyncRecord], poisoned_worker, path) -> None:
    """Per-worker gradient norms, one row per (epoch, worker)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "worker_id", "grad_l2", "poisoned", "wall_ms"])
        for rec in records:
            for w, norm in enumerate(rec.worker_norms):
                writer.writerow(
                    [
                        rec.epoch,
                        w,
                        repr(norm),
                        int(poisoned_worker is not None and w == poisoned_worker),
                        f"{rec.wall_ms:.3f}",
                    ]
                )


def write_divergence_csv(records: list[SyncRecord], poisoned_worker: int, path) -> None:
    series = gradient_norm_divergence(records, poisoned_worker)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "divergence"])
        for rec, d in zip(records, series):
            writer.writerow([rec.epoch, repr(float(d))])
