"""Outside-in tracing of one `distpoison run`: spans, counters, per-layer metrics.

The tracer wraps the library's public functions at the binding each caller
looks up, so nothing under ``src/`` changes. ``distpoison.attack.backward`` and
``distpoison.distributed.backward`` are separate bindings of ``gnn.backward``
and get separate spans; ``run_disttack`` and the baselines are wrapped where
``distpoison.experiment`` calls them. Every span records its parent, so a
layer's self time is its duration minus the part its child spans cover.

This module imports nothing from ``distpoison`` at import time, so a traced
child can time ``import distpoison.cli`` on its own.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). The module is the caller's namespace, where
# the binding is looked up at call time; "Class.method" patches a class.
SPAN_POINTS = [
    ("distpoison.cli", "load_config", "cli.load_config"),
    ("distpoison.cli", "emit_results", "experiment.emit"),
    ("distpoison.cli", "emit_histograms", "experiment.emit"),
    ("distpoison.experiment", "run_single_seed", "experiment.seed"),
    ("distpoison.experiment", "build_dataset", "experiment.dataset"),
    ("distpoison.experiment", "predict_accuracy", "experiment.eval"),
    ("distpoison.experiment", "generate_sbm", "graph.generate_sbm"),
    ("distpoison.experiment", "normalize_adjacency", "graph.normalize_adjacency"),
    ("distpoison.experiment", "train_distributed", "distributed.train"),
    ("distpoison.experiment", "run_disttack", "attack.total"),
    ("distpoison.experiment", "baseline_random", "attack.baseline"),
    ("distpoison.experiment", "baseline_dice", "attack.baseline"),
    ("distpoison.experiment", "homophily_values", "homophily.values"),
    ("distpoison.experiment", "distribution_distance", "homophily.distance"),
    ("distpoison.distributed", "backward", "gnn.backward.worker"),
    ("distpoison.distributed", "aggregate_gradients", "distributed.aggregate"),
    ("distpoison.distributed", "normalize_adjacency", "graph.normalize_adjacency"),
    ("distpoison.attack", "train_surrogate", "attack.surrogate"),
    ("distpoison.attack", "combined_subgraph_gradient", "attack.subgraph_grad"),
    ("distpoison.attack", "edge_scores", "attack.edge_score"),
    ("distpoison.attack", "ScoreMatrix.global_items", "attack.edge_score"),
    ("distpoison.attack", "select_edge_removals", "attack.select"),
    ("distpoison.attack", "sample_1hop", "graph.sample_1hop"),
    ("distpoison.attack", "backward", "gnn.backward.attack"),
    ("distpoison.attack", "normalize_adjacency", "graph.normalize_adjacency"),
    ("distpoison.attack", "homophily_after_edge_removal", "homophily.edge_trial"),
    ("distpoison.attack", "homophily_after_feature_change", "homophily.feature_trial"),
    ("distpoison.attack", "homophily_values", "homophily.values"),
    ("distpoison.attack", "distribution_distance", "homophily.distance"),
]

# Graph mutations, counted without a span.
EDIT_POINTS = [
    ("distpoison.graph", "Graph.remove_edge"),
    ("distpoison.graph", "Graph.add_edge"),
    ("distpoison.graph", "Graph.set_feature"),
]

# Timings reported as "<span>.s"; the second set also as "<span>.self_s".
TOTAL_SPANS = [
    "homophily.edge_trial", "homophily.feature_trial", "homophily.distance",
    "homophily.values", "attack.total", "attack.surrogate", "attack.subgraph_grad",
    "attack.edge_score", "attack.select", "attack.baseline", "gnn.backward.attack",
    "gnn.backward.worker", "distributed.train", "distributed.aggregate",
    "graph.generate_sbm", "graph.normalize_adjacency", "graph.sample_1hop",
    "experiment.seed", "experiment.dataset", "experiment.eval", "experiment.emit",
    "cli.load_config",
]
SELF_SPANS = ["attack.surrogate", "attack.subgraph_grad", "experiment.seed", "experiment.emit"]
CALL_SPANS = [
    "homophily.edge_trial", "homophily.feature_trial", "homophily.distance",
    "attack.subgraph_grad", "graph.normalize_adjacency", "graph.sample_1hop",
]

COMPUTED = ("gnn.spmm_flops", "distributed.grad_bytes")


def _resolve(module, attr):
    """(owner object, attribute name) for a dotted ``attr`` inside ``module``."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _param_bytes(params) -> int:
    return sum(w.nbytes for w in params.weights())


def _spmm_flops(params, adj) -> int:
    """2 * nnz(A) * width, summed over the sparse products of one backward call."""
    nnz = adj.matrix.nnz
    if params.W1 is not None:
        # Forward A@(XW0), A@(HW1); reverse A@dZ, A@dS0.
        widths = 2 * params.W0.shape[1] + 2 * params.W1.shape[1]
    else:
        # k forward and k reverse propagations at the output width.
        widths = 2 * params.k * params.W0.shape[1]
    return 2 * nnz * widths


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counters: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.saved: list[tuple[object, str, object]] = []
        # Per attack iteration: merged feature gradients {node: row}.
        self.iter_feat_grads: list[dict] = []

    # -- recording -------------------------------------------------------------

    def _wrap_span(self, fn, span):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            rec = [sid, parent, span, tracer.clock(), None]
            tracer.spans.append(rec)
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = tracer.clock()
                tracer.stack.pop()
            tracer._observe(span, args, result)
            return result

        return wrapper

    def _wrap_count(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, span, args, result):
        """Counts and computed quantities taken at the layer boundaries."""
        c = self.counters
        if span.startswith("gnn.backward."):
            params, adj = args[0], args[1]
            c["gnn.backward.calls"] += 1
            c["gnn.spmm_flops"] += _spmm_flops(params, adj)
            if span == "gnn.backward.worker":
                c["distributed.worker_passes"] += 1
                c["distributed.grad_bytes"] += _param_bytes(params)
        elif span == "attack.surrogate":
            c["attack.iterations"] += 1
            self.iter_feat_grads.append({})
        elif span == "attack.subgraph_grad" and self.iter_feat_grads:
            sub = args[1]
            merged = self.iter_feat_grads[-1]
            feat_grad = result[1]
            for local, node in enumerate(sub.node_ids):
                node = int(node)
                if node in merged:
                    merged[node] = merged[node] + feat_grad[local]
                else:
                    merged[node] = feat_grad[local].copy()
        elif span == "attack.select" and isinstance(args[0], dict):
            c["attack.edge_candidates"] += len(args[0])
        elif span in ("attack.total", "attack.baseline"):
            c["attack.applied"] += result.size
            if span == "attack.total":
                self._count_feature_candidates(result)

    def _count_feature_candidates(self, pert):
        """Nonzero-gradient (node, dim) entries scored per iteration.

        Mirrors the attack's flip phase: an iteration scores features only
        while feature budget remains, and skips entries flipped earlier.
        """
        budget = int(pert.config.get("feature_budget", 0))
        flips_by_iter = defaultdict(list)
        for f in pert.features_flipped:
            flips_by_iter[f.iteration].append((f.node, f.dim))
        flipped: set = set()
        for k, merged in enumerate(self.iter_feat_grads, start=1):
            if len(flipped) < budget:
                for node, row in merged.items():
                    for dim in row.nonzero()[0]:
                        if (node, int(dim)) not in flipped:
                            self.counters["attack.feature_candidates"] += 1
            flipped.update(flips_by_iter.get(k, ()))
        self.iter_feat_grads = []

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer already installed")
        points = [*SPAN_POINTS, *((module, attr, None) for module, attr in EDIT_POINTS)]
        for module, attr, span in points:
            owner, name = _resolve(module, attr)
            fn = owner.__dict__[name]
            self.saved.append((owner, name, fn))
            wrapper = self._wrap_count(fn, "graph.edits") if span is None else self._wrap_span(fn, span)
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self.saved:
            owner, name, fn = self.saved.pop()
            setattr(owner, name, fn)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


# -- analysis -------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()))
        for sid, _parent, _name, start, end in spans
    }


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: total seconds, self seconds and call count.

    A span nested inside another of the same name adds to the call count and
    self time but not again to the total.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        p = parent
        while p is not None and by_id[p][2] != name:
            p = by_id[p][1]
        if p is None:
            total[name] += end - start
    return total, self_s, calls


def unit_of(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    return {"gnn.spmm_flops": "flop", "distributed.grad_bytes": "byte",
            "attack.yield": "ratio"}.get(name, "count")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; every name present, zeros included."""
    total, self_s, calls = span_totals(trace["spans"])
    counters = trace["counters"]
    out = {"cli.import.s": float(trace["import_s"])}
    for name in TOTAL_SPANS:
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALL_SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["attack.self_s"] = self_s.get("attack.total", 0.0)
    out["distributed.train.self_s"] = self_s.get("distributed.train", 0.0)
    for name in (
        "attack.iterations", "attack.edge_candidates", "attack.feature_candidates",
        "attack.applied", "gnn.backward.calls", "distributed.worker_passes",
        "graph.edits", *COMPUTED,
    ):
        out[name] = counters.get(name, 0)
    scored = out["attack.edge_candidates"] + out["attack.feature_candidates"]
    out["attack.yield"] = out["attack.applied"] / scored if scored else 0.0
    return out
