"""Gradient-guided poisoning of one worker's training data, plus baselines.

The main attack loop alternates: (re)train a surrogate 2-layer GCN on the
current perturbed graph, pull attack-loss gradients for each target's 1-hop
subgraph, score existing edges (gradient value plus a cross-worker bonus for
edges that span computing nodes), remove the top-scoring edges, and flip the
feature entries with the largest gradient magnitude. A nonzero homophily
weight debits every candidate by the shift it would cause in the graph's
homophily distribution, trading raw damage for stealth. A step computes
the stealth trials of all its candidates in one batch per move kind; an
applied move drops them, so a later pick's trial is computed again. Each
trial bounds the W1 shift it can make, and the shift itself is measured
only for candidates whose bound leaves them in reach of a pick, so the
picks equal measuring every one.

Scores are the attack-loss gradient at each adjacency entry: removing an edge
is a unit step down in that entry, so edges with the largest positive gradient
are the removals that most increase the targets' cross-entropy to first
order. Only candidates expected to help (score > 0) are ever taken.

Feature flips follow the sign rule x <- x * (1 - 2*sgn(grad)): positive
gradients negate the entry; zero gradients leave it alone (and do not consume
budget); negative gradients triple it. An entry of 0 is no candidate either,
since no flip changes it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from distpoison.fields import field_errors, spec
from distpoison.gnn import ParamSet, backward, fit_gcn
from distpoison.graph import (
    Graph,
    GraphError,
    Partition,
    Subgraph,
    normalize_adjacency,
    sample_1hop,
)
from distpoison.homophily import (  # noqa: F401 (distribution_distance: re-exported)
    StealthState,
    distribution_distance,
    homophily_after_edge_removal,
    homophily_after_feature_change,
    homophily_values,
)

__all__ = [
    "AttackConfig",
    "ScoreMatrix",
    "PerturbationSet",
    "EdgeRemoval",
    "EdgeAddition",
    "FeatureFlip",
    "train_surrogate",
    "combined_subgraph_gradient",
    "edge_scores",
    "select_edge_removals",
    "select_targets",
    "flipped_value",
    "run_disttack",
    "baseline_random",
    "baseline_dice",
]


@dataclass
class AttackConfig:
    """Knobs of the attack; budgets bound the feasible perturbation set."""

    edge_budget: int = spec(0, low=0)
    feature_budget: int = spec(0, low=0)
    w_A: float = spec(1.0, low=0.0)
    w_X: float = spec(1.0, low=0.0)
    lambda_comm: float = 0.1
    lambda_homo: float = spec(1.0, low=0.0)
    surrogate_epochs: int = spec(50, low=0)
    surrogate_hidden: int = spec(16, low=1)
    surrogate_lr: float = spec(0.2, low=0)
    target_count: int = spec(5, low=1)
    seed: int = 0
    edges_per_iter: int = spec(1, low=1)
    flips_per_iter: int = spec(1, low=1)

    def __post_init__(self):
        errors = field_errors(AttackConfig, asdict(self))
        if errors:
            raise ValueError("invalid attack config: " + "; ".join(errors))

    def to_dict(self) -> dict:
        return asdict(self)


# The rows of a perturbation. Every field is required; its default states
# its type for ``field_errors``, which checks the rows a replay reads. Node
# ids are checked against the graph when the rows are applied.


@dataclass
class EdgeRemoval:
    i: int = spec(0, required=True)
    j: int = spec(0, required=True)
    score: float = spec(0.0, required=True)
    iteration: int = spec(0, low=0, required=True)


@dataclass
class EdgeAddition:
    i: int = spec(0, required=True)
    j: int = spec(0, required=True)
    iteration: int = spec(0, low=0, required=True)


@dataclass
class FeatureFlip:
    node: int = spec(0, required=True)
    dim: int = spec(0, required=True)
    old: float = spec(0.0, required=True)
    new: float = spec(0.0, required=True)
    sign: int = spec(1, choices=(-1, 1), required=True)
    iteration: int = spec(0, low=0, required=True)


@dataclass
class _Recorded:
    """The entries of a perturbation's ``config`` that a replay reads."""

    seed: int = spec(0, low=0)
    poisoned_worker: int = spec(0, low=0)


def _row_keys(cls) -> dict[str, str]:
    """The JSON key of each field of a row, in declaration order: the
    field's name, but "iter" for ``iteration``."""
    return {f.name: "iter" if f.name == "iteration" else f.name for f in fields(cls)}


_ROWS = {"edges_removed": EdgeRemoval, "edges_added": EdgeAddition, "features_flipped": FeatureFlip}


@dataclass
class PerturbationSet:
    """Ordered audit trail of an attack; replayable against any trainer."""

    edges_removed: list[EdgeRemoval] = field(default_factory=list)
    edges_added: list[EdgeAddition] = field(default_factory=list)
    features_flipped: list[FeatureFlip] = field(default_factory=list)
    homophily_penalties: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def apply_to(self, g: Graph) -> Graph:
        """Fresh perturbed copy of ``g``; the input is untouched. A move
        naming an edge or a feature entry that ``g`` lacks raises
        ``GraphError``."""
        out = g.copy()
        out.edit(
            removed=[(r.i, r.j) for r in self.edges_removed],
            added=[(a.i, a.j) for a in self.edges_added],
        )
        for flip in self.features_flipped:
            if not (0 <= flip.node < g.num_nodes and 0 <= flip.dim < g.feature_dim):
                raise GraphError(f"feature ({flip.node}, {flip.dim}) out of range")
            out.set_feature(flip.node, flip.dim, flip.new)
        return out

    @property
    def size(self) -> int:
        return len(self.edges_removed) + len(self.edges_added) + len(self.features_flipped)

    def to_dict(self) -> dict:
        d = {}
        for name, row in _ROWS.items():
            keys = _row_keys(row).items()
            d[name] = [{key: getattr(r, f) for f, key in keys} for r in getattr(self, name)]
        return dict(d, homophily_penalties=list(self.homophily_penalties), config=self.config)

    @classmethod
    def from_dict(cls, d: dict) -> "PerturbationSet":
        rows = {}
        for name, row in _ROWS.items():
            keys = _row_keys(row).values()
            rows[name] = [row(*(r[key] for key in keys)) for r in d.get(name, [])]
        return cls(**rows, homophily_penalties=list(d.get("homophily_penalties", [])),
                   config=d.get("config", {}))

    def field_errors(self) -> list[str]:
        """One message per row field of a wrong type or out of range, and
        per config entry a replay reads that is: what a replay refuses."""
        if not isinstance(self.config, dict):
            return [f"config: must be a mapping, got {self.config!r}"]
        read = {f.name for f in fields(_Recorded)}
        errors = field_errors(_Recorded, {k: v for k, v in self.config.items() if k in read},
                              "config.")
        for name, row in _ROWS.items():
            for k, r in enumerate(getattr(self, name)):
                errors += field_errors(row, asdict(r), f"{name}[{k}].")
        return errors

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "PerturbationSet":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def train_surrogate(
    g: Graph,
    epochs: int,
    seed: int,
    hidden_dim: int = 16,
    learning_rate: float = 0.2,
) -> ParamSet:
    """Full-batch GCN trained on the graph's training nodes by ``fit_gcn``.

    Raises ``NumericalError`` on divergence (non-finite weights).
    """
    train = np.flatnonzero(g.train_mask)
    if len(train) == 0:
        raise ValueError("graph has no training nodes")
    params = ParamSet.init_gcn(
        g.feature_dim, hidden_dim, g.num_classes, seed=seed, learning_rate=learning_rate
    )
    return fit_gcn(params, normalize_adjacency(g), g.features, g.labels, train, epochs)


@dataclass(eq=False)
class ScoreMatrix:
    """Removal scores of one sampled subgraph's edges: ``values[k]`` is the
    score of the k-th edge of ``sub.edges``."""

    sub: Subgraph
    values: np.ndarray

    def global_items(self) -> dict[tuple[int, int], float]:
        """``{(i, j): score}`` over global node ids, i < j."""
        a = self.sub.node_ids[self.sub.edges[:, 0]]
        b = self.sub.node_ids[self.sub.edges[:, 1]]
        keys = zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())
        return dict(zip(keys, self.values.tolist()))


def combined_subgraph_gradient(
    theta: ParamSet, sub: Subgraph, cfg: AttackConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted attack-loss gradients w.r.t. the subgraph's edges and features.

    The target is local node 0; gradients are taken under the frozen
    surrogate on the induced subgraph. The edge gradient holds one value per
    edge of ``sub.edges``, in that order.
    """
    if sub.num_nodes == 0:
        raise ValueError("empty subgraph")
    bundle = backward(
        theta,
        normalize_adjacency(sub),
        sub.features,
        sub.labels,
        node_set=[0],
        want_dA=True,
        want_dX=True,
        objective="attack",
        assume_unique=True,
    )
    return cfg.w_A * bundle.dA, cfg.w_X * bundle.dX


def _comm_signs(sub: Subgraph, part: Partition) -> np.ndarray:
    """+1 for each subgraph edge crossing workers, -1 for a same-worker edge."""
    gi = sub.node_ids[sub.edges[:, 0]]
    gj = sub.node_ids[sub.edges[:, 1]]
    if gi.max(initial=-1) >= len(part.assignment) or gj.max(initial=-1) >= len(part.assignment):
        raise ValueError("subgraph node missing from partition assignment")
    return np.where(part.assignment[gi] != part.assignment[gj], 1.0, -1.0)


def edge_scores(
    edge_grad: np.ndarray, sub: Subgraph, part: Partition, lambda_comm: float
) -> ScoreMatrix:
    """Removal scores on the subgraph's existing edges: gradient + comm bonus.

    ``edge_grad`` holds one value per edge of ``sub.edges``, in that order,
    as ``combined_subgraph_gradient`` returns it. Every subgraph edge is
    scored, zero scores included.
    """
    return ScoreMatrix(sub=sub, values=edge_grad + lambda_comm * _comm_signs(sub, part))


def select_edge_removals(scores: dict, k: int) -> list[tuple[int, int, float]]:
    """Top-k positive-score edges of ``{(i, j): score}`` (i < j), descending;
    ties broken by (min id, max id).

    Edges with score <= 0 are ineligible: a removal must be expected to help
    the attack.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    eligible = [(i, j, s) for (i, j), s in scores.items() if s > 0.0]
    eligible.sort(key=lambda t: (-t[2], t[0], t[1]))
    return eligible[:k]


def flipped_value(old: float, sign: int) -> float:
    """The sign rule: ``old * (1 - 2*sign)``."""
    return old * (1 - 2 * sign)


def select_targets(g: Graph, part: Partition, worker: int, count: int) -> list[int]:
    """Training nodes on the worker's share to attack; highest degree first."""
    pool = part.training_pool(g, worker)
    if len(pool) == 0:
        raise ValueError(f"worker {worker} owns no training nodes")
    order = np.lexsort((pool, -g.degrees(pool)))
    return [int(v) for v in pool[order][:count]]


class _DisttackRun:
    """One attack in progress: the running perturbed graph, what is left of
    the budgets, the entries flipped so far, the audit trail and, with a
    stealth weight, the stealth state. ``fit_surrogate`` is the attack's one
    surrogate refit and ``step`` its one step under a given surrogate;
    ``subgraphs`` holds the targets' 1-hop subgraphs of the last step,
    sampled on the graph it started from.
    """

    def __init__(self, g: Graph, part: Partition, cfg: AttackConfig, targets: list[int]):
        targets = [int(t) for t in targets]
        if not targets:
            raise ValueError("targets must be nonempty")
        workers = {int(part.assignment[t]) for t in targets}
        if len(workers) != 1:
            raise ValueError(f"targets span multiple workers: {sorted(workers)}")
        self.g = g.copy()
        self.part = part
        self.cfg = cfg
        self.targets = targets
        self.pert = PerturbationSet(
            config=dict(cfg.to_dict(), kind="disttack", poisoned_worker=workers.pop())
        )
        self.edges_left = cfg.edge_budget
        self.flips_left = cfg.feature_budget
        self.flipped = np.zeros(g.features.shape, dtype=bool)
        self.iteration = 0
        self.subgraphs: list[Subgraph] = []
        # Built once; every applied move goes through it, which edits self.g
        # and advances the state with it.
        self.stealth = None
        if cfg.lambda_homo > 0.0:
            self.stealth = StealthState(self.g, homophily_values(g))

    def fit_surrogate(self) -> ParamSet:
        """The surrogate refit on the running perturbed graph."""
        cfg = self.cfg
        return train_surrogate(self.g, cfg.surrogate_epochs, cfg.seed,
                               hidden_dim=cfg.surrogate_hidden, learning_rate=cfg.surrogate_lr)

    def step(self, surrogate: ParamSet) -> bool:
        """Score candidates from every target's current 1-hop subgraph,
        penalize them by their stealth cost when ``lambda_homo > 0``, then
        select and apply up to ``edges_per_iter`` edge removals and
        ``flips_per_iter`` feature flips of the remaining budgets. Each
        move kind's trials are computed in one batch on the graph as the
        step reaches it.

        Returns whether any move was applied.
        """
        cfg, g_cur, st, pert = self.cfg, self.g, self.stealth, self.pert
        self.iteration += 1
        self.subgraphs = [sample_1hop(g_cur, t) for t in self.targets]
        edge_cands: dict[tuple[int, int], float] = {}
        grad_rows = []
        for sub in self.subgraphs:
            edge_grad, feat_grad = combined_subgraph_gradient(surrogate, sub, cfg)
            scores = edge_scores(edge_grad, sub, self.part, cfg.lambda_comm)
            for key, s in scores.global_items().items():
                edge_cands[key] = edge_cands.get(key, 0.0) + s
            grad_rows.append(feat_grad)

        applied = False

        if self.edges_left > 0 and edge_cands:
            k = min(cfg.edges_per_iter, self.edges_left)
            if st is not None:
                keys = list(edge_cands)
                scores, penalty = self._penalize(
                    np.array(list(edge_cands.values())), st.edge_trials(keys), k,
                    lambda c: homophily_after_edge_removal(st, *keys[c]),
                )
                penalized = dict(zip(keys, scores.tolist()))
                penalties = dict(zip(keys, penalty.tolist()))
            else:
                penalized = edge_cands
                penalties = {key: 0.0 for key in edge_cands}
            for i, j, s in select_edge_removals(penalized, k):
                if st is not None:
                    st.remove_edge(i, j, homophily_after_edge_removal(st, i, j))
                else:
                    g_cur.remove_edge(i, j)
                pert.edges_removed.append(EdgeRemoval(i, j, s, self.iteration))
                pert.homophily_penalties.append(penalties[(i, j)])
                self.edges_left -= 1
                applied = True

        if self.flips_left > 0:
            # The feature candidates as one table: each node's gradient row
            # summed over the subgraphs holding it, in target order, then one
            # move (node, dim, value) per entry a flip would change.
            ids, at = np.unique(
                np.concatenate([sub.node_ids for sub in self.subgraphs]), return_inverse=True
            )
            merged = np.zeros((len(ids), g_cur.feature_dim))
            np.add.at(merged, at, np.concatenate(grad_rows))
            row, dim = np.nonzero((merged != 0) & (g_cur.features[ids] != 0) & ~self.flipped[ids])
            node, grad = ids[row], merged[row, dim]
            sign = np.sign(grad).astype(np.int64)
            value = flipped_value(g_cur.features[node, dim], sign)
            picks = min(cfg.flips_per_iter, self.flips_left)
            if st is not None:
                penalized, penalty = self._penalize(
                    np.abs(grad), st.feature_trials(node, dim, value), picks,
                    lambda c: homophily_after_feature_change(
                        st, int(node[c]), int(dim[c]), float(value[c])),
                )
            else:
                penalized, penalty = np.abs(grad), np.zeros(len(node))
            keep = np.flatnonzero(penalized > 0.0)
            order = keep[np.lexsort((dim[keep], node[keep], -penalized[keep]))]
            for k in order[:picks].tolist():
                u, j, s, new = int(node[k]), int(dim[k]), int(sign[k]), float(value[k])
                old = float(g_cur.features[u, j])
                if st is not None:
                    st.set_feature(u, j, new, homophily_after_feature_change(st, u, j, new))
                else:
                    g_cur.set_feature(u, j, new)
                pert.features_flipped.append(FeatureFlip(u, j, old, new, s, self.iteration))
                pert.homophily_penalties.append(float(penalty[k]))
                self.flipped[u, j] = True
                self.flips_left -= 1
                applied = True

        return applied

    def _penalize(self, raw: np.ndarray, bounds: np.ndarray, k: int, trial_of):
        """Stealth-penalized scores of candidates with raw scores ``raw``, and
        their penalties, for picking up to ``k`` of those scoring above 0.

        The penalty is the greedy increment of the stealth regularizer:
        ``lambda_homo`` times the change in W1 distance the candidate's trial
        vector ``trial_of(c)`` makes against the running perturbed graph.
        Signed, so shift-reducing candidates earn a bonus. It lies within
        ``lambda_homo * bounds[c]``. Candidates are walked in descending raw
        score and each one's trial is asked once; its distance is measured
        only while its upper bound can still reach the k-th best penalized
        score measured so far, and 0. One left unmeasured keeps its upper
        bound, which lies below k measured scores or at most 0, so it is
        never picked, and penalty 0.
        """
        st, lam = self.stealth, self.cfg.lambda_homo
        scores, penalized = raw.tolist(), (raw + lam * bounds).tolist()
        penalty = np.zeros(len(raw))
        best: list[float] = []  # the k best measured scores, a min-heap
        for c in np.argsort(-raw, kind="stable").tolist():
            trial = trial_of(c)
            if penalized[c] <= 0.0 or (len(best) == k and penalized[c] < best[0]):
                continue
            penalty[c] = p = lam * (st.distance(trial) - st.dist)
            penalized[c] = scores[c] - p
            (heapq.heappush if len(best) < k else heapq.heappushpop)(best, penalized[c])
        return np.array(penalized), penalty


def run_disttack(
    g: Graph, part: Partition, cfg: AttackConfig, targets: list[int]
) -> PerturbationSet:
    """Iterative perturbation of the poisoned worker's neighborhood.

    Each iteration refreshes the surrogate on the running perturbed graph and
    takes one attack step under it. Stops when budgets are exhausted or a
    step applies nothing.
    """
    run = _DisttackRun(g, part, cfg, targets)
    while run.edges_left > 0 or run.flips_left > 0:
        if not run.step(run.fit_surrogate()):
            break
    return run.pert


def _share_edges(g: Graph, share: list[int], same_label: bool = False) -> list[tuple[int, int]]:
    """The edges with an endpoint in ``share``, as (i, j) with i < j, in order.

    ``same_label`` keeps only those whose endpoints share a label.
    """
    edges = g.edge_array()
    in_share = np.zeros(g.num_nodes, dtype=bool)
    in_share[share] = True
    keep = in_share[edges[:, 0]] | in_share[edges[:, 1]]
    if same_label:
        keep &= g.labels[edges[:, 0]] == g.labels[edges[:, 1]]
    return list(map(tuple, edges[keep].tolist()))


def baseline_random(
    g: Graph,
    part: Partition,
    edge_budget: int,
    feature_budget: int,
    seed: int,
    poisoned_worker: int = 0,
) -> PerturbationSet:
    """Random edge removals/additions and feature sign flips on one share."""
    if edge_budget < 0 or feature_budget < 0:
        raise ValueError("budgets must be nonnegative")
    rng = np.random.default_rng(seed)
    share_list = part.share(poisoned_worker).tolist()
    pert = PerturbationSet(
        config={
            "kind": "ra",
            "edge_budget": edge_budget,
            "feature_budget": feature_budget,
            "seed": seed,
            "poisoned_worker": poisoned_worker,
        }
    )
    avail = _share_edges(g, share_list)  # not yet removed, in edge order
    added: set[tuple[int, int]] = set()
    for unit in range(edge_budget):
        if rng.random() < 0.5:
            if not avail:
                continue
            i, j = avail.pop(rng.integers(len(avail)))
            pert.edges_removed.append(EdgeRemoval(i, j, 0.0, unit + 1))
        else:
            pick = None
            for _ in range(1000):
                u = share_list[rng.integers(len(share_list))]
                v = int(rng.integers(g.num_nodes))
                key = (min(u, v), max(u, v))
                if u != v and not g.has_edge(u, v) and key not in added:
                    pick = key
                    break
            if pick is None:
                continue
            added.add(pick)
            pert.edges_added.append(EdgeAddition(pick[0], pick[1], unit + 1))
    flipped: set[tuple[int, int]] = set()
    for unit in range(feature_budget):
        pick = None
        for _ in range(1000):
            node = share_list[rng.integers(len(share_list))]
            dim = int(rng.integers(g.feature_dim))
            if (node, dim) not in flipped:
                pick = (node, dim)
                break
        if pick is None:
            continue
        node, dim = pick
        flipped.add(pick)
        old = float(g.features[node, dim])
        new = flipped_value(old, 1)
        pert.features_flipped.append(FeatureFlip(node, dim, old, new, 1, unit + 1))
    return pert


def baseline_dice(
    g: Graph,
    part: Partition,
    edge_budget: int,
    seed: int,
    poisoned_worker: int = 0,
) -> PerturbationSet:
    """Remove same-label edges / add different-label edges on one share.

    Each budget unit flips a fair coin between the two moves; a unit with no
    eligible candidate is skipped.
    """
    if edge_budget < 0:
        raise ValueError("edge budget must be nonnegative")
    rng = np.random.default_rng(seed)
    share = part.share(poisoned_worker)
    share_list = share.tolist()
    pert = PerturbationSet(
        config={
            "kind": "dice",
            "edge_budget": edge_budget,
            "seed": seed,
            "poisoned_worker": poisoned_worker,
        }
    )
    labels = g.labels
    same = _share_edges(g, share_list, same_label=True)  # not yet removed, in edge order
    # An addition draws uniformly from the pairs (u, v), u in the share in
    # order and v ascending, of different labels, neither adjacent nor added
    # already; a pair inside the share is listed once from each end. free[u]
    # counts u's pairs, so the draw finds its pair by a cumulative sum over
    # the share instead of listing them.
    edges = g.edge_array()
    cross = edges[labels[edges[:, 0]] != labels[edges[:, 1]]].ravel()
    n = g.num_nodes
    free = n - np.bincount(labels)[labels] - np.bincount(cross, minlength=n)
    partners: dict[int, list[int]] = {}  # each node's added pairs' other ends
    for unit in range(edge_budget):
        if rng.random() < 0.5:
            if not same:
                continue
            i, j = same.pop(rng.integers(len(same)))
            pert.edges_removed.append(EdgeRemoval(i, j, 0.0, unit + 1))
        else:
            cum = np.cumsum(free[share])
            if len(cum) == 0 or cum[-1] == 0:
                continue
            r = int(rng.integers(int(cum[-1])))
            k = int(np.searchsorted(cum, r, side="right"))
            u = share_list[k]
            ok = labels != labels[u]
            ok[g.neighbors(u)] = False
            ok[partners.get(u, [])] = False
            v = int(np.flatnonzero(ok)[r - cum[k] + free[u]])
            for a, b in ((u, v), (v, u)):
                partners.setdefault(a, []).append(b)
                free[a] -= 1
            pert.edges_added.append(EdgeAddition(min(u, v), max(u, v), unit + 1))
    return pert

