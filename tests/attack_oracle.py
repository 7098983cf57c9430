"""The attack loop as first written, one function, kept as the test oracle.

Each iteration refits the surrogate, then scores, penalizes, selects and
applies edge removals and feature flips inline.
``distpoison.attack.run_disttack`` refits the surrogate and calls one shared
attack step instead, and must return an equal perturbation: the same moves
in the same order, with the same scores, penalties and feature values.
"""

import numpy as np

from distpoison.attack import (
    AttackConfig,
    EdgeRemoval,
    FeatureFlip,
    PerturbationSet,
    combined_subgraph_gradient,
    edge_scores,
    flipped_value,
    select_edge_removals,
    train_surrogate,
)
from distpoison.graph import Graph, Partition, sample_1hop
from distpoison.homophily import (
    StealthState,
    homophily_after_edge_removal,
    homophily_after_feature_change,
    homophily_values,
)


def run_disttack(
    g: Graph, part: Partition, cfg: AttackConfig, targets: list[int]
) -> PerturbationSet:
    """Iterative perturbation of the poisoned worker's neighborhood.

    Each iteration refreshes the surrogate on the running perturbed graph,
    scores candidates from every target's current 1-hop subgraph, then spends
    up to ``edges_per_iter`` edge removals and ``flips_per_iter`` feature
    flips of the remaining budgets. Stops when budgets are exhausted or no
    eligible candidate remains.
    """
    targets = [int(t) for t in targets]
    if not targets:
        raise ValueError("targets must be nonempty")
    workers = {int(part.assignment[t]) for t in targets}
    if len(workers) != 1:
        raise ValueError(f"targets span multiple workers: {sorted(workers)}")

    g_cur = g.copy()
    pert = PerturbationSet(
        config=dict(cfg.to_dict(), kind="disttack", poisoned_worker=workers.pop())
    )
    edges_left = cfg.edge_budget
    flips_left = cfg.feature_budget
    flipped: set[tuple[int, int]] = set()

    use_homo = cfg.lambda_homo > 0.0
    if use_homo:
        # Built once; every applied move below goes through it, which edits
        # g_cur and advances the state's rows with it.
        st = StealthState(g_cur, homophily_values(g))
        base_dist = 0.0

    iteration = 0
    while edges_left > 0 or flips_left > 0:
        iteration += 1
        surrogate = train_surrogate(
            g_cur,
            cfg.surrogate_epochs,
            cfg.seed,
            hidden_dim=cfg.surrogate_hidden,
            learning_rate=cfg.surrogate_lr,
        )

        edge_cands: dict[tuple[int, int], float] = {}
        feat_grads: dict[int, np.ndarray] = {}
        for t in targets:
            sub = sample_1hop(g_cur, t)
            edge_grad, feat_grad = combined_subgraph_gradient(surrogate, sub, cfg)
            for key, s in edge_scores(edge_grad, sub, part, cfg.lambda_comm).global_items().items():
                edge_cands[key] = edge_cands.get(key, 0.0) + s
            for local, node in enumerate(sub.node_ids):
                node = int(node)
                if node in feat_grads:
                    feat_grads[node] = feat_grads[node] + feat_grad[local]
                else:
                    feat_grads[node] = feat_grad[local].copy()

        applied = False

        if edges_left > 0 and edge_cands:
            if use_homo:
                # Greedy increment of the stealth regularizer: distance change
                # of the candidate against the running perturbed graph. Signed,
                # so shift-reducing candidates earn a bonus.
                penalties = {
                    (i, j): cfg.lambda_homo
                    * (st.distance(homophily_after_edge_removal(st, i, j)) - base_dist)
                    for i, j in edge_cands
                }
                penalized = {key: s - penalties[key] for key, s in edge_cands.items()}
            else:
                penalized = edge_cands
                penalties = {key: 0.0 for key in edge_cands}
            for i, j, s in select_edge_removals(penalized, min(cfg.edges_per_iter, edges_left)):
                if use_homo:
                    h_new = homophily_after_edge_removal(st, i, j)
                    base_dist = st.distance(h_new)
                    st.remove_edge(i, j, h_new)
                else:
                    g_cur.remove_edge(i, j)
                pert.edges_removed.append(EdgeRemoval(i, j, s, iteration))
                pert.homophily_penalties.append(penalties[(i, j)])
                edges_left -= 1
                applied = True

        if flips_left > 0 and feat_grads:
            cands = []  # (penalized score, node, dim, sign, penalty)
            for node, grow in feat_grads.items():
                for dim in range(len(grow)):
                    if (node, dim) in flipped:
                        continue
                    sign = int(np.sign(grow[dim]))
                    if sign == 0 or g_cur.features[node, dim] == 0.0:
                        continue  # no flip would change the entry
                    score = abs(grow[dim])
                    penalty = 0.0
                    if use_homo:
                        new = flipped_value(float(g_cur.features[node, dim]), sign)
                        h_trial = homophily_after_feature_change(st, node, dim, new)
                        penalty = cfg.lambda_homo * (st.distance(h_trial) - base_dist)
                    cands.append((score - penalty, node, dim, sign, penalty))
            cands = [c for c in cands if c[0] > 0.0]
            cands.sort(key=lambda c: (-c[0], c[1], c[2]))
            for score, node, dim, sign, penalty in cands[: min(cfg.flips_per_iter, flips_left)]:
                old = float(g_cur.features[node, dim])
                new = flipped_value(old, sign)
                if use_homo:
                    h_new = homophily_after_feature_change(st, node, dim, new)
                    base_dist = st.distance(h_new)
                    st.set_feature(node, dim, new, h_new)
                else:
                    g_cur.set_feature(node, dim, new)
                pert.features_flipped.append(FeatureFlip(node, dim, old, new, sign, iteration))
                pert.homophily_penalties.append(penalty)
                flipped.add((node, dim))
                flips_left -= 1
                applied = True

        if not applied:
            break
    return pert
