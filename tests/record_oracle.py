"""The hand-written record encoders and decoders that the dataclass-driven
ones replaced, kept as the oracle for their byte-for-byte equality.

Each names every field of ``EdgeRemoval``, ``EdgeAddition``, ``FeatureFlip``
and of the summary row of ``RunResult`` once more.
"""

from distpoison.attack import EdgeAddition, EdgeRemoval, FeatureFlip, PerturbationSet


def perturbation_to_dict(p) -> dict:
    return {
        "edges_removed": [
            {"i": r.i, "j": r.j, "score": r.score, "iter": r.iteration}
            for r in p.edges_removed
        ],
        "edges_added": [
            {"i": a.i, "j": a.j, "iter": a.iteration} for a in p.edges_added
        ],
        "features_flipped": [
            {
                "node": f.node,
                "dim": f.dim,
                "old": f.old,
                "new": f.new,
                "sign": f.sign,
                "iter": f.iteration,
            }
            for f in p.features_flipped
        ],
        "homophily_penalties": list(p.homophily_penalties),
        "config": p.config,
    }


def perturbation_from_dict(d: dict) -> PerturbationSet:
    return PerturbationSet(
        edges_removed=[
            EdgeRemoval(r["i"], r["j"], r["score"], r["iter"])
            for r in d.get("edges_removed", [])
        ],
        edges_added=[
            EdgeAddition(a["i"], a["j"], a["iter"]) for a in d.get("edges_added", [])
        ],
        features_flipped=[
            FeatureFlip(f["node"], f["dim"], f["old"], f["new"], f["sign"], f["iter"])
            for f in d.get("features_flipped", [])
        ],
        homophily_penalties=list(d.get("homophily_penalties", [])),
        config=d.get("config", {}),
    )


def run_result_to_dict(r) -> dict:
    return {
        "seed": r.seed,
        "acc_clean": r.acc_clean,
        "acc_attacked": r.acc_attacked,
        "accuracy_drop": r.accuracy_drop,
        "divergence": list(r.divergence),
        "homophily_distance": r.homophily_distance,
        "attack_seconds": r.attack_seconds,
        "edges_removed": r.edges_removed,
        "edges_added": r.edges_added,
        "features_flipped": r.features_flipped,
    }
