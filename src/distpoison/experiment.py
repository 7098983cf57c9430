"""Batch experiment runner: config, paired clean/poisoned runs, emission.

Every run is paired: the clean and attacked trainings share the seed, the
partition, and the initial weights, so the perturbation is the only
difference between the two trajectories. Test accuracy is always evaluated
on the clean graph; poisoning only touches what the victim trains on.

The scaling benchmark times the attack's own step (subgraph sampling,
gradient scoring, selection, application) under a fixed surrogate and fits
it against subgraph_nodes * (subgraph_edges * avg_degree + feature_dim);
surrogate training time is reported separately and the stealth term is
disabled, since neither is part of the per-iteration cost model.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

import distpoison
from distpoison.attack import (
    AttackConfig,
    PerturbationSet,
    _DisttackRun,
    baseline_dice,
    baseline_random,
    run_disttack,
    select_targets,
)
from distpoison.distributed import (
    gradient_norm_divergence,
    train_distributed,
    write_divergence_csv,
    write_telemetry_csv,
)
from distpoison.fields import field_errors, spec
from distpoison.gnn import ParamSet, predict_accuracy
from distpoison.graph import (
    PARTITION_STRATEGIES,
    Graph,
    GraphError,
    generate_sbm,
    normalize_adjacency,
    partition_nodes,
)
from distpoison.homophily import distribution_distance, homophily_values, write_histogram_csv
from distpoison.io import load_graph

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunResult",
    "run_experiment",
    "scaling_benchmark",
    "check_out_dir",
    "emit_results",
    "load_summary",
    "replay_perturbation",
]

ATTACK_KINDS = ("none", "disttack", "ra", "dice")
MODELS = ("gcn", "sgc")


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists offending fields."""


@dataclass
class SBMDataset:
    """``dataset`` of kind "sbm": a stochastic block model drawn per seed."""

    block_sizes: tuple = spec((1,), low=0, required=True)
    p_intra: float = spec(0.0, low=0, high=1, required=True)
    p_inter: float = spec(0.0, low=0, high=1, required=True)
    feature_dim: int = spec(1, low=1, required=True)
    noise: float = spec(0.0, low=0, required=True)
    train_frac: float = spec(0.3, low=0, high=1)
    val_frac: float = spec(0.2, low=0, high=1)


@dataclass
class FilesDataset:
    """``dataset`` of kind "files": a graph read from three files."""

    edges: Path = spec(Path(), required=True)
    features: Path = spec(Path(), required=True)
    splits: Path = spec(Path(), required=True)


DATASET_KINDS = {"sbm": SBMDataset, "files": FilesDataset}


def _dataset_errors(dataset: dict) -> list[str]:
    kind = dataset.get("kind")
    if kind not in DATASET_KINDS:
        return [f"dataset.kind: must be 'sbm' or 'files', got {kind!r}"]
    knobs = {k: v for k, v in dataset.items() if k != "kind"}
    errors = field_errors(DATASET_KINDS[kind], knobs, "dataset.")
    if errors or kind != "sbm":
        return errors
    ds = SBMDataset(**knobs)
    if ds.train_frac + ds.val_frac >= 1:  # at 1 the test split is empty
        errors.append("dataset.val_frac: train_frac + val_frac must be below 1")
    if sum(ds.block_sizes) == 0:
        errors.append("dataset.block_sizes: must hold at least one node")
    if ds.feature_dim < len(ds.block_sizes):
        errors.append("dataset.feature_dim: must be at least the number of blocks")
    return errors


@dataclass
class AttackSection(AttackConfig):
    """``attack`` of a config: the attack's kind, and the edge budget as a
    share of each graph's edges, beside the attack's knobs."""

    kind: str = spec("none", choices=ATTACK_KINDS, required=True)
    edge_budget_frac: float = spec(0.0, low=0, high=1)


@dataclass
class ExperimentConfig:
    dataset: dict
    attack: dict
    seeds: list[int] = spec((0,), low=0, distinct=True)
    model: str = spec("gcn", choices=MODELS)
    hidden_dim: int = spec(16, low=1)
    sgc_k: int = spec(2, low=1)
    # Two workers at least: the divergence series compares the poisoned
    # worker against the mean of the others.
    workers: int = spec(4, low=2)
    epochs: int = spec(100, low=0)
    batch_size: int = spec(8, low=1)
    learning_rate: float = spec(0.3, low=0)
    aggregation: str = spec("mean", choices=("mean", "sum"))
    partition_strategy: str = spec("round_robin", choices=PARTITION_STRATEGIES)
    poisoned_worker: int = spec(0, low=0)
    # Seeds run in sequence; a config may still state the one value.
    parallel_seeds: int = spec(1, choices=(1,))
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors = field_errors(cls, raw)
        dataset = raw.get("dataset")
        if not isinstance(dataset, dict):
            errors.append("dataset: required mapping with kind 'sbm' or 'files'")
        else:
            errors += _dataset_errors(dataset)
        attack = raw.get("attack", {"kind": "none"})
        if not isinstance(attack, dict):
            errors.append(f"attack: must be a mapping with a kind, got {attack!r}")
        else:
            errors += field_errors(AttackSection, attack, "attack.")
            if "edge_budget_frac" in attack and "edge_budget" in attack:
                errors.append("attack.edge_budget_frac: set either it or attack.edge_budget")
            if "seed" in attack:
                errors.append("attack.seed: each run's seed comes from seeds; remove it")
        workers = raw.get("workers", cls.__dataclass_fields__["workers"].default)
        poisoned = raw.get("poisoned_worker", cls.__dataclass_fields__["poisoned_worker"].default)
        if isinstance(workers, int) and isinstance(poisoned, int) and poisoned >= workers >= 2:
            errors.append(f"poisoned_worker: must be an integer in [0, workers), got {poisoned!r}")
        if errors:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
        kwargs = {k: raw[k] for k in cls.__dataclass_fields__ if k in raw}
        return cls(**dict(kwargs, attack=attack))


@dataclass
class RunResult:
    seed: int
    acc_clean: float
    acc_attacked: float
    accuracy_drop: float
    divergence: list[float]
    homophily_distance: float
    attack_seconds: float
    edges_removed: int
    edges_added: int
    features_flipped: int
    records_clean: list = field(default_factory=list, repr=False)
    records_poisoned: list = field(default_factory=list, repr=False)
    perturbation: PerturbationSet | None = field(default=None, repr=False)
    # Per-node homophily of the clean and the perturbed graph, kept for the
    # histogram CSVs; not part of the summary.
    homophily_clean: np.ndarray | None = field(default=None, repr=False, compare=False)
    homophily_perturbed: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The summary row: every field shown in the repr, in order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def _dataset(cfg: ExperimentConfig) -> SBMDataset | FilesDataset:
    knobs = {k: v for k, v in cfg.dataset.items() if k != "kind"}
    return DATASET_KINDS[cfg.dataset["kind"]](**knobs)


def build_dataset(cfg: ExperimentConfig, seed: int) -> Graph:
    ds = _dataset(cfg)
    if isinstance(ds, SBMDataset):  # its fields are generate_sbm's parameters
        return generate_sbm(seed, **asdict(ds))
    try:
        return load_graph(ds.edges, ds.features, ds.splits)
    except GraphError as exc:
        raise ConfigError(f"invalid dataset:\n  dataset.{exc.source}: {exc}") from exc


def _check_splits(cfg: ExperimentConfig, g: Graph, part, seed: int) -> None:
    """Raise ConfigError, before any attack or training, when a worker's
    share of ``g`` holds no training node or ``g`` has no test node."""
    ds = _dataset(cfg)
    sbm = isinstance(ds, SBMDataset)
    errors = []
    owned = np.bincount(part.assignment[g.train_mask], minlength=part.n)
    if not owned.all():
        errors.append(f"workers: worker {int(np.argmin(owned))} of {part.n} owns no training "
                      f"node under seed {seed} ({int(owned.sum())} training nodes in all)")
        if sbm:
            errors.append(f"dataset.train_frac: {ds.train_frac} leaves too few training nodes "
                          f"for {part.n} workers")
    if not g.test_mask.any() and sbm:
        errors.append(f"dataset.val_frac: {ds.val_frac} with train_frac {ds.train_frac} leaves "
                      f"no test node in any block under seed {seed}")
    elif not g.test_mask.any():
        errors.append("dataset.splits: the test split is empty")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))


def _init_params(cfg: ExperimentConfig, g: Graph, seed: int) -> ParamSet:
    if cfg.model == "gcn":
        return ParamSet.init_gcn(
            g.feature_dim, cfg.hidden_dim, g.num_classes,
            seed=seed, learning_rate=cfg.learning_rate,
        )
    return ParamSet.init_sgc(
        g.feature_dim, g.num_classes, seed=seed,
        learning_rate=cfg.learning_rate, k=cfg.sgc_k,
    )


def _attack_config(cfg: ExperimentConfig, g: Graph, seed: int) -> AttackConfig:
    a = dict(cfg.attack)
    a.pop("kind", None)
    frac = a.pop("edge_budget_frac", None)
    if frac is not None:
        a["edge_budget"] = int(round(frac * g.num_edges))
    a["seed"] = seed
    return AttackConfig(**a)


def build_attack(cfg: ExperimentConfig, g: Graph, part, seed: int) -> PerturbationSet:
    kind = cfg.attack.get("kind", "none")
    if kind == "none":
        return PerturbationSet(config={"kind": "none"})
    acfg = _attack_config(cfg, g, seed)
    if kind == "disttack":
        targets = select_targets(g, part, cfg.poisoned_worker, acfg.target_count)
        return run_disttack(g, part, acfg, targets)
    if kind == "ra":
        return baseline_random(
            g, part, acfg.edge_budget, acfg.feature_budget, seed,
            poisoned_worker=cfg.poisoned_worker,
        )
    return baseline_dice(
        g, part, acfg.edge_budget, seed, poisoned_worker=cfg.poisoned_worker
    )


def run_single_seed(
    cfg: ExperimentConfig, seed: int, pert: PerturbationSet | None = None
) -> RunResult:
    """One paired clean/poisoned run; a given ``pert`` is trained on as it
    stands, and no attack is built or timed. A perturbation that names an
    edge or a feature entry the seed's graph lacks is a ConfigError, raised
    before any training."""
    g = build_dataset(cfg, seed)
    part = partition_nodes(g, cfg.workers, cfg.partition_strategy, seed=seed)
    _check_splits(cfg, g, part, seed)
    params0 = _init_params(cfg, g, seed)

    attack_seconds = 0.0
    if pert is None:
        t0 = time.perf_counter()
        pert = build_attack(cfg, g, part, seed)
        attack_seconds = time.perf_counter() - t0

    try:
        g_poisoned = pert.apply_to(g)
    except GraphError as exc:
        raise ConfigError(f"invalid perturbation: {exc} in the graph of seed {seed}") from exc
    common = dict(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed,
                  aggregation=cfg.aggregation)
    final_clean, rec_clean = train_distributed(g, part, params0, **common)
    final_poisoned, rec_poisoned = train_distributed(
        g, part, params0, poisoned=g_poisoned, poisoned_worker=cfg.poisoned_worker, **common
    )

    adj = normalize_adjacency(g)
    acc_clean = predict_accuracy(final_clean, adj, g.features, g.labels, g.test_mask)
    acc_attacked = predict_accuracy(final_poisoned, adj, g.features, g.labels, g.test_mask)

    divergence = gradient_norm_divergence(rec_poisoned, cfg.poisoned_worker)
    h_clean = homophily_values(g)
    h_pert = homophily_values(g_poisoned)
    homo_dist = distribution_distance(h_clean, h_pert)

    return RunResult(
        seed=seed,
        acc_clean=acc_clean,
        acc_attacked=acc_attacked,
        accuracy_drop=acc_clean - acc_attacked,
        divergence=[float(d) for d in divergence],
        homophily_distance=float(homo_dist),
        attack_seconds=attack_seconds,
        edges_removed=len(pert.edges_removed),
        edges_added=len(pert.edges_added),
        features_flipped=len(pert.features_flipped),
        records_clean=rec_clean,
        records_poisoned=rec_poisoned,
        perturbation=pert,
        homophily_clean=h_clean,
        homophily_perturbed=h_pert,
    )


def run_experiment(cfg: ExperimentConfig) -> list[RunResult]:
    """One paired clean/attacked run per seed, in sequence."""
    return [run_single_seed(cfg, s) for s in cfg.seeds]


# -- runtime scaling ----------------------------------------------------------


def scaling_benchmark(
    base: ExperimentConfig, size_multipliers, iterations: int = 12
) -> dict:
    """Attack time per step across growing graphs, with a cost-model fit.

    Each size times ``iterations`` steps under one fixed surrogate and
    reports their median; the sizes take their steps in turn. Returns a
    table of per-size rows and the least-squares fit of time against
    nodes * (edges * avg_degree + feature_dim), all measured on the sampled
    subgraphs.
    """
    if len(size_multipliers) < 3:
        raise ConfigError("scaling benchmark needs at least 3 sizes")
    ds = _dataset(base)
    if not isinstance(ds, SBMDataset):
        raise ConfigError("scaling benchmark generates its graphs; dataset.kind must be 'sbm'")
    seed = base.seeds[0]
    sizes = []
    for mult in size_multipliers:
        blocks = [b * mult for b in ds.block_sizes]
        fdim = ds.feature_dim * mult
        g = generate_sbm(seed, **asdict(replace(ds, block_sizes=blocks, feature_dim=fdim)))
        part = partition_nodes(g, base.workers, base.partition_strategy, seed=seed)
        # The stealth term is outside the cost model, and budgets that last
        # every iteration keep each step's work the same.
        acfg = _attack_config(base, g, seed)
        acfg = replace(
            acfg,
            lambda_homo=0.0,
            edge_budget=iterations * acfg.edges_per_iter,
            feature_budget=iterations * acfg.flips_per_iter,
        )
        targets = select_targets(g, part, base.poisoned_worker, acfg.target_count)
        run = _DisttackRun(g, part, acfg, targets)
        t0 = time.perf_counter()
        theta = run.fit_surrogate()
        surrogate_s = time.perf_counter() - t0
        # Per size: its row's graph facts, its step, and the steps' measurements.
        sizes.append(((mult, g, fdim, surrogate_s), (run, theta), ([], [], [])))
    # One step of each size per round, so that a phase of the shared host's
    # speed falls on every size alike.
    for _ in range(iterations):
        for _, (run, theta), (times, sub_nodes, sub_edges) in sizes:
            t0 = time.perf_counter()
            run.step(theta)
            times.append(time.perf_counter() - t0)
            # The subgraphs the step sampled, counted outside its timing.
            sub_nodes += [sub.num_nodes for sub in run.subgraphs]
            sub_edges += [len(sub.edges) for sub in run.subgraphs]
    rows = []
    for (mult, g, fdim, surrogate_s), _, (times, sub_nodes, sub_edges) in sizes:
        # The median: a timing's noise on a shared host is one-sided.
        attack_s = float(np.median(times))
        n_sub, e_sub = float(np.mean(sub_nodes)), float(np.mean(sub_edges))
        d_sub = 2.0 * e_sub / n_sub if n_sub else 0.0
        rows.append(
            {
                "multiplier": mult,
                "graph_nodes": g.num_nodes,
                "graph_edges": g.num_edges,
                "nodes": n_sub,
                "edges": e_sub,
                "avg_degree": d_sub,
                "feature_dim": fdim,
                "attack_seconds": attack_s,
                "surrogate_seconds": surrogate_s,
            }
        )
    x = np.array([r["nodes"] * (r["edges"] * r["avg_degree"] + r["feature_dim"]) for r in rows])
    y = np.array([r["attack_seconds"] for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "rows": rows,
        "fit": {"slope": float(slope), "intercept": float(intercept), "r2": float(r2)},
        "cost_model": "nodes * (edges * avg_degree + feature_dim)",
    }


# -- emission -----------------------------------------------------------------


def _code_version(module_file=__file__) -> str:
    """Package version, plus ``+g<rev>`` when this module is tracked by git.

    A copy installed inside some other checkout is not tracked there, so it
    does not report that checkout's HEAD.
    """
    path = Path(module_file).resolve()

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=path.parent, capture_output=True, text=True, timeout=5
        )

    try:
        if git("ls-files", "--error-unmatch", path.name).returncode == 0:
            out = git("rev-parse", "--short", "HEAD")
            if out.returncode == 0:
                return f"{distpoison.__version__}+g{out.stdout.strip()}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return distpoison.__version__


def check_out_dir(out_dir, option: str = "out_dir", force: bool = False) -> None:
    """Raise FileExistsError, naming ``option``, when no directory can be made
    at ``out_dir`` because a file stands there or at an ancestor, or when it
    holds a summary.json and ``force`` is not set. A command checks its
    output paths with it before any compute."""
    path = Path(out_dir)
    first = next(p for p in (path, *path.parents) if p.exists())
    if not first.is_dir():
        raise FileExistsError(f"{option}: cannot make directory {path}: {first} is a file")
    if (path / "summary.json").exists() and not force:
        raise FileExistsError(f"{option}: {path / 'summary.json'} exists; "
                              "pass force=True (--force) to overwrite")


def emit_results(
    results: list[RunResult], out_dir, cfg: ExperimentConfig, force: bool = False
) -> list[Path]:
    """Write summary.json plus per-run telemetry, histograms, perturbations.

    Refuses, by ``check_out_dir``, to overwrite an out_dir that already holds
    a summary.json unless ``force`` is set.
    """
    check_out_dir(out_dir, force=force)
    out = Path(out_dir)
    summary_path = out / "summary.json"
    out.mkdir(parents=True, exist_ok=True)
    written = []
    summary = {
        "config": cfg.to_dict(),
        "code_version": _code_version(),
        "runs": [r.to_dict() for r in results],
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    written.append(summary_path)
    poisoned = cfg.poisoned_worker
    for r in results:
        tag = f"seed{r.seed}"
        if r.records_clean:
            p = out / f"grad_clean_{tag}.csv"
            write_telemetry_csv(r.records_clean, None, p)
            written.append(p)
        if r.records_poisoned:
            p = out / f"grad_poisoned_{tag}.csv"
            write_telemetry_csv(r.records_poisoned, poisoned, p)
            written.append(p)
            if len(r.records_poisoned[0].worker_norms) >= 2:
                p = out / f"divergence_{tag}.csv"
                write_divergence_csv(r.records_poisoned, poisoned, p)
                written.append(p)
        if r.perturbation is not None:
            p = out / f"perturbation_{tag}.json"
            r.perturbation.save(p)
            written.append(p)
    return written


def emit_histograms(results: list[RunResult], out_dir) -> list[Path]:
    """Clean-vs-perturbed homophily histograms, one CSV per seed.

    Written from the homophily vectors each run kept, so no dataset is built
    again. Results without the vectors are skipped.
    """
    out = Path(out_dir)
    written = []
    for r in results:
        if r.homophily_clean is None or r.homophily_perturbed is None:
            continue
        p = out / f"homophily_hist_seed{r.seed}.csv"
        write_histogram_csv(r.homophily_clean, r.homophily_perturbed, p)
        written.append(p)
    return written


def load_summary(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def replay_perturbation(
    cfg: ExperimentConfig, pert: PerturbationSet | str | Path, seed: int | None = None
) -> RunResult:
    """Apply a stored perturbation, or the one saved at the path ``pert``, to
    a fresh paired run on ``seed`` (by default the recorded seed, else 0). A
    file that does not read as a perturbation, one with a field of a wrong
    type or range (see ``PerturbationSet.field_errors``), or one made on
    another poisoned worker than the config's, is a ConfigError."""
    source = ""  # the file's path, when the set is read from one
    if not isinstance(pert, PerturbationSet):
        source = f" {pert}"
        try:
            pert = PerturbationSet.load(pert)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"invalid perturbation{source}: {type(exc).__name__}: {exc}") from exc
    errors = pert.field_errors()
    if errors:
        raise ConfigError(f"invalid perturbation{source}: " + "; ".join(errors))
    if seed is None:
        seed = pert.config.get("seed", 0)
    worker = pert.config.get("poisoned_worker", cfg.poisoned_worker)
    if worker != cfg.poisoned_worker:
        raise ConfigError(f"invalid configuration:\n  poisoned_worker: must be the "
                          f"perturbation's worker {worker}, got {cfg.poisoned_worker}")
    return run_single_seed(cfg, seed, pert)
