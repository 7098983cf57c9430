"""End-to-end benchmark of `distpoison run`, with an optional per-layer trace.

    python3 perfbench/run.py --workload stealth_ref --seed 0 --seconds 40 --trace 0

Run from the repository root (the parent of this directory). Each timed run
is one child process, `python -m distpoison.cli run` on one workload with one
experiment seed, started after the previous one exits: a closed loop with one
client. Children get ``PYTHONPATH=src`` and one BLAS/OpenMP thread. Every
experiment seed derives from ``--seed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs one
child under the tracer (perfbench/spans.py) and prints the per-layer
metrics. Every child's outputs are checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import layer_metrics, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = "configs/sbm_disttack.yaml"
RUNS_DIR = ROOT / ".perfbench_runs"

# Workload -> (--set overrides on CONFIG, attack kind). Degree is held fixed
# as n grows.
WORKLOADS = {
    "stealth_ref": ([], "disttack"),
    "victim_n6400": (
        ["attack.kind=ra", "workers=8", "dataset.block_sizes=[1600,1600,1600,1600]",
         "dataset.p_intra=0.003125", "dataset.p_inter=0.0003125"],
        "ra",
    ),
}

CHILD_ENV = {
    "PYTHONPATH": "src",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Units of the metrics this file computes; spans.unit_of covers the rest.
UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "epoch_ms_p75": "ms",
    "epoch_ms_p90": "ms",
    "trace.overhead_s": "s",
    "acc_drop": "1",
    "homophily_w1": "1",
}

MIN_TIMED = 3  # timed children per run, whatever --seconds says
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 170.0  # the whole invocation must end within 180 s


@dataclass
class Child:
    """One finished child process."""

    argv: list
    code: int
    spawned: float  # time.monotonic() just before the spawn
    wall_s: float
    maxrss_mb: float
    out_dir: Path
    stdout: str
    errors: list = field(default_factory=list)
    seed: int | None = None  # experiment seed of a `distpoison run` child


def spawn(argv, log_stem: Path, out_dir: Path | None = None) -> Child:
    """Run one child to completion; wall time from spawn to exit, its own peak RSS.

    ``os.wait4`` gives the rusage of this child alone; RUSAGE_CHILDREN would
    report the maximum over every child reaped so far.
    """
    env = dict(os.environ, **CHILD_ENV)
    with open(f"{log_stem}.out", "w") as out, open(f"{log_stem}.err", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    child = Child(
        argv=argv,
        code=proc.returncode,
        spawned=t0,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        out_dir=out_dir,
        stdout=Path(f"{log_stem}.out").read_text(),
    )
    if child.code != 0:
        tail = Path(f"{log_stem}.err").read_text().strip().splitlines()[-1:]
        child.errors.append(f"exit code {child.code}: {' '.join(tail)}")
    return child


def experiment_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Per-child experiment seeds, a pure function of (workload, --seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _sets(overrides) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def run_args(workload: str, exp_seed: int, out_dir: Path) -> list[str]:
    overrides, _ = WORKLOADS[workload]
    return [
        "run", "--config", CONFIG, *_sets(overrides),
        "--set", f"seeds=[{exp_seed}]", "--set", "parallel_seeds=1",
        "--out", str(out_dir),
    ]


# -- output checks ----------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(child: Child, workload: str, exp_seed: int) -> None:
    """Append to ``child.errors`` every way the run's artefacts are wrong."""
    if child.code != 0:
        return
    _, kind = WORKLOADS[workload]
    out = child.out_dir
    try:
        summary = json.loads((out / "summary.json").read_text())
        cfg = summary["config"]
        runs = summary["runs"]
        if [r["seed"] for r in runs] != [exp_seed]:
            child.errors.append(f"summary seeds {[r['seed'] for r in runs]} != [{exp_seed}]")
        for r in runs:
            for key in ("acc_clean", "acc_attacked"):
                if not 0.0 <= r[key] <= 1.0:
                    child.errors.append(f"seed {r['seed']}: {key}={r[key]} outside [0, 1]")
            pert = json.loads((out / f"perturbation_seed{r['seed']}.json").read_text())
            pcfg = pert["config"]
            n_edges = len(pert["edges_removed"]) + len(pert["edges_added"])
            n_flips = len(pert["features_flipped"])
            if pcfg.get("kind") != kind:
                child.errors.append(f"perturbation kind {pcfg.get('kind')!r} != {kind!r}")
            if pcfg.get("feature_budget", 0) not in (0, cfg["attack"]["feature_budget"]):
                child.errors.append("resolved feature budget differs from the config")
            if n_edges > pcfg["edge_budget"] or n_flips > pcfg.get("feature_budget", 0):
                child.errors.append(
                    f"seed {r['seed']}: {n_edges} edge edits / {n_flips} flips exceed "
                    f"budgets {pcfg['edge_budget']} / {pcfg.get('feature_budget', 0)}"
                )
            counted = (r["edges_removed"], r["edges_added"], r["features_flipped"])
            stored = (len(pert["edges_removed"]), len(pert["edges_added"]), n_flips)
            if counted != stored:
                child.errors.append(f"summary counts {counted} != perturbation file {stored}")
            for tag in ("clean", "poisoned"):
                rows = _read_csv(out / f"grad_{tag}_seed{r['seed']}.csv")
                if len(rows) != cfg["epochs"] * cfg["workers"]:
                    child.errors.append(f"grad_{tag}: {len(rows)} rows")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        child.errors.append(f"unreadable artefacts: {type(exc).__name__}: {exc}")


def _grad_rows(path: Path) -> list[dict]:
    rows = _read_csv(path)
    for row in rows:
        row.pop("wall_ms", None)
    return rows


def compare_artefacts(a: Path, b: Path, exp_seed: int) -> list[str]:
    """Perturbation JSONs equal and gradient CSVs equal without ``wall_ms``."""
    errors = []
    name = f"perturbation_seed{exp_seed}.json"
    if json.loads((a / name).read_text()) != json.loads((b / name).read_text()):
        errors.append(f"{name} differs between timed and traced runs")
    for tag in ("clean", "poisoned"):
        name = f"grad_{tag}_seed{exp_seed}.csv"
        if _grad_rows(a / name) != _grad_rows(b / name):
            errors.append(f"{name} differs between timed and traced runs")
    return errors


# -- environment ------------------------------------------------------------------


def git_state() -> dict:
    """HEAD and a dirty flag of the repository at ROOT; null outside a git checkout.

    Git is not run without ROOT/.git, so it never searches parent directories.
    """
    if not (ROOT / ".git").exists():
        return {"git_rev": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20
        ).stdout.strip()

    try:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        return {"git_rev": git("rev-parse", "HEAD") or None, "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_rev": None, "git_dirty": None}


# -- metrics --------------------------------------------------------------------


def epoch_wall_ms(child: Child) -> list[float]:
    """Per-epoch synchronization wall time of both trainings of every seed."""
    out = []
    for path in sorted(child.out_dir.glob("grad_*_seed*.csv")):
        out.extend(float(r["wall_ms"]) for r in _read_csv(path) if r["worker_id"] == "0")
    return out


def summary_runs(child: Child) -> list[dict]:
    return json.loads((child.out_dir / "summary.json").read_text())["runs"]


def quality(children: list[Child]) -> tuple[float, float, int]:
    """Mean accuracy drop and homophily W1 over every seed of ``children``."""
    runs = [r for c in children for r in summary_runs(c)]
    return (statistics.fmean(r["accuracy_drop"] for r in runs),
            statistics.fmean(r["homophily_distance"] for r in runs), len(runs))


# -- one workload -----------------------------------------------------------------


def _child_py(mode: str, *args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, *map(str, args)]


def bench_workload(workload: str, seed: int, seconds: float, trace: bool, started: float):
    """Run one workload; returns ({metric: (value, unit)}, attempted, failed, report)."""
    overrides, _ = WORKLOADS[workload]
    sets = _sets(overrides)
    work = RUNS_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children: list[Child] = []

    # Set-up time: spawn until distpoison.cli is imported and the config loaded.
    # Each probe then reports the environment it ran in. A traced run needs
    # only the environment.
    setup = []
    env_record = dict(git_state(), nproc=os.cpu_count(), workload=workload,
                      child_env=CHILD_ENV)
    for k in range(1 if trace else SETUP_PROBES):
        probe = spawn(_child_py("setup", CONFIG, *sets), work / f"setup{k}")
        children.append(probe)
        if probe.code == 0:
            loaded, env = probe.stdout.strip().splitlines()[-2:]
            setup.append(float(loaded) - probe.spawned)
            env_record.update(json.loads(env))

    # Closed loop, one client: the next child starts when the previous exits.
    seeds = experiment_seeds(workload, seed, 64)
    timed: list[Child] = []
    loop_start = time.monotonic()
    for k, exp_seed in enumerate(seeds):
        longest = max((c.wall_s for c in timed), default=0.0)
        if k >= MIN_TIMED and (
            time.monotonic() - loop_start >= seconds
            or time.monotonic() - started + 3 * longest > RUN_BUDGET_S
        ):
            break
        out_dir = work / f"c{k}"
        child = spawn(
            [sys.executable, "-m", "distpoison.cli", *run_args(workload, exp_seed, out_dir)],
            work / f"c{k}", out_dir,
        )
        child.seed = exp_seed
        check_outputs(child, workload, exp_seed)
        timed.append(child)
    children.extend(timed)
    ok = [c for c in timed if not c.errors]
    if not ok:
        raise RuntimeError(f"{workload}: every timed run failed: {timed[0].errors}")
    first = ok[0]

    run_s = statistics.median(c.wall_s for c in ok)
    if trace:
        # One replay per workload, outside the timed loop, must reproduce
        # acc_attacked exactly.
        pert_path = first.out_dir / f"perturbation_seed{first.seed}.json"
        replay = spawn(_child_py("replay", CONFIG, pert_path, first.seed, *sets),
                       work / "replay")
        children.append(replay)
        if replay.code == 0:
            got = json.loads(replay.stdout.strip().splitlines()[-1])["acc_attacked"]
            want = summary_runs(first)[0]["acc_attacked"]
            if got != want:
                replay.errors.append(f"replay acc_attacked {got!r} != {want!r}")

        out_dir = work / "traced"
        spans_path = work / "spans.json"
        traced = spawn(
            _child_py("trace", spans_path, "--", *run_args(workload, first.seed, out_dir)),
            work / "traced", out_dir,
        )
        children.append(traced)
        check_outputs(traced, workload, first.seed)
        if traced.errors:
            raise RuntimeError(f"{workload}: traced run failed: {traced.errors}")
        traced.errors.extend(compare_artefacts(first.out_dir, out_dir, first.seed))
        metrics = layer_metrics(json.loads(spans_path.read_text()))
        # Against the timed run of the same experiment seed: same input.
        metrics["trace.overhead_s"] = traced.wall_s - first.wall_s
        metrics["acc_drop"], metrics["homophily_w1"], _ = quality([traced])
        counts = {}
    else:
        epochs = [ms for c in ok for ms in epoch_wall_ms(c)]
        # 5% steps: [9] is the median, [14] the 75th and [17] the 90th percentile.
        pct = statistics.quantiles(epochs, n=20, method="inclusive")
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(c.maxrss_mb for c in ok),
            "epoch_ms_p75": pct[14],
            "epoch_ms_p90": pct[17],
        }
        counts = {"run_s": len(ok), "setup_s": len(setup), "peak_rss_mb": len(ok),
                  "epoch_ms_p75": len(epochs), "epoch_ms_p90": len(epochs)}
    units = {name: UNITS.get(name) or unit_of(name) for name in metrics}

    attempted = len(children)
    failed = sum(1 for c in children if c.errors)
    acc_drop, w1, n_runs = quality(ok)
    lines = ["env " + json.dumps(env_record, sort_keys=True)]
    lines += [f"FAILED {' '.join(c.argv[1:3])}: {err}" for c in children for err in c.errors]
    lines.append(f"workload {workload}: --seed {seed}, {len(timed)} timed run(s), "
                 f"experiment seeds {seeds[:len(timed)]}")
    for name, value in metrics.items():
        n = f"  n={counts[name]}" if name in counts else ""
        lines.append(f"  {name:34s} {value:18.6f} {units[name]}{n}")
    if not trace:
        # Unbounded: a shared host that alternates between two speeds puts
        # the median epoch on either side from run to run.
        lines.append(f"  {'epoch_ms_p50':34s} {pct[9]:18.6f} ms  n={len(epochs)}")
    lines.append(f"  {'fail_rate':34s} {failed / attempted:18.6f} ratio  "
                 f"({failed} of {attempted} child processes)")
    lines.append(f"  {'acc_drop, timed runs':34s} {acc_drop:18.6f} 1  n={n_runs}")
    lines.append(f"  {'homophily_w1, timed runs':34s} {w1:18.6f} 1  n={n_runs}")
    record = {"env": env_record, "metrics": metrics, "attempted": attempted, "failed": failed,
              "children": [{"argv": c.argv, "code": c.code, "wall_s": c.wall_s,
                            "maxrss_mb": c.maxrss_mb, "errors": c.errors} for c in children]}
    (work / "result.json").write_text(json.dumps(record, indent=2))
    return {n: (v, units[n]) for n, v in metrics.items()}, attempted, failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = [p for p in ("src/distpoison/cli.py", CONFIG) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            got, n_att, n_fail, lines = bench_workload(
                name, args.seed, args.seconds, bool(args.trace), started
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in got.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        attempted += n_att
        failed += n_fail
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
