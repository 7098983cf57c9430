"""Command-line entry point: run experiments, benchmark, replay, gradcheck.

Exit codes: 0 success, 2 configuration error, 1 runtime failure.

Each command does all of its work, files included, and returns its exit
status with the lines it reports; ``main`` prints them. So a reader that
closes stdout early ends the output, but changes neither the files nor the
status.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from distpoison.experiment import (
    ConfigError,
    ExperimentConfig,
    check_out_dir,
    emit_histograms,
    emit_results,
    replay_perturbation,
    run_experiment,
    scaling_benchmark,
)
from distpoison.gnn import ParamSet, check_gradients
from distpoison.graph import generate_sbm, normalize_adjacency


def _parse_yaml(source, where: str):
    """``yaml.safe_load(source)``; a YAML error is a ``ConfigError`` naming ``where``."""
    try:
        return yaml.safe_load(source)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(f"{where}: not valid YAML{at}: {problem}") from None


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    for item in overrides:
        key, _, raw_val = item.partition("=")
        parts = key.split(".")
        if "=" not in item or "" in parts:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        value = _parse_yaml(raw_val, f"--set {key}")
        node = cfg
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not a mapping")
        node[parts[-1]] = value
    return cfg


def load_config(path, overrides) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {path}: cannot be read: {exc}") from None
    raw = _parse_yaml(text, f"--config {path}") or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"--config {path}: top level must be a mapping")
    raw = _apply_overrides(raw, overrides or [])
    return ExperimentConfig.from_dict(raw)


def cmd_run(args) -> tuple[int, list[str]]:
    cfg = load_config(args.config, args.set)
    if args.out:
        cfg.out_dir = args.out
    if cfg.out_dir:
        check_out_dir(cfg.out_dir, "--out" if args.out else "out_dir", args.force)
    results = run_experiment(cfg)
    lines = [
        f"seed {r.seed}: clean {r.acc_clean:.4f} attacked {r.acc_attacked:.4f} "
        f"drop {r.accuracy_drop:+.4f} "
        f"(removed {r.edges_removed}, added {r.edges_added}, flips {r.features_flipped}, "
        f"attack {r.attack_seconds:.2f}s)"
        for r in results
    ]
    drops = [r.accuracy_drop for r in results]
    lines.append(f"mean drop over {len(results)} seed(s): {np.mean(drops):+.4f}")
    if cfg.out_dir:
        written = emit_results(results, cfg.out_dir, cfg, force=args.force)
        written += emit_histograms(results, cfg.out_dir)
        lines.append(f"wrote {len(written)} files to {cfg.out_dir}")
    return 0, lines


def cmd_bench(args) -> tuple[int, list[str]]:
    cfg = load_config(args.config, args.set)
    if args.out:  # the table's file is overwritten, but a directory is not
        if Path(args.out).is_dir():
            raise FileExistsError(f"--out: {args.out} is a directory")
        check_out_dir(Path(args.out).parent, "--out", force=True)
    table = scaling_benchmark(cfg, args.sizes, iterations=args.iterations)
    lines = [f"{'mult':>5} {'graphN':>7} {'graphE':>7} {'N':>8} {'|A|':>8} {'d':>7} {'M':>5} {'sec/iter':>10}"]
    for row in table["rows"]:
        lines.append(
            f"{row['multiplier']:>5} {row['graph_nodes']:>7} {row['graph_edges']:>7} "
            f"{row['nodes']:>8.1f} {row['edges']:>8.1f} {row['avg_degree']:>7.2f} "
            f"{row['feature_dim']:>5} {row['attack_seconds']:>10.6f}"
        )
    fit = table["fit"]
    lines.append(f"fit vs {table['cost_model']}: R^2 = {fit['r2']:.4f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(table, fh, indent=2)
        lines.append(f"wrote {args.out}")
    return 0, lines


def cmd_replay(args) -> tuple[int, list[str]]:
    cfg = load_config(args.config, args.set)
    r = replay_perturbation(cfg, args.perturbation, seed=args.seed)
    return 0, [
        f"replayed {r.perturbation.size} perturbation(s): clean {r.acc_clean:.4f} "
        f"attacked {r.acc_attacked:.4f} drop {r.accuracy_drop:+.4f}"
    ]


def cmd_gradcheck(args) -> tuple[int, list[str]]:
    blocks = [args.nodes // 3, args.nodes // 3, args.nodes - 2 * (args.nodes // 3)]
    g = generate_sbm(args.seed, blocks, 0.35, 0.2, feature_dim=args.features, noise=0.4)
    adj = normalize_adjacency(g)
    params = ParamSet.init_gcn(g.feature_dim, args.hidden, g.num_classes, seed=args.seed)
    node_set = np.flatnonzero(g.train_mask)
    if len(node_set) == 0:
        node_set = np.arange(g.num_nodes)
    t0 = time.perf_counter()
    report = check_gradients(params, adj, g.features, g.labels, node_set, epsilon=args.epsilon)
    elapsed = time.perf_counter() - t0
    lines = [f"d{name}: max relative error {report.max_rel_err[name]:.3e}"
             for name in ("W0", "W1", "X", "A") if name in report.max_rel_err]
    status = "OK" if report.overall < args.threshold else "FAIL"
    lines.append(f"overall {report.overall:.3e} (threshold {args.threshold:g}) "
                 f"in {elapsed:.2f}s: {status}")
    return (0 if status == "OK" else 1), lines


def _checked(convert, ok, what: str):
    """An argparse type: ``convert(text)``, refused unless ``ok`` holds of it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distpoison",
        description="Poisoning attacks on simulated distributed GNN training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment over its seeds")
    run.add_argument("--config", required=True, help="YAML experiment config")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config field (dotted keys)")
    run.add_argument("--out", help="output directory (overrides config out_dir)")
    run.add_argument("--force", action="store_true",
                     help="overwrite an existing output directory")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="runtime scaling benchmark")
    bench.add_argument("--config", required=True)
    bench.add_argument("--set", action="append", metavar="KEY=VALUE")
    sizes = _checked(lambda text: [int(s) for s in text.split(",")],
                     lambda v: min(v) >= 1 and len(set(v)) >= 3,
                     "at least 3 distinct positive integers, comma-separated")
    bench.add_argument("--sizes", type=sizes, default="1,2,4,8",
                       help="comma-separated size multipliers (at least 3 distinct)")
    bench.add_argument("--iterations", type=_at_least(1), default=12)
    bench.add_argument("--out", help="write the table as JSON here")
    bench.set_defaults(func=cmd_bench)

    replay = sub.add_parser("replay", help="apply a stored perturbation to a fresh run")
    replay.add_argument("--config", required=True)
    replay.add_argument("--set", action="append", metavar="KEY=VALUE")
    replay.add_argument("--perturbation", required=True, help="perturbation JSON")
    replay.add_argument("--seed", type=_at_least(0),
                        help="run seed (default: the one the perturbation records, else 0)")
    replay.set_defaults(func=cmd_replay)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient oracle")
    # The oracle takes graphs of at most 64 nodes; the features one-hot the
    # graph's three blocks.
    nodes = _checked(int, lambda v: 1 <= v <= 64, "an integer in [1, 64]")
    grad.add_argument("--nodes", type=nodes, default=12)
    grad.add_argument("--hidden", type=_at_least(1), default=8)
    grad.add_argument("--features", type=_at_least(3), default=6)
    grad.add_argument("--seed", type=_at_least(0), default=0)
    positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
    grad.add_argument("--epsilon", type=positive, default=1e-4)
    grad.add_argument("--threshold", type=positive, default=1e-4)
    grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, lines = args.func(args)
    except (ConfigError, FileNotFoundError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:  # the reader closed stdout: the output has ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
