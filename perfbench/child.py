"""Child processes of the benchmark, one mode per invocation.

    python3 perfbench/child.py setup  CONFIG [--set K=V ...]
        Import distpoison.cli and load the config; print the monotonic clock
        at that moment, then the environment record (interpreter, libraries,
        BLAS threads, config sha256) as JSON.
    python3 perfbench/child.py replay CONFIG PERTURBATION SEED [--set K=V ...]
        Replay a stored perturbation; print acc_attacked as JSON.
    python3 perfbench/child.py trace  SPANS_JSON -- <distpoison cli args>
        Run the distpoison CLI under the tracer and write spans to SPANS_JSON.

The parent puts ``src`` on PYTHONPATH and pins BLAS to one thread.
"""

from __future__ import annotations

import sys
import time


def _overrides(argv):
    out = []
    it = iter(argv)
    for arg in it:
        if arg != "--set":
            raise SystemExit(f"unexpected argument {arg!r}")
        out.append(next(it))
    return out


def setup(argv) -> int:
    import distpoison.cli

    cfg = distpoison.cli.load_config(argv[0], _overrides(argv[1:]))
    print(repr(time.monotonic()), flush=True)
    import json

    print(json.dumps(environment(cfg)))
    return 0


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return path.rsplit("/", 1)[-1], fn()
    return None, None


def environment(cfg) -> dict:
    """Interpreter, library and BLAS facts, plus the resolved config's sha256."""
    import hashlib
    import json
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, threads = _blas_threads()
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": lib,
        "blas_threads": threads,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
    }


def replay(argv) -> int:
    import json

    from distpoison.attack import PerturbationSet
    from distpoison.cli import load_config
    from distpoison.experiment import replay_perturbation

    config, pert_path, seed = argv[0], argv[1], int(argv[2])
    cfg = load_config(config, _overrides(argv[3:]))
    r = replay_perturbation(cfg, PerturbationSet.load(pert_path), seed=seed)
    print(json.dumps({"acc_attacked": r.acc_attacked}))
    return 0


def trace(argv) -> int:
    import json

    from spans import Tracer

    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: child.py trace SPANS_JSON -- <cli args>")
    t0 = time.perf_counter()
    import distpoison.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = distpoison.cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump(dict(tracer.dump(), import_s=import_s, exit_code=code), fh)
    return code


MODES = {"setup": setup, "replay": replay, "trace": trace}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in MODES:
        raise SystemExit(f"usage: child.py {{{'|'.join(MODES)}}} ...")
    sys.exit(MODES[sys.argv[1]](sys.argv[2:]))
