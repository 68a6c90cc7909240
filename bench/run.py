"""Benchmark of ldrpmnet: training and near-sensor inference.

    python3 bench/run.py --workload train-ld --seed 1 --seconds 50 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics instead.
Each run also writes its figures and its environment to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# fixed before numpy loads: one thread keeps a run to one core; on a 2-core
# machine OpenBLAS's default pool was found to double CPU use and to be the
# least steady setting
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# also fixed before numpy loads: numpy's huge-page advice is off, because
# whether the kernel can honour it depends on the host's free memory at the
# time, so the page faults of a train step varied 2x between runs of the
# same code with it on (216k against 462k minor faults over 40 steps)
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _openblas_threads(numpy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        HUGEPAGE_VAR: os.environ.get(HUGEPAGE_VAR),
    }


def _openblas_threads(numpy):
    """Thread count OpenBLAS reports at run time, or None where numpy does not
    bundle a scipy-openblas library."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(dll, symbol):
                fn = getattr(dll, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "ldrpmnet" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package} not found; run from a checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ[HUGEPAGE_VAR] = "0"
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import workloads

    try:
        attempted, values, details = workloads.run(args.workload, args.seed,
                                                   args.seconds, args.trace)
        correct = True
    except checks.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        attempted, values, details, correct = 1, {}, {"check_failed": str(exc)}, False

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "details": details}
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    tail = details.get("b1_tail_ms")
    if tail and not args.trace:
        print(f"infer_b1_ms.p{tail[0]:g} {tail[1]:.4f} ms "
              f"(n={details['b1_samples']} batch-1 samples)")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if correct and missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
