"""Steadiness of the benchmark: run each workload with several seeds and print,
for every end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound.

    python3 bench/steady.py --workload infer-ld --seeds 1-10
    python3 bench/steady.py --seeds 1-10            # every workload

A spread should stay below a third of its bound (setup_s excepted), and the
share of failed operations must be the same in every run.  The table is also
written to bench/results/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, declared):
    rows = []
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        rows.append({"name": m["name"], "unit": m["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                     "steady": m["name"] == "setup_s" or spread < m["bound"] / 3,
                     "values": values})
    shares = {r["failed"] / r["attempted"] for r in results}
    return rows, shares


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    all_steady = True
    for workload in args.workload or names:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        rows, shares = summarize(results, spec["end_to_end"])
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, all correct: {correct}, "
              f"failed shares: {sorted(shares)}")
        print(f"{'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for r in rows:
            print(f"{r['name']:26s} {r['median']:12.6g} {r['q1']:12.6g} "
                  f"{r['q3']:12.6g} {r['spread']:8.4f} {r['bound']:6.2f} "
                  f"{'ok' if r['steady'] else 'WIDE'}")
        print()
        out = BENCH_DIR / "results" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seeds": args.seeds, "rows": rows,
                                   "failed_shares": sorted(shares)}, indent=1) + "\n")
        all_steady &= correct and len(shares) == 1 and all(r["steady"] for r in rows)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
