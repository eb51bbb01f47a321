"""Run one workload repeatedly and report how steady its end-to-end metrics are.

    python3 perfbench/steady.py --workload solve-mix --first-seed 1

Runs the workload ten times, each a fresh `perfbench/run.py` process with
PYTHONHASHSEED=0 and the next seed.  For every end-to-end metric in
BENCHMARK.json this prints the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median, and whether the spread is within the
metric's bound and within a third of it.  It also prints the share of failed
operations, which must be the same in every run.  Exits 1 if a run fails, a
spread is outside its bound or the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONHASHSEED="0")
    results = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {line}", flush=True)

    ok = True
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}, {len(results)} runs, failed share {sorted(shares)}")
    if len(shares) != 1:
        ok = False
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if spread <= metric["bound"] / 3:
            verdict = "within a third of the bound"
        elif spread <= metric["bound"]:
            verdict = "within the bound"
        else:
            verdict = "OUTSIDE the bound"
            ok = False
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {metric['bound']:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
