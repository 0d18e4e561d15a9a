"""Repeat mode: run the benchmark once per seed and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/repeat.py --runs 10 [--workload chaos_crash ...]
        [--first-seed 1] [--seconds 24] [--out summary.json]

Runs ``perfbench/run.py`` serially, one process per seed (``first-seed``,
``first-seed + 1``, ...), and prints for every workload and metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``
(a steady benchmark keeps the spread below a third of it).  It also
prints the share of failed operations of every run, which must be the same.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def summarize(values: list) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=900
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            )
            print(
                f"{workload} seed={seed} correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} {values}",
                flush=True,
            )
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_shares": shares,
            "metrics": metrics,
        }
        correct = summary[workload]["correct"]
        print(f"== {workload}: correct={correct} failed shares {shares}")
        for name, s in metrics.items():
            bound = bounds[name]
            print(
                f"   {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                f"bound {bound:g} (third {bound / 3:.4f})"
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
