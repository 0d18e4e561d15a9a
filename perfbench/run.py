"""The repository's benchmark: one command, three serial workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chaos_crash --seed 1 --seconds 12 --trace 0

Both modes first run one untimed warm-up round.  With ``--trace 0`` the run
prints the end-to-end metrics of the untraced rounds it repeats for
``--seconds``; with ``--trace 1`` it runs one untraced round and then one
round under ``cProfile``, and prints the per-layer ledger.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it name the run's simulated-output
fingerprint and every failed operation.

Everything runs in this one process, serially, with BLAS/OpenMP held to one
thread.  ``setup_s`` is the median of several fresh processes that each stop
at the first operation.  Round and set-up times are scaled to a reference
core speed (``perfbench/gauge.py``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Before NumPy is imported anywhere: one BLAS/OpenMP thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import gauge  # noqa: E402  (next to this file)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("chaos_crash", "chaos_transient", "paper_sweep")

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5

#: A timed percentile needs this many samples beyond it to be a tail.
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--only",
        default="",
        help="keep only the campaigns/cells whose label contains this text "
        "(for attribution of one part; changes what a round attempts)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_tree() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {SRC}; run from a full checkout")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def warm_bytecode() -> None:
    """Compile every module first: a cold bytecode cache costs more than a
    second of import time and would land in the first measurement."""
    for path in (SRC, HERE):
        compileall.compile_dir(path, quiet=2)


def make_workload(args):
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.only:
        if hasattr(wl, "campaigns"):
            wl.campaigns = [c for c in wl.campaigns if args.only in c.label]
        else:
            wl.cells = tuple(
                c for c in wl.cells if args.only in f"{c[0]}:{c[1]}@{c[2]}"
            )
    return wl


def setup_sample(args) -> float:
    """Host seconds from the start of a fresh process to its first operation."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--probe-setup",
    ]
    if args.only:
        cmd += ["--only", args.only]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


def setup_samples(args, n: int) -> list:
    """*n* set-up samples, each scaled by the mean of the yardstick
    processes timed just before and just after it (``gauge.py``)."""
    samples = []
    before = gauge.import_seconds() if n else 0.0
    for _ in range(n):
        elapsed = setup_sample(args)
        after = gauge.import_seconds()
        samples.append(elapsed * gauge.REFERENCE_IMPORT_S / ((before + after) / 2))
        before = after
    return samples


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ``TAIL_BEYOND`` of *n*
    samples beyond it (0 when there are too few samples for a tail)."""
    for q in range(99, 50, -1):
        if n - math.ceil(q / 100.0 * n) >= TAIL_BEYOND:
            return q
    return 0


def run_rounds(wl, args) -> tuple:
    """Rounds until ``args.seconds`` of rounds have run, and the set-up
    samples, taken two before each round (then topped up) so that both
    spread over the same stretch of the run."""
    rounds, setup = [], []
    measured = 0.0
    while not rounds or measured < args.seconds:
        setup += setup_samples(args, min(2, SETUP_SAMPLES - len(setup)))
        gc.collect()
        t0 = time.perf_counter()
        rounds.append(wl.run_round())
        measured += time.perf_counter() - t0
    setup += setup_samples(args, SETUP_SAMPLES - len(setup))
    return rounds, setup


def run_traced(wl):
    """One untraced round, then one round under ``cProfile``."""
    import cProfile
    import pstats

    gc.collect()
    base = wl.run_round()
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    traced = wl.run_round()
    profile.disable()
    return base, traced, pstats.Stats(profile)


def chaos_schedule_times(rnd) -> dict:
    times = [dt for label, dt in rnd.ops if "#" in label]
    if not times:
        return {"chaos.schedule_p50_ms": 0.0, "chaos.schedule_tail_ms": 0.0}
    q = tail_percentile(len(times))
    return {
        "chaos.schedule_p50_ms": 1e3 * percentile(times, 50),
        "chaos.schedule_tail_ms": 1e3 * percentile(times, q) if q else 0.0,
    }


def layer_metrics(wl, base, traced, stats) -> dict:
    import ledger

    metrics = ledger.layer_metrics(stats)
    counts = base.counts
    tasks = counts.get("runtime.tasks", 0)
    metrics.update(
        {
            "runtime.tasks": tasks,
            "runtime.us_per_task": (
                1e6 * metrics["runtime.self_s"] / tasks if tasks else 0.0
            ),
            "runtime.messages": counts.get("runtime.messages", 0),
            "runtime.bytes_sent": counts.get("runtime.bytes_sent", 0.0),
            "resilience.checkpoints": counts.get("resilience.checkpoints", 0),
            "resilience.restores": counts.get("resilience.restores", 0),
            "chaos.baseline_s": wl.baseline_s,
            "chaos.recovered": counts.get("chaos.recovered", 0),
            "chaos.data_loss_accepted": counts.get("chaos.data_loss_accepted", 0),
            "bench.cells": base.attempted,
            "sim.iterations": base.iterations,
            "trace.overhead_s": traced.host_seconds - base.host_seconds,
        }
    )
    metrics.update(chaos_schedule_times(base))
    return metrics


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    check_tree()
    if args.probe_setup:
        make_workload(args).probe()
        print("ready", flush=True)
        return 0

    warm_bytecode()
    wl = make_workload(args)
    errors = list(wl.setup())
    # An untimed round first: it fills the program's memos (failure-free
    # baselines, the LinkMatrix edge memo), so the timed rounds all measure
    # the same steady state (the first round ran up to 8 % slower).
    gc.collect()
    warm_up = wl.run_round()

    if args.trace:
        base, traced, stats = run_traced(wl)
        metrics = layer_metrics(wl, base, traced, stats)
        rounds, setup = [base, traced], []
    else:
        rounds, setup = run_rounds(wl, args)
        wall = statistics.median(r.seconds for r in rounds)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_iters_per_s": statistics.median(r.iterations for r in rounds) / wall,
        }

    checked = [warm_up] + rounds
    fingerprints = {r.fingerprint for r in checked}
    if len(fingerprints) != 1:
        errors.append(
            "rounds of one run disagree on the simulated output "
            f"({len(fingerprints)} fingerprints)"
        )
    print(f"fingerprint {args.workload} seed={args.seed} {rounds[0].fingerprint}")
    print(f"warm-up round host seconds: {warm_up.host_seconds:.3f}")
    print("round seconds: " + " ".join(f"{r.seconds:.3f}" for r in rounds))
    print("round host seconds: " + " ".join(f"{r.host_seconds:.3f}" for r in rounds))
    if setup:
        print("setup seconds: " + " ".join(f"{t:.3f}" for t in setup))
    for message in sorted(set(f for r in checked for f in r.failures)):
        print(f"failed: {message}")
    for message in errors:
        print(f"check failed: {message}")

    declared = declared_metrics(args.trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in checked),
        "failed": sum(len(r.failures) for r in checked),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
