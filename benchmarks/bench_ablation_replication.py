"""Ablation — snapshot replication level vs checkpoint cost & survivability.

The paper's double in-memory store keeps exactly one backup copy (on the
next place), trading memory and checkpoint time for tolerance of any
single failure.  This ablation generalizes the store to k backups and
measures both sides of the trade on the LinReg workload at 24 places:

* checkpoint time as a function of k (k transfers per place per save);
* survivability: the largest burst of *consecutive* place failures a
  committed checkpoint survives (analytically k; verified by killing
  bursts and attempting a restore).
"""

import numpy as np

from _common import emit, results_path
from repro.bench import figures
from repro.bench.calibration import regression_bench_workload, regression_cost
from repro.apps.resilient import LinRegResilient
from repro.resilience.executor import IterativeExecutor
from repro.resilience.snapshot import make_redundancy
from repro.runtime import DataLossError, Runtime

PLACES = 24
KS = [0, 1, 2, 3]


def checkpoint_time_for(k: int) -> float:
    rt = Runtime(PLACES, cost=regression_cost(), resilient=True)
    app = LinRegResilient(rt, regression_bench_workload(10))
    for obj in (app.X, app.y, app.w, app.r, app.p):
        obj.snapshot_redundancy = make_redundancy(k)
    report = IterativeExecutor(rt, app, checkpoint_interval=5).run()
    return report.checkpoint_durations[0]  # the full (first) checkpoint


def survives_burst(k: int, burst: int) -> bool:
    rt = Runtime(PLACES, cost=regression_cost(), resilient=True)
    app = LinRegResilient(rt, regression_bench_workload(6))
    for obj in (app.X, app.y, app.w, app.r, app.p):
        obj.snapshot_redundancy = make_redundancy(k)
    store_holder = IterativeExecutor(rt, app, checkpoint_interval=3)
    for victim in range(3, 3 + burst):
        rt.injector.kill_at_iteration(victim, iteration=4)
    try:
        store_holder.run()
        return True
    except DataLossError:
        return False


def run_ablation():
    ckpt = {k: checkpoint_time_for(k) for k in KS}
    tolerance = {}
    for k in KS:
        survived = 0
        for burst in range(1, 5):
            if survives_burst(k, burst):
                survived = burst
            else:
                break
        tolerance[k] = survived
    return ckpt, tolerance


def test_ablation_replication_level(benchmark):
    ckpt, tolerance = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = ["backups  checkpoint(s)  survives consecutive failures"]
    for k in KS:
        lines.append(f"{k:7d}  {ckpt[k]:13.3f}  {tolerance[k]}")
    csv = figures.write_csv(
        results_path("ablation_replication.csv"),
        KS,
        {"checkpoint_s": [ckpt[k] for k in KS], "burst_tolerance": [float(tolerance[k]) for k in KS]},
    )
    lines.append(f"series written to {csv}")
    emit("Ablation — snapshot replication level (paper's store is k=1)", "\n".join(lines))

    # Checkpoint cost grows with k; each extra backup buys one more
    # consecutive-failure of burst tolerance.
    assert ckpt[0] < ckpt[1] < ckpt[2] < ckpt[3]
    assert tolerance[0] == 0
    for k in (1, 2, 3):
        assert tolerance[k] == k
