"""The benchmark's workloads: what one round runs and how it is checked.

A *round* is a fixed list of operations run serially in this process: a
chaos schedule is one operation, a sweep cell is one operation.  Every
round of a run attempts the same operations, so ``failed / attempted`` is
the same share in every run.  A round returns its host time scaled to the
reference core speed (``gauge.py``), its raw host time, the time of
each operation, the counts read from the objects the program returned, the
failures it found, and a fingerprint of its simulated output.

The program is driven only through its public entry points
(``repro.chaos.run_campaign``, ``repro.bench.harness.run_restore_sweep`` /
``run_overhead_sweep``).  Two class-level hooks observe it without changing
what it computes: ``IterativeExecutor.run`` is wrapped to collect every
:class:`ExecutionReport`, and ``repro.chaos.run_schedule`` is wrapped to time
each schedule and to turn an escaping exception into a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import reference
from gauge import Gauge

#: The fault mix of the CI ``full-matrix`` chaos job.
FULL_MATRIX = dict(
    drop_rate=0.15,
    straggler_max=8.0,
    corrupt_rate=0.02,
    partition_rate=0.3,
    detect_timeout=1.0,
    stable_fallback=True,
)

#: Every campaign draws its 200 failure schedules from this seed (the CI
#: chaos gates' seed), so each round does the same simulated work whatever
#: ``--seed`` is; ``--seed`` picks the applications' data instead.  The cg
#: reconstruct campaign's schedule 101 fails every time (see README).
CAMPAIGN_SEED = 1234

#: ExecutionReport fields hashed into the fingerprint (virtual seconds).
REPORT_TIMES = (
    "step_time",
    "checkpoint_time",
    "restore_time",
    "checkpoint_stall_time",
    "lost_time",
    "total_time",
    "detection_wait_time",
    "reconstruct_time",
    "redundancy_time",
    "scrub_time",
)

#: Statuses a chaos schedule may end in without failing.
_PASSING = ("clean", "recovered", "data_loss_accepted", "corruption_loss_accepted")

#: How each app's answer is read (driver-side copies; none charges virtual
#: time, so reading right after a run cannot move a reported time).
RESULT_OF: Dict[str, Callable] = {
    "linreg": lambda app: app.model(),
    "logreg": lambda app: app.model(),
    "pagerank": lambda app: app.ranks(),
    "cg": lambda app: app.solution(),
}


@dataclass
class Round:
    """What one round did."""

    #: Host seconds of the round scaled to the reference core speed.
    seconds: float
    #: Operations the round attempted.
    attempted: int
    #: (operation label, host seconds) of each operation that ran.
    ops: List[Tuple[str, float]]
    #: One line per failed operation: its label and why it failed.
    failures: List[str]
    fingerprint: str
    #: Simulated application iterations (replays and baselines included).
    iterations: int
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host seconds of the round as measured (spins left out).
    host_seconds: float = 0.0


class _Recorder:
    """Collects what the program returns during a round."""

    def __init__(self) -> None:
        self.reports: List[object] = []
        self.results: List[Tuple[str, np.ndarray]] = []
        self.counts: Dict[str, float] = {}
        self.schedule_seconds: List[float] = []
        #: Set by the set-up probe: stop at the first schedule.
        self.stop_at_first_schedule = False

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def runtime_stats(self, rt) -> None:
        stats = rt.stats
        self.add("runtime.tasks", stats.tasks)
        self.add("runtime.messages", stats.messages)
        self.add("runtime.bytes_sent", stats.bytes_sent)


class FirstOperation(Exception):
    """Raised by the set-up probe when the first operation is reached."""


class Hooks:
    """Installs the two observation hooks for the life of a ``with`` block."""

    def __init__(
        self,
        recorder: _Recorder,
        collect: Optional[Callable] = None,
        gauge: Optional[Gauge] = None,
    ):
        self.recorder = recorder
        #: Called with each executor after its run (to read its answer).
        self.collect = collect
        #: Its spins are left out of the schedules' times.
        self.gauge = gauge

    def __enter__(self) -> "Hooks":
        import repro.chaos as chaos
        from repro.resilience.executor import IterativeExecutor

        rec = self.recorder
        collect = self.collect
        gauge = self.gauge
        run = self._run = IterativeExecutor.run
        schedule = self._schedule = chaos.run_schedule

        def recorded_run(executor, boundary_hook=None):
            try:
                return run(executor, boundary_hook=boundary_hook)
            finally:
                # Prefix images are captured by runs with a boundary hook;
                # only complete runs are operations' runs.
                state = executor._loop
                if boundary_hook is None and state is not None:
                    rec.reports.append(state.report)
                    rec.runtime_stats(executor.runtime)
                    if collect is not None:
                        collect(executor)

        def timed_schedule(config, index, kills, *args, **kwargs):
            if rec.stop_at_first_schedule:
                raise FirstOperation()
            t0 = time.perf_counter()
            spun = gauge.spin_s if gauge is not None else 0.0
            try:
                outcome = schedule(config, index, kills, *args, **kwargs)
            except Exception as exc:  # counted as a failed operation
                outcome = chaos.ScheduleOutcome(
                    index=index,
                    kills=[repr(k) for k in kills],
                    status="error",
                    violations=[f"{type(exc).__name__}: {exc}"],
                )
            if gauge is not None:
                spun = gauge.spin_s - spun
            rec.schedule_seconds.append(time.perf_counter() - t0 - spun)
            return outcome

        IterativeExecutor.run = recorded_run
        chaos.run_schedule = timed_schedule
        return self

    def __exit__(self, *exc) -> None:
        import repro.chaos as chaos
        from repro.resilience.executor import IterativeExecutor

        IterativeExecutor.run = self._run
        chaos.run_schedule = self._schedule


def _fold_report(h, rec: _Recorder, report) -> int:
    """Hash a report's virtual times into *h*, count its checkpoints and
    restores, and return its simulated iterations."""
    h.update(
        repr(
            [getattr(report, name).hex() for name in REPORT_TIMES]
            + [report.iterations_executed]
        ).encode()
    )
    rec.add("resilience.checkpoints", report.checkpoints)
    rec.add("resilience.restores", report.restores)
    return report.iterations_executed


# ---------------------------------------------------------------------------
# chaos workloads
# ---------------------------------------------------------------------------


def seeded_app(registry: Dict[str, tuple], app: str, seed: int, nonres=None) -> str:
    """Register a copy of *app* whose workload has data seed *seed*.

    Both app tables of the program (``repro.chaos.CHAOS_APPS`` and
    ``repro.bench.harness.APP_REGISTRY``) hold ``(non-resilient class,
    resilient class, workload factory, ...)``; the program builds its
    workload from the factory, so a seeded factory is how the benchmark's
    seed reaches it.  *nonres* optionally replaces the non-resilient class.
    Returns the registered name.
    """
    name = f"perfbench:{app}:seed{seed}"
    entry = list(registry[app])
    factory = entry[2]
    entry[2] = lambda iterations: replace(factory(iterations), seed=seed)
    if nonres is not None:
        entry[0] = nonres
    registry[name] = tuple(entry)
    return name


@dataclass(frozen=True)
class Campaign:
    """One chaos campaign of a workload, with a stable label."""

    label: str
    app: str
    config: object  # repro.chaos.CampaignConfig


def crash_campaigns(seed: int) -> List[Campaign]:
    """``chaos_crash``: crash-only campaigns over three store configurations.

    linreg and pagerank take their data seed from *seed*; cg keeps its
    default data, so its known failure stays one fixed operation.
    """
    from repro.chaos import CHAOS_APPS, CampaignConfig

    return [
        Campaign(
            "linreg/spread-k2",
            "linreg",
            CampaignConfig(
                app=seeded_app(CHAOS_APPS, "linreg", seed), seed=CAMPAIGN_SEED
            ),
        ),
        Campaign(
            "pagerank/parity4",
            "pagerank",
            CampaignConfig(
                app=seeded_app(CHAOS_APPS, "pagerank", seed), seed=CAMPAIGN_SEED,
                replicas=1, placement="parity:4", spares=3,
            ),
        ),
        Campaign(
            "cg/reconstruct",
            "cg",
            CampaignConfig(
                app="cg", seed=CAMPAIGN_SEED, recovery="reconstruct", spares=6
            ),
        ),
    ]


def transient_campaigns(seed: int) -> List[Campaign]:
    """``chaos_transient``: the CI full-matrix fault mix on linreg and
    pagerank, data seed from *seed*."""
    from repro.chaos import CHAOS_APPS, CampaignConfig

    return [
        Campaign(
            f"{app}/full-matrix",
            app,
            CampaignConfig(
                app=seeded_app(CHAOS_APPS, app, seed), seed=CAMPAIGN_SEED, **FULL_MATRIX
            ),
        )
        for app in ("linreg", "pagerank")
    ]


class ChaosWorkload:
    """Rounds of whole chaos campaigns."""

    def __init__(self, campaigns: List[Campaign]):
        self.campaigns = campaigns
        #: Host seconds the set-up spent building failure-free baselines.
        self.baseline_s = 0.0

    def _baselines(self) -> None:
        from repro.baseline import failure_free_result
        from repro.chaos import CHAOS_APPS

        for campaign in self.campaigns:
            cfg = campaign.config
            failure_free_result(CHAOS_APPS, cfg.app, cfg.places, cfg.iterations)

    def probe(self) -> None:
        """Set-up only: imports, failure-free baselines, and the first
        campaign up to its first schedule (which builds its prefix images)."""
        from repro.chaos import run_campaign

        self._baselines()
        rec = _Recorder()
        rec.stop_at_first_schedule = True
        with Hooks(rec):
            try:
                run_campaign(self.campaigns[0].config)
            except FirstOperation:
                return
        raise RuntimeError("the first campaign ran no schedule")

    def setup(self) -> List[str]:
        """Build the failure-free baselines and check each against the
        NumPy reference; returns the failed checks."""
        from repro.baseline import failure_free_result
        from repro.chaos import CHAOS_APPS
        from repro.runtime.cost import CostModel
        from repro.runtime.factory import make_runtime

        t0 = time.perf_counter()
        self._baselines()
        self.baseline_s = time.perf_counter() - t0
        errors = []
        for campaign in self.campaigns:
            cfg = campaign.config
            nonres, _, wl_factory, _ = CHAOS_APPS[cfg.app]
            rt = make_runtime(cfg.places, cost=CostModel.zero())
            ref = reference.gather_reference(
                campaign.app, nonres(rt, wl_factory(cfg.iterations))
            )
            baseline = failure_free_result(
                CHAOS_APPS, cfg.app, cfg.places, cfg.iterations
            )
            problem = reference.check_answer(ref, baseline)
            if problem:
                errors.append(f"{campaign.label} failure-free baseline: {problem}")
        return errors

    def run_round(self) -> Round:
        from repro.chaos import run_campaign

        rec = _Recorder()
        gauge = Gauge()
        h = hashlib.sha256()
        ops: List[Tuple[str, float]] = []
        failures: List[str] = []
        with Hooks(rec, gauge=gauge):
            for campaign in self.campaigns:
                done = len(rec.schedule_seconds)
                gauge.start()
                try:
                    result = run_campaign(campaign.config)
                except Exception as exc:
                    gauge.stop()
                    failures.extend(
                        f"{campaign.label}#{index}: campaign raised "
                        f"{type(exc).__name__}: {exc}"
                        for index in range(campaign.config.schedules)
                    )
                    continue
                gauge.stop()
                times = rec.schedule_seconds[done:]
                h.update(campaign.label.encode())
                for outcome, dt in zip(result.outcomes, times):
                    label = f"{campaign.label}#{outcome.index}"
                    ops.append((label, dt))
                    seen = (outcome.index, outcome.status, outcome.kills)
                    h.update(repr(seen).encode())
                    rec.add(f"chaos.{outcome.status}", 1)
                    if outcome.violations or outcome.status not in _PASSING:
                        failures.append(
                            f"{label} (kills {'; '.join(outcome.kills)}): "
                            + "; ".join(outcome.violations or [outcome.status])
                        )
        iterations = 0
        for report in rec.reports:
            iterations += _fold_report(h, rec, report)
        h.update(f"iterations={iterations}".encode())
        attempted = sum(c.config.schedules for c in self.campaigns)
        return Round(
            gauge.scaled_s, attempted, ops, failures, h.hexdigest(), iterations,
            rec.counts, gauge.host_s,
        )


# ---------------------------------------------------------------------------
# the paper sweep
# ---------------------------------------------------------------------------

#: (protocol, app, places) of each cell of a ``paper_sweep`` round.
PAPER_CELLS: Tuple[Tuple[str, str, int], ...] = (
    ("restore", "pagerank", 16),
    ("restore", "linreg", 32),
    ("restore", "logreg", 8),
    ("overhead", "logreg", 32),
    ("overhead", "pagerank", 8),
)


class SweepWorkload:
    """Rounds of single-place-count cells of the Fig. 2-4 overhead and
    Fig. 5-7 restore protocols, at the calibrated cost model and the
    benchmarks' real data sizes; the data seed comes from ``--seed``."""

    ITERATIONS = 30

    def __init__(self, seed: int, cells=PAPER_CELLS):
        from repro.bench.harness import APP_REGISTRY

        self.cells = cells
        self.baseline_s = 0.0  # the cells run their own baselines
        self.refs: Dict[Tuple[str, int], reference.Reference] = {}
        self._rec = _Recorder()
        #: The app of the cell being run (whose answers are being read).
        self._app = ""
        #: app -> registered name of its seeded, answer-recording copy.
        self.names: Dict[str, str] = {}
        for app in sorted({cell[1] for cell in cells}):
            nonres = APP_REGISTRY[app][0]

            def run(instance, _cls=nonres, _app=app):
                _cls.run(instance)
                rec = self._rec
                rec.results.append((_app, RESULT_OF[_app](instance)))
                rec.runtime_stats(instance.runtime)
                rec.add("nonresilient.iterations", instance.iteration)

            recorded = type(nonres.__name__, (nonres,), {"run": run})
            self.names[app] = seeded_app(APP_REGISTRY, app, seed, nonres=recorded)

    def probe(self) -> None:
        """Set-up only: imports; a cell's first step is already an operation."""

    def setup(self) -> List[str]:
        """Compute each cell's reference answer."""
        from repro.bench.harness import APP_REGISTRY
        from repro.runtime.cost import CostModel
        from repro.runtime.factory import make_runtime

        for _, app, places in self.cells:
            if (app, places) in self.refs:
                continue
            nonres, _, wl_factory, _ = APP_REGISTRY[self.names[app]]
            instance = nonres(
                make_runtime(places, cost=CostModel.zero()), wl_factory(self.ITERATIONS)
            )
            self.refs[(app, places)] = reference.gather_reference(app, instance)
            del instance
        return []

    def _collect(self, executor) -> None:
        self._rec.results.append((self._app, RESULT_OF[self._app](executor.app)))

    def run_round(self) -> Round:
        from repro.bench.harness import run_overhead_sweep, run_restore_sweep

        rec = self._rec = _Recorder()
        gauge = Gauge()
        h = hashlib.sha256()
        ops: List[Tuple[str, float]] = []
        failures: List[str] = []
        iterations = 0
        with Hooks(rec, collect=self._collect):
            for protocol, app, places in self.cells:
                label = f"{protocol}:{app}@{places}"
                name = self.names[app]
                self._app = app
                rec.results.clear()
                reports_before = len(rec.reports)
                t0 = time.perf_counter()
                sweep = run_overhead_sweep
                if protocol == "restore":
                    sweep = run_restore_sweep
                # The previous cell's garbage goes before this cell starts,
                # so peak memory is one cell's, whenever collections ran.
                gc.collect()
                gauge.start()
                try:
                    out = sweep(name, places_list=[places], iterations=self.ITERATIONS)
                except Exception as exc:
                    gauge.stop()
                    failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
                    continue
                gauge.stop()
                ops.append((label, time.perf_counter() - t0))
                problems = self._check_cell(protocol, app, places, out, rec)
                if problems:
                    failures.append(f"{label}: " + "; ".join(problems))
                h.update(label.encode())
                if protocol == "restore":
                    values = out["series"].values
                else:
                    values = out.values
                hexed = {k: [v.hex() for v in vs] for k, vs in sorted(values.items())}
                h.update(repr(hexed).encode())
                for report in rec.reports[reports_before:]:
                    iterations += _fold_report(h, rec, report)
        iterations += int(rec.counts.get("nonresilient.iterations", 0))
        h.update(f"iterations={iterations}".encode())
        return Round(
            gauge.scaled_s, len(self.cells), ops, failures, h.hexdigest(),
            iterations, rec.counts, gauge.host_s,
        )

    def _check_cell(self, protocol, app, places, out, rec) -> List[str]:
        """Answers against the reference, and resilient never faster than
        its non-resilient twin in virtual time."""
        problems = []
        ref = self.refs[(app, places)]
        expected = 4 if protocol == "restore" else 2
        if len(rec.results) != expected:
            problems.append(f"{len(rec.results)} answers read, expected {expected}")
        for _, answer in rec.results:
            problem = reference.check_answer(ref, answer)
            if problem:
                problems.append(problem)
        if protocol == "restore":
            series = out["series"].values
            twin = series["non-resilient (no failure)"][0]
            for mode, by_places in out["reports"].items():
                total = by_places[places].total_time
                if not total >= twin:
                    problems.append(
                        f"{mode} total {total!r} s is faster than the "
                        f"non-resilient {twin!r} s"
                    )
        else:
            res = out.values["resilient finish"][0]
            nonres = out.values["non-resilient finish"][0]
            if not res >= nonres:
                problems.append(
                    f"resilient finish {res!r} ms/iter is faster than "
                    f"non-resilient {nonres!r}"
                )
        return problems


WORKLOADS: Dict[str, Callable[[int], object]] = {
    "chaos_crash": lambda seed: ChaosWorkload(crash_campaigns(seed)),
    "chaos_transient": lambda seed: ChaosWorkload(transient_campaigns(seed)),
    "paper_sweep": lambda seed: SweepWorkload(seed),
}
