"""Tests of the benchmark's own checkers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
for _path in (SRC, BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from repro.chaos import CHAOS_APPS, CampaignConfig  # noqa: E402
from repro.runtime.cost import CostModel  # noqa: E402
from repro.runtime.factory import make_runtime  # noqa: E402

PLACES = 3
ITERATIONS = 6


def _fresh(app):
    nonres, _, wl_factory, _ = CHAOS_APPS[app]
    return nonres(make_runtime(PLACES, cost=CostModel.zero()), wl_factory(ITERATIONS))


def _program_answer(app):
    instance = _fresh(app)
    instance.run()
    return np.asarray(workloads.RESULT_OF[app](instance))


@pytest.mark.parametrize("app", ["linreg", "logreg", "pagerank", "cg"])
def test_reference_accepts_the_programs_answer(app):
    ref = reference.gather_reference(app, _fresh(app))
    assert reference.check_answer(ref, _program_answer(app)) is None


@pytest.mark.parametrize("app", ["linreg", "logreg", "pagerank", "cg"])
def test_reference_rejects_a_perturbed_vector(app):
    ref = reference.gather_reference(app, _fresh(app))
    answer = _program_answer(app)
    answer[len(answer) // 2] += 1e-6 * np.max(np.abs(answer))
    problem = reference.check_answer(ref, answer)
    assert problem is not None and "relative deviation" in problem


def test_pagerank_mass_must_be_one():
    ranks = np.full(4, 0.3)
    problem = reference.check_answer(reference.Reference("pagerank", ranks), ranks)
    assert problem is not None and "mass" in problem


def test_cg_residual_must_fall():
    A = reference.sp.csr_matrix(np.diag([4.0, 5.0]))
    b = np.array([1.0, 1.0])
    worse = np.array([1.0, 1.0])  # ||b - A x|| > ||b||
    ref = reference.Reference("cg", worse, A=A, b=b)
    problem = reference.check_answer(ref, worse)
    assert problem is not None and "residual" in problem


def _small_chaos(seed):
    return workloads.ChaosWorkload(
        [
            workloads.Campaign(
                "linreg/spread-k2",
                "linreg",
                CampaignConfig(
                    app=workloads.seeded_app(CHAOS_APPS, "linreg", seed),
                    schedules=6,
                    seed=workloads.CAMPAIGN_SEED,
                ),
            ),
            workloads.Campaign(
                "cg/reconstruct",
                "cg",
                CampaignConfig(
                    app="cg", schedules=6, seed=workloads.CAMPAIGN_SEED,
                    recovery="reconstruct", spares=6,
                ),
            ),
        ]
    )


def test_chaos_fingerprint_identical_across_two_in_process_runs():
    first = _small_chaos(7)
    assert first.setup() == []
    a = first.run_round()
    b = first.run_round()
    second = _small_chaos(7)
    assert second.setup() == []
    c = second.run_round()
    assert a.fingerprint == b.fingerprint == c.fingerprint
    assert a.attempted == 12 and not a.failures
    assert a.iterations > 0


def test_the_data_seed_leaves_the_simulated_work_alone():
    a = _small_chaos(7)
    assert a.setup() == []
    b = _small_chaos(8)
    assert b.setup() == []
    ra, rb = a.run_round(), b.run_round()
    assert ra.iterations == rb.iterations
    assert [label for label, _ in ra.ops] == [label for label, _ in rb.ops]


def test_sweep_fingerprint_identical_across_two_in_process_runs():
    cells = (("overhead", "linreg", 2), ("restore", "pagerank", 2))
    wl = workloads.SweepWorkload(3, cells=cells)
    assert wl.setup() == []
    a = wl.run_round()
    b = wl.run_round()
    assert a.fingerprint == b.fingerprint
    assert a.attempted == 2 and not a.failures


def test_an_escaping_exception_is_one_failed_operation(monkeypatch):
    import repro.chaos as chaos

    real = chaos.run_schedule

    def flaky(config, index, kills, *args, **kwargs):
        if index == 2:
            raise ZeroDivisionError("injected")
        return real(config, index, kills, *args, **kwargs)

    monkeypatch.setattr(chaos, "run_schedule", flaky)
    wl = _small_chaos(7)
    wl.setup()
    rnd = wl.run_round()
    assert rnd.attempted == 12
    assert len(rnd.failures) == 2  # schedule 2 of each campaign
    assert all("ZeroDivisionError: injected" in f for f in rnd.failures)
    assert chaos.run_schedule is flaky  # the hook was removed again


def test_the_gauge_scales_a_span_and_disarms_its_timer():
    import signal
    import time

    import gauge

    handler = signal.getsignal(signal.SIGALRM)
    g = gauge.Gauge()
    t0 = time.perf_counter()
    g.start()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    g.stop()
    elapsed = time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert g.spin_s > 0  # the timer cut the span at least once
    assert abs(g.host_s + g.spin_s - elapsed) < 0.01  # spins left out
    assert g.scaled_s > 0
