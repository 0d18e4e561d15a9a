"""Tiered recovery: k-replica survival of correlated kills + disk fallback.

The PR's acceptance scenario: a scripted *simultaneous* kill of two
adjacent places.  The seed's double store (k=1, ring) loses both copies of
one partition and must raise ``DataLossError``; the same schedule recovers
and converges either with k=2 + spread placement (in memory) or with the
stable-storage fallback tier (from disk).
"""

import numpy as np
import pytest

from repro.apps.data import RegressionWorkload
from repro.apps.nonresilient import LinRegNonResilient
from repro.apps.resilient import LinRegResilient
from repro.matrix.dupvector import DupVector
from repro.resilience.executor import IterativeExecutor
from repro.resilience.placement import RingPlacement, SpreadPlacement, make_placement
from repro.resilience.snapshot import DistObjectSnapshot, make_redundancy
from repro.resilience.store import AppResilientStore
from repro.runtime import CostModel, DataLossError, Runtime

PLACES = 6
WL = RegressionWorkload(
    features=8, examples_per_place=32, iterations=10, blocks_per_place=2
)


def failure_free_model():
    rt = Runtime(PLACES, cost=CostModel.zero())
    app = LinRegNonResilient(rt, WL)
    app.run()
    return app.model()


def run_with_adjacent_double_kill(**executor_kwargs):
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True)
    app = LinRegResilient(rt, WL)
    # Both members of an adjacent pair die before the same iteration: under
    # the ring scheme partition 2's primary (place 2) and its only backup
    # (place 3) vanish together.
    rt.injector.kill_at_iteration(2, iteration=5)
    rt.injector.kill_at_iteration(3, iteration=5)
    executor = IterativeExecutor(rt, app, checkpoint_interval=3, **executor_kwargs)
    report = executor.run()
    return app, report


class TestAdjacentDoubleKill:
    def test_seed_double_store_loses_data(self):
        # The paper's k=1 ring store cannot survive the adjacent pair.
        with pytest.raises(DataLossError, match="in-memory copies"):
            run_with_adjacent_double_kill()

    def test_k2_spread_recovers_in_memory(self):
        ref = failure_free_model()
        app, report = run_with_adjacent_double_kill(
            replicas=2, placement=SpreadPlacement()
        )
        assert report.restores == 1
        assert report.stable_fallback_reads == 0
        assert np.allclose(app.model(), ref, atol=1e-8)

    def test_stable_fallback_recovers_from_disk(self):
        ref = failure_free_model()
        app, report = run_with_adjacent_double_kill(stable_fallback=True)
        assert report.restores == 1
        assert report.stable_fallback_reads > 0
        assert np.allclose(app.model(), ref, atol=1e-8)

    def test_k2_ring_still_insufficient_for_triple_burst(self):
        # k replicas tolerate k consecutive failures, not k+1: a burst of
        # three adjacent places still defeats k=2 ring.
        rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True)
        app = LinRegResilient(rt, WL)
        for victim in (2, 3, 4):
            rt.injector.kill_at_iteration(victim, iteration=5)
        executor = IterativeExecutor(
            rt, app, checkpoint_interval=3, replicas=2, placement=RingPlacement()
        )
        with pytest.raises(DataLossError):
            executor.run()


class TestStoreKnobs:
    def test_store_overrides_object_configuration(self):
        rt = Runtime(4, cost=CostModel.zero())
        store = AppResilientStore(
            rt, replicas=2, placement=SpreadPlacement(), stable_fallback=True
        )
        v = DupVector.make(rt, 4).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        assert v.snapshot_redundancy.backups == 2
        assert v.snapshot_redundancy.placement.name == "spread"
        assert v.snapshot_redundancy.stable_fallback is True
        snap = store.latest().snapshots[v]
        assert snap.placement_ok()

    def test_none_knobs_leave_objects_untouched(self):
        rt = Runtime(4, cost=CostModel.zero())
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        assert v.snapshot_redundancy.backups == 1  # the class default, the paper's k

    def test_executor_builds_configured_store(self):
        rt = Runtime(4, cost=CostModel.zero(), resilient=True)
        app = LinRegResilient(rt, WL)
        executor = IterativeExecutor(
            rt, app, replicas=3, placement=make_placement("stride:2"),
            stable_fallback=True,
        )
        assert executor.store.replicas == 3
        assert executor.store.placement.name == "stride"
        assert executor.store.stable_fallback is True


class TestSnapshotTiers:
    def test_reads_fall_through_replicas_in_order(self):
        rt = Runtime(6, cost=CostModel.zero())
        v = DupVector.make(rt, 5).init(7.0)
        v.snapshot_redundancy = make_redundancy(2, SpreadPlacement())
        snap = v.make_snapshot()
        # Key 1: primary place 1, replicas at 1+2=3 and 1+4=5.
        assert snap.locate(1)[0] == 1
        rt.kill(1)
        assert snap.locate(1)[0] == 3
        rt.kill(3)
        assert snap.locate(1)[0] == 5
        rt.kill(5)
        with pytest.raises(DataLossError):
            snap.locate(1)

    def test_stable_tier_serves_when_memory_gone(self):
        rt = Runtime(4, cost=CostModel.zero())
        v = DupVector.make(rt, 5).init(3.5)
        v.snapshot_redundancy = make_redundancy(stable_fallback=True)
        snap = v.make_snapshot()
        rt.kill(1)
        rt.kill(2)  # key 1's primary and ring backup both gone
        place, _ = snap.locate(1)
        assert place is DistObjectSnapshot.STABLE_TIER
        v.remake(rt.live_world())
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), 3.5)
        assert snap.fallback_reads > 0
        assert rt.stats.stable_fallback_reads == snap.fallback_reads

    def test_degraded_stable_snapshot_stays_reusable(self):
        # Read-only reuse: losing in-memory copies does not force a re-save
        # when the stable tier still holds every key.
        rt = Runtime(4, cost=CostModel.zero())
        store = AppResilientStore(rt, stable_fallback=True)
        v = DupVector.make(rt, 4).init(2.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(0)
        first = store.latest().read_only[v]
        rt.kill(1)
        rt.kill(2)
        v.remake(rt.live_world())
        v.init(2.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(1)
        assert store.latest().read_only[v] is first  # reused via disk tier
