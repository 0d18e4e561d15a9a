"""Conformance of every tier ladder the redundancy factory builds.

One snapshot class serves every redundancy scheme by walking an ordered
ladder of tiers (primary, replicas, parity, disk).  Each case here runs
unchanged over every ladder: ring k=1, spread k=2, stride:3 k=2, parity:2
and parity:4, each with and without the disk tier, plus the disk-only
store.  The expectations are read off the ladder itself, so a tier that
breaks the shared contract fails here whichever scheme it serves.
"""

import pytest

from repro.matrix.vector import Vector
from repro.resilience.parity import PARITY_TIER, Parity
from repro.resilience.snapshot import (
    DISK,
    STABLE_TIER,
    DistObjectSnapshot,
    Replicas,
    make_redundancy,
)
from repro.runtime import CostModel, DataLossError, Runtime
from repro.runtime.exceptions import SnapshotCorruptionError

PLACES = 8
#: The key every case strikes.  Its primary and every home of its
#: redundancy avoid place 0 (the driver, which never dies) in every ladder.
KEY = 1

LADDERS = {
    "ring-k1": dict(replicas=1, placement="ring"),
    "spread-k2": dict(replicas=2, placement="spread"),
    "stride3-k2": dict(replicas=2, placement="stride:3"),
    "parity2": dict(replicas=1, placement="parity:2"),
    "parity4": dict(replicas=1, placement="parity:4"),
}
CASES = [
    pytest.param(dict(kw, stable_fallback=disk), id=f"{name}{'+disk' if disk else ''}")
    for name, kw in LADDERS.items()
    for disk in (False, True)
] + [pytest.param(dict(disk_only=True), id="disk-only")]


def build(kw, cost=None):
    rt = Runtime(PLACES, cost=cost or CostModel.zero())
    snap = DistObjectSnapshot(rt, rt.world, redundancy=make_redundancy(**kw))
    group = snap.group

    def task(ctx):
        index = group.index_of(ctx.place)
        payload = Vector.of([float(index)] * 8)
        snap.save_from(ctx, index, payload, token=payload.version)

    rt.finish_all(group, task)
    return rt, snap


def tier_of(snap, cls):
    return next((t for t in snap.ladder if isinstance(t, cls)), None)


def replicas(snap):
    tier = tier_of(snap, Replicas)
    return len(tier.offsets) if tier else 0


def parity(snap):
    return tier_of(snap, Parity)


def has_disk(snap):
    return DISK in snap.ladder


def in_memory(snap):
    return snap.ladder != (DISK,)


def redundancy_homes(snap, key):
    """Places holding *key*'s in-memory redundancy, in ladder order."""
    return [pid for tier in snap.ladder for pid in tier.homes(snap, key)]


@pytest.mark.parametrize("kw", CASES)
class TestTierLadder:
    def test_locate_falls_through_in_ladder_order(self, kw):
        rt, snap = build(kw)
        expected = []
        if in_memory(snap):
            expected += ["snap"] + ["snapb"] * replicas(snap)
            expected += ["snapr"] if parity(snap) else []
        expected += ["stable"] if has_disk(snap) else []
        served = []
        while True:
            try:
                pid, heap_key = snap.locate(KEY)
            except DataLossError as err:
                assert not isinstance(err, SnapshotCorruptionError)
                break
            served.append(heap_key[0])
            if pid == STABLE_TIER:
                break
            rt.kill(pid)
        assert served == expected
        assert snap.recoverable() == has_disk(snap)

    def test_corruption_of_every_copy_is_loud(self, kw):
        rt, snap = build(kw)
        for tier in snap.tiers(KEY):
            assert snap.corrupt_copy(KEY, tier)
        if parity(snap):
            first = parity(snap).members(snap, parity(snap).group_of(KEY))[0]
            assert snap.corrupt_copy(first, PARITY_TIER)
        with pytest.raises(SnapshotCorruptionError):
            snap.locate(KEY)
        assert not snap.recoverable()
        assert snap.tiers(KEY) == []
        assert snap.quarantined

    def test_verify_all_counts_and_per_tier_corruption(self, kw):
        rt, snap = build(kw)
        per_key = 1 + replicas(snap) if in_memory(snap) else 0
        per_key += 1 if has_disk(snap) else 0
        blocks = len(parity(snap).groups(snap)) if parity(snap) else 0
        total = PLACES * per_key + blocks
        assert snap.verify_all() == (total, 0)
        assert len(snap.tiers(0)) == per_key + (1 if blocks else 0)
        struck = snap.tiers(0)
        for tier in struck:
            assert snap.corrupt_copy(0, tier)
        assert not snap.corrupt_copy(0, 99)
        assert snap.verify_all() == (total - len(struck), len(struck))
        assert snap.verify_all() == (total - len(struck), 0)
        for tier in struck:
            assert not snap.corrupt_copy(0, tier)  # quarantined: gone

    def test_health_after_kills(self, kw):
        rt, snap = build(kw)
        assert snap.fully_redundant() and snap.recoverable() and snap.placement_ok()
        assert all(snap.key_intact(key) for key in snap.saved_keys())
        homes = redundancy_homes(snap, KEY)
        if homes:
            rt.kill(homes[0])
            assert not snap.key_intact(KEY)
            assert not snap.fully_redundant()
            assert snap.recoverable()
        rt.kill(snap.group[KEY].id)
        assert not snap.key_intact(KEY) or not in_memory(snap)
        assert snap.fully_redundant() == (not in_memory(snap))
        assert snap.recoverable() == (has_disk(snap) or replicas(snap) >= 2)

    def test_stored_bytes(self, kw):
        rt, snap = build(kw)
        logical = snap.total_nbytes - snap.parity_nbytes
        copies = (1 + replicas(snap) if in_memory(snap) else 0) + has_disk(snap)
        assert snap.stored_nbytes() == logical * copies + snap.parity_nbytes
        if parity(snap):
            assert 0 < snap.parity_nbytes <= logical / parity(snap).span
        else:
            assert snap.parity_nbytes == 0

    def test_delta_adoption_is_free_and_complete(self, kw):
        cost = CostModel(
            byte_time=1e-9, memcpy_byte_time=1e-9, checksum_byte_time=1e-9, disk_byte_time=1e-9
        )
        rt, base = build(kw, cost=cost)
        assert rt.clock.now(KEY) > 0  # a full save is charged
        snap = DistObjectSnapshot(rt, rt.world, redundancy=make_redundancy(**kw))
        assert snap.delta_compatible(base)
        assert all(base.can_reuse(key, base._versions[key]) for key in base.saved_keys())
        tiers = [base.tiers(key) for key in range(PLACES)]
        for _ in range(2):  # let the save's fan-out arrivals settle
            rt.finish_all(snap.group, lambda ctx: None)
        t0 = [rt.clock.now(pid) for pid in range(PLACES)]

        def adopt(ctx):
            snap.save_clean_from(ctx, snap.group.index_of(ctx.place), base)

        rt.finish_all(snap.group, adopt)
        assert [rt.clock.now(pid) for pid in range(PLACES)] == t0
        assert snap.clean_keys == set(range(PLACES))
        assert snap.stored_nbytes() == base.stored_nbytes()
        base.delete()
        assert [snap.tiers(key) for key in range(PLACES)] == tiers
        assert snap.fully_redundant() and snap.verify_all()[1] == 0
        assert all(snap.key_intact(key) for key in snap.saved_keys())


def test_ladders_are_distinct_and_delta_incompatible():
    snaps = []
    for case in CASES:
        rt, snap = build(case.values[0])
        snaps.append(snap)
    ladders = [snap.ladder for snap in snaps]
    assert len(set(ladders)) == len(ladders)
    for a in snaps:
        for b in snaps:
            assert a.delta_compatible(b) == (a is b)
