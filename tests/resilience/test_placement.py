"""Tests for replica placement policies (ring / stride / spread / parity)."""

import pytest

from repro.resilience.placement import (
    PLACEMENTS,
    ParityPlacement,
    RingPlacement,
    SpreadPlacement,
    StridePlacement,
    make_placement,
    resolve_offsets,
)

#: Policies that place per-key replicas (parity places group blocks instead,
#: so its ``offsets`` contract only accepts ``backups == 0``).
REPLICA_PLACEMENTS = {
    name: policy for name, policy in PLACEMENTS.items() if name != "parity"
}


class TestRing:
    def test_matches_the_papers_double_store(self):
        # k=1 ring is the seed scheme: the single backup on the next place.
        assert RingPlacement().offsets(1, 8) == [1]

    def test_consecutive_offsets(self):
        assert RingPlacement().offsets(3, 8) == [1, 2, 3]


class TestStride:
    def test_default_stride_two(self):
        assert StridePlacement().offsets(3, 12) == [2, 4, 6]

    def test_custom_stride(self):
        assert StridePlacement(stride=3).offsets(2, 12) == [3, 6]

    def test_colliding_stride_normalized_off_primary(self):
        # stride*k wrapping onto offset 0 would co-locate a replica with
        # its primary; normalization must move it elsewhere.
        offsets = StridePlacement(stride=4).offsets(2, 8)
        assert 0 not in offsets
        assert len(set(offsets)) == 2


class TestSpread:
    def test_evenly_spaced(self):
        assert SpreadPlacement().offsets(2, 6) == [2, 4]
        assert SpreadPlacement().offsets(3, 8) == [2, 4, 6]

    def test_survives_adjacent_pair(self):
        # For any key, primary k and replicas k+2, k+4 (mod 6): an adjacent
        # pair {j, j+1} can cover at most one of the three.
        offsets = SpreadPlacement().offsets(2, 6)
        for key in range(6):
            homes = {key} | {(key + o) % 6 for o in offsets}
            for j in range(6):
                assert not homes <= {j, (j + 1) % 6}


class TestNormalization:
    def test_no_replica_on_primary(self):
        for name, policy in REPLICA_PLACEMENTS.items():
            for size in range(2, 10):
                for k in range(1, size):
                    offsets = policy().offsets(k, size)
                    assert 0 not in offsets, (name, size, k)

    def test_distinct_offsets_up_to_group_capacity(self):
        for name, policy in REPLICA_PLACEMENTS.items():
            for size in range(2, 10):
                for k in range(1, size):
                    offsets = policy().offsets(k, size)
                    assert len(set(offsets)) == len(offsets), (name, size, k)

    def test_degenerate_single_place_group(self):
        # A 1-place group has nowhere else to put replicas: local copies.
        assert RingPlacement().offsets(2, 1) == [0, 0]

    def test_more_replicas_than_places_doubles_up_off_primary(self):
        offsets = RingPlacement().offsets(5, 3)
        assert 0 not in offsets
        assert set(offsets) == {1, 2}

    def test_resolve_shifts_collisions(self):
        assert resolve_offsets([1, 1], 6) == [1, 2]
        assert resolve_offsets([0, 3], 6) == [1, 3]


class TestParity:
    def test_no_offsets_for_zero_backups(self):
        assert ParityPlacement().offsets(0, 8) == []

    def test_group_span_capped_below_group_size(self):
        # The parity block must live group-external, so a span can never
        # swallow the whole place group.
        assert ParityPlacement(group=4).group_span(12) == 4
        assert ParityPlacement(group=4).group_span(4) == 3
        assert ParityPlacement(group=8).group_span(2) == 1
        assert ParityPlacement(group=2).group_span(1) == 1

    def test_parity_index_is_group_external(self):
        for g in (2, 3, 4, 8):
            policy = ParityPlacement(group=g)
            for size in range(2, 12):
                span = policy.group_span(size)
                for start in range(0, size, span):
                    members = list(range(start, min(start + span, size)))
                    pidx = policy.parity_index(start, len(members), size)
                    assert 0 <= pidx < size
                    assert pidx not in members, (g, size, start)

    def test_group_of_at_least_two(self):
        with pytest.raises(ValueError):
            ParityPlacement(group=1)


class TestFactory:
    def test_named_policies(self):
        assert make_placement("ring").name == "ring"
        assert make_placement("spread").name == "spread"
        assert make_placement("stride").name == "stride"
        assert make_placement("parity").name == "parity"

    def test_stride_with_parameter(self):
        policy = make_placement("stride:3")
        assert policy.offsets(2, 12) == [3, 6]

    def test_parity_with_group_parameter(self):
        policy = make_placement("parity:8")
        assert isinstance(policy, ParityPlacement)
        assert policy.group == 8

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_placement("mirror")
        with pytest.raises(ValueError):
            make_placement("stride:zero")
        with pytest.raises(ValueError):
            make_placement("parity:1")
