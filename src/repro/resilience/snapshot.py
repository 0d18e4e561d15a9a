"""Snapshot/restore for GML objects (paper §IV-B) over a ladder of tiers.

``Snapshottable`` is the paper's Listing 3 interface.  A
:class:`DistObjectSnapshot` stores an object's state as key/value pairs —
key = the place's *index* in the object's place group, value = that place's
data partition — on an ordered **ladder of tiers**:

* :class:`Primary` (tier 0): the copy in the owning place's heap;
* :class:`Replicas` (tiers 1..k): in-memory backups at the ring offsets a
  :class:`~repro.resilience.placement.ReplicaPlacement` picks (the paper's
  double store is one backup on the *next* place);
* :class:`~repro.resilience.parity.Parity` (:data:`PARITY_TIER`): one XOR
  block per group of partitions, held outside the group;
* :class:`Disk` (:data:`STABLE_TIER`): a copy on the shared stable store,
  written through the engine's disk resource at checkpoint time.

One frozen :class:`Redundancy` value picks the ladder (the stable-storage
store the paper's introduction argues against is ``(Disk,)``).  Every GML
object holds one, and the CLI, the campaign and service configurations,
the stores and the executor all build it through :func:`make_redundancy`,
so every conflicting combination is rejected in one place with an error
that names the conflict.  Saving walks the ladder once per partition.  Loading walks
it in order and serves the first copy that verifies, so a read prefers the
primary, falls through the replicas or a parity reconstruction, and
reaches the disk last; only when a key survives in *no* tier does
:meth:`DistObjectSnapshot.fetch` raise :class:`DataLossError` — tested
behaviour, not a corner we paper over.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.resilience.placement import (
    ParityPlacement,
    ReplicaPlacement,
    RingPlacement,
    make_placement,
)
from repro.runtime.exceptions import (
    DataLossError,
    DeadPlaceException,
    SnapshotCorruptionError,
)
from repro.runtime.heap import PlaceHeap
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.bytesize import memoized_nbytes, payload_nbytes
from repro.util.checksum import corrupt_payload, memoized_checksum
from repro.util.validation import require
from repro.util.versioning import freeze_payload

_snap_counter = itertools.count()

#: Tier id of the disk copy, and the sentinel "place id" of its copies.
STABLE_TIER = -1
#: Tier id of a parity group's XOR block.
PARITY_TIER = -2


class Snapshottable(ABC):
    """The paper's Listing 3: objects that can save and restore themselves."""

    @abstractmethod
    def make_snapshot(self, base: Optional["DistObjectSnapshot"] = None) -> "DistObjectSnapshot":
        """Capture this object's distributed state into a resilient store.

        *base* (delta checkpointing) is the previous committed snapshot of
        the same object: partitions whose mutation version is unchanged
        since *base* are adopted from it by reference instead of being
        copied and re-hashed.  ``None`` forces a full save.
        """

    @abstractmethod
    def restore_snapshot(self, snapshot: "DistObjectSnapshot") -> None:
        """Reload this object's state (possibly onto a different group)."""


class Tier:
    """One rung of a snapshot's ladder.

    Tiers are stateless strategies shared by every snapshot with the same
    ladder: copies live in place heaps (or the snapshot's disk heap) and
    bookkeeping on the snapshot.  A copy tier lists its copies of a key as
    ``(tier id, place id, heap key)`` triples and inherits adoption,
    presence, verification, corruption, placement and deletion from them;
    the parity tier overrides what a group-level block needs.
    """

    #: Tier ids of the per-key copies every save writes.
    ids: Tuple[int, ...] = ()
    #: False for the disk tier (full redundancy counts memory copies only).
    in_memory = True

    def attach(self, snap) -> None:
        """Set up per-snapshot state."""

    def copies(self, snap, key: int) -> Tuple[Tuple[int, int, tuple], ...]:
        return ()

    def save(self, snap, ctx: PlaceContext, key: int, payload: Any, nbytes: int, zero) -> None:
        """Store this tier's copies of a freshly saved partition."""

    def seal(self, snap, key: int) -> None:
        """Finish a save once the partition's bookkeeping is recorded."""

    def adopt(self, snap, key: int, base: "DistObjectSnapshot") -> Any:
        """Re-reference *base*'s copies of *key*; returns the payload."""
        payload = None
        for (_, pid, heap_key), (_, _, base_key) in zip(
            self.copies(snap, key), self.copies(base, key)
        ):
            got = base._heap(pid).get(base_key)
            snap._heap(pid).put(heap_key, got)
            payload = got if payload is None else payload
        return payload

    def intact(self, snap, key: int) -> bool:
        """True while every copy this tier keeps of *key* survives."""
        return all(snap._holds(pid, hk) for _, pid, hk in self.copies(snap, key))

    def locate(self, snap, key: int) -> Optional[Tuple[int, tuple]]:
        """The first surviving copy of *key* that verifies, else None."""
        for tid, pid, heap_key in self.copies(snap, key):
            if snap._holds(pid, heap_key) and snap._verify_copy(key, tid, pid, heap_key):
                return pid, heap_key
        return None

    def verify(self, snap, key: int, copy: Tuple[int, int, tuple]) -> bool:
        """Checksum one surviving copy; quarantine it on a mismatch."""
        return snap._verify_copy(key, *copy)

    def homes(self, snap, key: int) -> Tuple[int, ...]:
        """Places holding *key*'s in-memory redundancy."""
        return tuple(pid for tid, pid, _ in self.copies(snap, key) if tid > 0)

    def delete(self, snap) -> None:
        """Free this tier's surviving copies of every saved key."""
        alive, heaps = snap.runtime._alive, snap.runtime._heaps
        for key in snap._saved_keys:
            for _, pid, heap_key in self.copies(snap, key):
                if alive.get(pid, False):
                    heaps[pid].remove_if_present(heap_key)

    def stored_nbytes(self, snap, logical: float) -> float:
        """Physical bytes this tier holds, given the logical bytes saved."""
        return logical * len(self.ids)

    def repair(self, snap, new_group: Optional[PlaceGroup]) -> int:
        """Re-materialize lost copies (the post-restore scrub)."""
        return 0

    def lost(self, snap, key: int) -> str:
        """Why *key* is gone when this is the deepest in-memory tier."""
        return (
            f"all {snap.backups + 1} in-memory copies of snapshot key {key} lost "
            f"(primary {snap.group[key]} and its replica set; no stable-storage tier)"
        )


@dataclass(frozen=True)
class Primary(Tier):
    """Tier 0: the partition's copy in its owning place's heap."""

    ids = (0,)

    def home(self, snap, key: int) -> Tuple[int, tuple]:
        return snap.group[key].id, ("snap", snap.snap_id, key)

    def copies(self, snap, key):
        return ((0, snap.group[key].id, ("snap", snap.snap_id, key)),)

    def save(self, snap, ctx, key, payload, nbytes, zero):
        ctx.heap.put(("snap", snap.snap_id, key), payload)
        if not zero:
            ctx.charge_memcpy(nbytes)


@dataclass(frozen=True)
class Replicas(Tier):
    """Tiers 1..k: in-memory backups at resolved ring *offsets*.

    Their homes are tabulated per group on the snapshot
    (``_backup_homes[replica - 1][key]``): the save/intact/delete loops hit
    the modular placement arithmetic tens of times per key.
    """

    offsets: Tuple[int, ...]

    @property
    def ids(self):
        return tuple(range(1, len(self.offsets) + 1))

    def copies(self, snap, key):
        sid, table = snap.snap_id, snap._backup_homes
        return [(r, homes[key].id, ("snapb", sid, key, r)) for r, homes in enumerate(table, 1)]

    def save(self, snap, ctx, key, payload, nbytes, zero):
        """Fan the backups out from a common issue time: the sends
        serialize on the owner's transmit side, the receivers absorb them
        concurrently."""
        rt = snap.runtime
        fanout = []
        for r, homes in enumerate(snap._backup_homes, 1):
            backup = homes[key]
            if backup != ctx.place:
                fanout.append((backup.id, ("snapb", snap.snap_id, key, r)))
            else:
                # Single-place group: degenerate "replica" on the same
                # place.  The primary copy is forwarded by reference — the
                # bytes were already paid for once, so no second memcpy.
                ctx.heap.put(("snapb", snap.snap_id, key, r), payload)
        if not fanout:
            return
        cost = rt.cost
        if zero:
            # All timing lands on 0.0; only liveness (checked in the same
            # order the per-destination transfers would) and the stats
            # trail remain, byte math expression-identical.
            alive = rt._alive
            for pid, _ in fanout:
                if not alive.get(pid, False):
                    raise DeadPlaceException(pid)
            for pid, heap_key in fanout:
                rt._heaps[pid].put(heap_key, payload)
        else:
            rt.engine.transfer_fanout(ctx.place.id, [pid for pid, _ in fanout], nbytes, ctx.now)
            for pid, heap_key in fanout:
                rt.heap_of(pid).put(heap_key, payload)
            rt.clock.set_at_least(ctx.place.id, ctx.now + len(fanout) * cost.message(0))
        rt.stats.messages += len(fanout)
        rt.stats.bytes_sent += len(fanout) * cost.scaled_bytes(nbytes)


@dataclass(frozen=True)
class Disk(Tier):
    """:data:`STABLE_TIER`: a copy on the shared stable store.

    Survives any set of place failures; saves and reads pay one network
    message plus bandwidth on the engine's shared disk resource, so
    concurrent places queue behind each other at the store.
    """

    ids = (STABLE_TIER,)
    in_memory = False

    def copies(self, snap, key):
        return ((STABLE_TIER, STABLE_TIER, ("stable", snap.snap_id, key)),)

    def save(self, snap, ctx, key, payload, nbytes, zero):
        snap.runtime.engine.stable_write(ctx.place.id, nbytes)
        snap._disk.put(("stable", snap.snap_id, key), payload)

    def delete(self, snap):
        snap._disk = PlaceHeap(STABLE_TIER)


PRIMARY = Primary()
DISK = Disk()


@dataclass(frozen=True)
class Redundancy:
    """How a snapshot protects each partition: ``backups`` per-key replicas
    at *placement* (the paper's double store is 1 ring replica; a parity
    placement keeps none and one XOR block per group instead), the disk
    tier behind memory (``stable_fallback``), or the disk alone
    (``disk_only``)."""

    backups: int = 1
    placement: ReplicaPlacement = field(default_factory=RingPlacement)
    stable_fallback: bool = False
    disk_only: bool = False

    @property
    def parity(self) -> bool:
        return isinstance(self.placement, ParityPlacement)

    @lru_cache(maxsize=256)
    def ladder(self, group_size: int) -> Tuple[Tier, ...]:
        """The tiers of a snapshot over a group of *group_size* places
        (memoized: every checkpoint builds one snapshot per object)."""
        if self.disk_only:
            return (DISK,)
        tiers: List[Tier] = [PRIMARY]
        if self.parity:
            from repro.resilience.parity import Parity

            tiers.append(Parity(self.placement.group_span(group_size)))
        else:
            offsets = tuple(self.placement.offsets(self.backups, group_size))
            if offsets:
                tiers.append(Replicas(offsets))
        if self.stable_fallback:
            tiers.append(DISK)
        return tuple(tiers)

    def recovery_sets(self, size: int) -> Optional[List[Set[int]]]:
        """Parity recovery sets over *size* places (members plus the block's
        holder; one loss per set is recoverable in memory), or None."""
        if not self.parity:
            return None
        span = self.placement.group_span(size)
        groups = [range(start, min(start + span, size)) for start in range(0, size, span)]
        return [set(g) | {ParityPlacement.parity_index(g.start, len(g), size)} for g in groups]


def make_redundancy(
    replicas: Optional[int] = None,
    placement: Union[None, str, ReplicaPlacement] = None,
    stable_fallback: Optional[bool] = None,
    recovery: str = "checkpoint",
    disk_only: Optional[bool] = None,
    base: Optional[Redundancy] = None,
) -> Redundancy:
    """Build and check one redundancy decision.

    *placement* is a policy or a CLI spec (``ring``, ``stride:3``,
    ``parity:4`` …); arguments left ``None`` inherit from *base* (the
    paper's double store by default) — how a store's knobs override an
    object's own.  Raises ``ValueError`` naming the conflict: a bad spec,
    negative replicas, parity with more than one replica (double-paying
    for protection), or *recovery* ``"reconstruct"`` over parity or
    without replicas.
    """
    base = base if base is not None else Redundancy()
    if isinstance(placement, str):
        placement = make_placement(placement)
    placement = placement if placement is not None else base.placement
    parity = isinstance(placement, ParityPlacement)
    require(replicas is None or replicas >= 0, f"replicas must be >= 0, got {replicas}")
    require(
        not (parity and replicas is not None and replicas > 1),
        "placement=parity replaces per-key replicas with one XOR parity block "
        f"per group; replicas must be <= 1, got {replicas} (shrink the parity "
        "group via parity:g to buy more protection instead of double-paying)",
    )
    if recovery == "reconstruct":
        require(
            not parity,
            "recovery='reconstruct' republishes per-key replicas every "
            "iteration, which parity blocks cannot refresh; use a replica "
            "placement (ring/stride/spread), or recovery='checkpoint' with "
            "placement=parity[:g]",
        )
        require(
            replicas is None or replicas >= 1,
            "recovery='reconstruct' needs at least one replica, got replicas=0",
        )
    return Redundancy(
        backups=0 if parity else (base.backups if replicas is None else replicas),
        placement=placement,
        stable_fallback=base.stable_fallback if stable_fallback is None else stable_fallback,
        disk_only=base.disk_only if disk_only is None else disk_only,
    )


def use_stable_storage(*objects) -> None:
    """Switch GML objects to the disk-only store: later checkpoints go to
    stable storage instead of the in-memory double store."""
    for obj in objects:
        obj.snapshot_redundancy = make_redundancy(disk_only=True, base=obj.snapshot_redundancy)


class DistObjectSnapshot:
    """Key/value store for one GML object's partitions over a tier ladder.

    Copies live in place heaps (so a place's death destroys exactly the
    copies it held) or in the ``_disk`` heap; ``meta`` carries the
    object's restore metadata (grid, block owners, vector partition).
    """

    STABLE_TIER = STABLE_TIER

    def __init__(
        self,
        runtime: Runtime,
        group: PlaceGroup,
        meta: Optional[Dict[str, Any]] = None,
        redundancy: Optional[Redundancy] = None,
    ):
        redundancy = redundancy if redundancy is not None else Redundancy()
        self.runtime = runtime
        self.group = group
        self.snap_id = next(_snap_counter)
        self.meta: Dict[str, Any] = dict(meta or {})
        #: The tiers, in read (fall-through) order.
        self.ladder: Tuple[Tier, ...] = redundancy.ladder(group.size)
        self._offsets = next((t.offsets for t in self.ladder if isinstance(t, Replicas)), ())
        self.backups = len(self._offsets)
        self._backup_homes = self._home_table()
        self._save_ids = tuple(tid for tier in self.ladder for tid in tier.ids)
        self._disk = PlaceHeap(STABLE_TIER)
        self._saved_keys: set = set()
        self.total_nbytes = 0.0
        #: Mutation-version token per key at save time (the delta dirty test).
        self._versions: Dict[int, Any] = {}
        #: Keys adopted clean from a delta base, and their full-save bytes.
        self.clean_keys: set = set()
        self.clean_nbytes = 0.0
        #: Restore reads that fell through every in-memory copy to disk.
        self.fallback_reads = 0
        #: Bytes held in parity blocks (part of ``total_nbytes``) and reads
        #: served by XOR reconstruction.
        self.parity_nbytes = 0.0
        self.parity_reads = 0
        #: CRC-32 per key at save time (ground truth for verify).
        self._checksums: Dict[int, int] = {}
        #: ``key -> (payload, token)`` not hashed yet: payloads are frozen
        #: and strikes replace *copies*, so the first verify's hash equals
        #: the save's (most checkpoints are deleted unverified).
        self._crc_pending: Dict[int, Any] = {}
        #: ``(key, tier)`` copies known clean: not re-hashed by health polls.
        self._verified: set = set()
        #: ``(key, tier)`` copies that failed verification and were dropped.
        self.quarantined: List[Tuple[int, int]] = []
        for tier in self.ladder:
            tier.attach(self)

    def _home_table(self) -> List[List[Any]]:
        group, size = self.group, self.group.size
        return [[group[(key + offset) % size] for key in range(size)] for offset in self._offsets]

    def copies(self, key: int) -> List[Tuple[int, int, tuple]]:
        """``(tier id, place id, heap key)`` of every copy the ladder keeps
        of *key* (live or not), in read order."""
        return [c for tier in self.ladder for c in tier.copies(self, key)]

    def _heap(self, place_id: int) -> PlaceHeap:
        """The heap at *place_id*; the disk heap for :data:`STABLE_TIER`."""
        return self._disk if place_id == STABLE_TIER else self.runtime.heap_of(place_id)

    def _holds(self, place_id: int, heap_key: tuple) -> bool:
        if place_id == STABLE_TIER:
            return self._disk.contains(heap_key)
        rt = self.runtime
        return rt._alive.get(place_id, False) and rt._heaps[place_id].contains(heap_key)

    def _check_owner(self, ctx: PlaceContext, key: int) -> None:
        if self.group.index_of(ctx.place) != key:
            # Message built lazily: this guard runs on every partition save.
            message = f"partition {key} must be saved from group index {key}, not from"
            require(False, f"{message} {ctx.place}")

    # -- saving ------------------------------------------------------------

    def save_from(
        self, ctx: PlaceContext, key: int, payload: Any, token: Optional[Any] = None
    ) -> None:
        """Save one partition from within a finish task at the owning place.

        *payload* must not alias live mutable data: a copy (full saves) or
        a copy-on-write ``freeze_view`` (delta saves); it is frozen here.
        Each tier stores its copies in ladder order (local copy, replica
        fan-out, disk write), one checksum pass is charged, and group tiers
        seal last.  *token*, the partition's mutation-version token, lets
        the next delta save prove it clean.
        """
        self._check_owner(ctx, key)
        rt = self.runtime
        zero = rt.engine.zero_fast()
        freeze_payload(payload)
        # Sized after the freeze so the token-keyed memo applies.
        nbytes = memoized_nbytes(payload, token)
        for tier in self.ladder:
            tier.save(self, ctx, key, payload, nbytes, zero)
        # Checksummed once per save in virtual time; the CRC pass itself is
        # deferred until a verify needs it (the payload is immutable).
        self._checksums.pop(key, None)
        self._crc_pending[key] = (payload, token)
        if not zero:
            ctx.charge_seconds(rt.cost.checksum(nbytes))
        verified = self._verified
        for tid in self._save_ids:
            verified.add((key, tid))
        self._saved_keys.add(key)
        if token is not None:
            self._versions[key] = token
        self.total_nbytes += nbytes
        for tier in self.ladder:
            tier.seal(self, key)

    # -- delta (incremental) saves -------------------------------------------

    def delta_compatible(self, base: "DistObjectSnapshot") -> bool:
        """True when *base* can donate clean partitions: its copies are
        adopted in place, so the group and the ladder must match."""
        return base.group.ids == self.group.ids and base.ladder == self.ladder

    def key_intact(self, key: int) -> bool:
        """True while every tier of *key* still holds its copy: a partition
        that lost any (dead replica, quarantined corruption, degraded parity
        group) must be re-saved in full even if unchanged, or the next
        failure could destroy its last copy."""
        return key in self._saved_keys and all(tier.intact(self, key) for tier in self.ladder)

    def can_reuse(self, key: int, token: Optional[Any]) -> bool:
        """True when *key* is provably clean: same mutation token as the
        one recorded at save time, and the full redundancy set survives."""
        return token is not None and self._versions.get(key) == token and self.key_intact(key)

    def save_clean_from(self, ctx: PlaceContext, key: int, base: "DistObjectSnapshot") -> None:
        """Adopt an unchanged partition from *base* by reference, every
        tier's copy (a silently corrupted one stays unverified, caught on
        first use as in *base*).  No bytes move and nothing is re-hashed:
        **zero** checkpoint virtual time, the paper's ``saveReadOnly``
        reuse as the all-clean case."""
        self._check_owner(ctx, key)
        payload = None
        for tier in self.ladder:
            got = tier.adopt(self, key, base)
            payload = got if payload is None else payload
        nbytes = payload_nbytes(payload)
        if key in base._crc_pending:
            self._crc_pending[key] = base._crc_pending[key]
        elif key in base._checksums:
            self._checksums[key] = base._checksums[key]
        self._verified.update(
            (key, tid) for tid in self._save_ids if (key, tid) in base._verified
        )
        if key in base._versions:
            self._versions[key] = base._versions[key]
        self._saved_keys.add(key)
        self.clean_keys.add(key)
        self.clean_nbytes += nbytes
        self.total_nbytes += nbytes
        for tier in self.ladder:
            tier.seal(self, key)

    def stored_nbytes(self) -> float:
        """Physical bytes across every tier: each copy tier stores the
        logical bytes again (the ``k x`` footprint), parity adds its
        blocks."""
        logical = self.total_nbytes - self.parity_nbytes
        return sum(tier.stored_nbytes(self, logical) for tier in self.ladder)

    @property
    def num_keys(self) -> int:
        """Number of partitions saved so far."""
        return len(self._saved_keys)

    def has_key(self, key: int) -> bool:
        return key in self._saved_keys

    def saved_keys(self) -> List[int]:
        """Keys saved into this snapshot, sorted."""
        return sorted(self._saved_keys)

    # -- locating / loading -------------------------------------------------

    def locate(self, key: int) -> Tuple[int, tuple]:
        """``(place_id, heap_key)`` of the first copy of *key* down the
        ladder that verifies; a failing copy is quarantined and the walk
        falls through.  Raises :class:`DataLossError` when every tier lost
        the key, :class:`SnapshotCorruptionError` when the last surviving
        copies were quarantined — corrupt data is never restored."""
        if key not in self._saved_keys:
            require(False, f"snapshot has no key {key}")
        quarantined_before = len(self.quarantined)
        for tier in self.ladder:
            hit = tier.locate(self, key)
            if hit is not None:
                return hit
        memory = [tier for tier in self.ladder if tier.in_memory]
        if not memory:
            raise SnapshotCorruptionError(
                f"the stable-storage copy of snapshot key {key} failed "
                f"checksum verification; there is no further tier"
            )
        count = len(self.quarantined) - quarantined_before
        if count:
            raise SnapshotCorruptionError(
                f"every surviving copy of snapshot key {key} failed checksum "
                f"verification and was quarantined ({count} this search)"
            )
        raise DataLossError(memory[-1].lost(self, key))

    def _expected_checksum(self, key: int) -> Optional[int]:
        """Ground-truth CRC of *key*, computing a deferred one on demand."""
        pending = self._crc_pending.pop(key, None)
        if pending is not None:
            self._checksums[key] = memoized_checksum(*pending)
        return self._checksums.get(key)

    def _verify_copy(self, key: int, tier: int, place_id: int, heap_key: tuple) -> bool:
        """Checksum one copy; quarantine (drop) it and return False on a
        mismatch.  Clean verdicts are memoized until a new strike; the hash
        pass is charged to the place holding the copy (a disk copy's rides
        the restore read)."""
        if (key, tier) in self._verified:
            return True
        rt = self.runtime
        heap = self._heap(place_id)
        payload = heap.get(heap_key)
        if place_id != STABLE_TIER:
            rt.clock.advance(place_id, rt.cost.checksum(payload_nbytes(payload)))
        expected = self._expected_checksum(key)
        if expected is None or memoized_checksum(payload, self._versions.get(key)) == expected:
            self._verified.add((key, tier))
            return True
        heap.remove_if_present(heap_key)
        self.quarantined.append((key, tier))
        return False

    def fetch(
        self,
        ctx: PlaceContext,
        key: int,
        extract: Optional[Callable[[Any], Any]] = None,
        extract_flops: float = 0.0,
        extract_bytes: float = 0.0,
    ) -> Any:
        """Load partition *key* (or an extracted part) to the calling place.

        ``extract`` runs at the *source* place — the paper's repartitioned
        restore, where the owner cuts out and ships only the overlap;
        ``extract_flops`` / ``extract_bytes`` charge its scan and copy.  A
        disk read pays the engine's disk read, and the restoring place cuts
        the sub-block itself.
        """
        src_id, heap_key = self.locate(key)
        rt = self.runtime
        if src_id == STABLE_TIER:
            payload = self._disk.get(heap_key)
            rt.engine.stable_read(ctx.place.id, payload_nbytes(payload))
            if self.ladder[0].in_memory:
                self.fallback_reads += 1
                rt.stats.stable_fallback_reads += 1
            if extract is not None:
                payload = extract(payload)
                ctx.charge_memcpy(payload_nbytes(payload))
            return payload
        payload = rt.heap_of(src_id).get(heap_key)
        if extract is not None:
            cost = rt.cost
            charge = cost.flops(extract_flops) + cost.memcpy(extract_bytes)
            if charge:
                rt.clock.advance(src_id, charge)
            payload = extract(payload)
        if src_id == ctx.place.id:
            # Local read: the size only feeds the (zero) memcpy charge.
            if not rt.engine.zero_fast():
                ctx.charge_memcpy(payload_nbytes(payload))
        else:
            _ = ctx.read_remote(src_id, heap_key, payload_nbytes(payload))
        return payload

    # -- integrity (chaos campaigns) -------------------------------------------

    def tiers(self, key: int) -> List[int]:
        """Tier ids holding a copy of *key*, in ladder order: 0 = primary,
        1..k = replicas, :data:`PARITY_TIER` = the group's block (on the
        group's first member), :data:`STABLE_TIER` = disk."""
        if key not in self._saved_keys:
            return []
        return [tid for tid, pid, hk in self.copies(key) if self._holds(pid, hk)]

    def corrupt_copy(self, key: int, tier: int) -> bool:
        """Replace one tier's copy of *key* with a corrupted *copy* (the
        tiers share the payload object, so in-place mutation would rot them
        all).  False when the tier holds no copy.  Fault-injection entry
        point for :class:`~repro.runtime.failure.CorruptionModel`."""
        for tid, pid, heap_key in self.copies(key) if key in self._saved_keys else ():
            if tid == tier and self._holds(pid, heap_key):
                heap = self._heap(pid)
                heap.put(heap_key, corrupt_payload(heap.get(heap_key)))
                self._verified.discard((key, tier))
                return True
        return False

    def verify_all(self) -> Tuple[int, int]:
        """Integrity scrub: checksum every copy of every key, all tiers,
        quarantining every corrupt one.  Returns ``(clean copies, newly
        quarantined copies)``."""
        clean = 0
        before = len(self.quarantined)
        for key in self.saved_keys():
            for tier in self.ladder:
                for copy in tier.copies(self, key):
                    if self._holds(*copy[1:]) and tier.verify(self, key, copy):
                        clean += 1
        return clean, len(self.quarantined) - before

    # -- health -----------------------------------------------------------

    def fully_redundant(self) -> bool:
        """True if every in-memory tier still holds all of its copies —
        what read-only reuse needs of a snapshot without a disk tier."""
        memory = [tier for tier in self.ladder if tier.in_memory]
        return all(tier.intact(self, key) for key in self._saved_keys for tier in memory)

    def reusable(self) -> bool:
        """True if a later checkpoint may safely re-reference this snapshot:
        full in-memory redundancy, or a complete disk tier behind it."""
        if DISK in self.ladder and self._saved_keys:
            if all(DISK.intact(self, key) for key in self._saved_keys):
                return True
        return self.fully_redundant()

    def recoverable(self) -> bool:
        """True while some tier can still serve every key (a full
        :meth:`locate` walk: it verifies copies and may reconstruct)."""
        try:
            for key in self._saved_keys:
                self.locate(key)
        except DataLossError:
            return False
        return True

    def placement_ok(self) -> bool:
        """Invariant: no redundancy shares a place with its primary
        (vacuously true for single-place groups, which have nowhere else)."""
        return self.group.size <= 1 or all(
            self.group[key].id not in tier.homes(self, key)
            for key in self._saved_keys
            for tier in self.ladder
        )

    def repair(self, new_group: Optional[PlaceGroup] = None) -> int:
        """Re-materialize lost copies after a recovery (the scrub pass);
        returns the copies rebuilt.  Only group-coded tiers repair: a
        replica set is rebuilt by the next checkpoint."""
        return sum(tier.repair(self, new_group) for tier in self.ladder)

    def rebind_group(self, new_group: PlaceGroup) -> None:
        """Re-anchor to a same-size group whose spares replaced dead members
        at their indices: keys whose homes moved to a spare read as damaged
        (:meth:`key_intact` False) until the caller re-saves them."""
        require(new_group.size == self.group.size, "rebind_group cannot resize the snapshot group")
        self.group = new_group
        self._backup_homes = self._home_table()

    def delete(self) -> None:
        """Free all surviving copies (old checkpoints are deleted on commit)."""
        for tier in self.ladder:
            tier.delete(self)
        self._saved_keys.clear()

    def __repr__(self) -> str:
        return (
            f"DistObjectSnapshot(id={self.snap_id}, keys={sorted(self._saved_keys)}, "
            f"group={self.group.ids}, ladder={self.ladder})"
        )
