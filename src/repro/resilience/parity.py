"""Erasure-coded parity tier for the snapshot ladder.

Replication pays ``k x`` checkpoint bytes to survive ``k`` losses per key.
ReStore (arXiv:2203.01107) and the extreme-scale multigrid resilience work
(arXiv:1506.06185) both observe that *single* losses — by far the common
case — are recoverable from a parity code at a fraction of that footprint.
:class:`Parity` implements the XOR variant: each run of ``span``
consecutive partitions stores one block — the XOR of the members' byte
streams, zero-padded to the longest — on a place *outside* the group
(chosen through ``resolve_offsets``).  The ladder ``(Primary, Parity,
Disk?)`` then absorbs any single loss per group in memory at ``~(1 +
1/g)x`` bytes; two losses in one group before a repair fall through to
disk or a documented ``DataLossError``.

Blocks carry a CRC-32, are verified before any reconstruction and by
``verify_all``, and a corrupt block is quarantined.  Delta checkpointing
composes (XOR is incremental: an unchanged group adopts its base block by
reference at zero virtual cost, a partly-dirty one charges its dirty
members only), and :meth:`Parity.repair` is the post-recovery scrub.

XOR blocks are *really* computed, while virtual time follows the cost
model's dirty-bytes accounting.  Single-array members (``Vector``,
``DenseMatrix``, a bare ndarray) XOR their **raw NumPy buffers** and are
rebuilt from a ``(class, dtype, shape)`` codec; a group with a ragged
member (sparse partitions, containers) XORs pickled streams instead.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

import numpy as np

from repro.resilience.placement import ParityPlacement
from repro.resilience.snapshot import PARITY_TIER, PRIMARY, STABLE_TIER, Tier
from repro.runtime.exceptions import DataLossError
from repro.runtime.place import PlaceGroup
from repro.util.bytesize import payload_nbytes
from repro.util.checksum import memoized_checksum
from repro.util.versioning import freeze_payload

__all__ = ["PARITY_TIER", "Parity"]


def _pickled(payload: Any) -> bytes:
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _raw_codec(payload: Any) -> Optional[Tuple[tuple, np.ndarray]]:
    """``(codec, flat uint8 view)`` when the payload's bytes are exactly one
    C-contiguous array — a bare ndarray, or a wrapper whose sole
    ``payload_arrays()`` entry is its ``.data`` and whose constructor
    rebuilds from it — else None.  The codec is ``(cls_or_None,
    dtype_str, shape)``."""
    if type(payload) is np.ndarray:
        arr, cls = payload, None
    else:
        arrays = getattr(payload, "payload_arrays", None)
        if arrays is None:
            return None
        backing = arrays()
        if len(backing) != 1 or backing[0] is not getattr(payload, "data", None):
            return None
        arr, cls = backing[0], type(payload)
    if type(arr) is not np.ndarray or not arr.flags.c_contiguous:
        return None
    return (cls, arr.dtype.str, arr.shape), arr.view(np.uint8).reshape(-1)


def _stream(payload: Any, raw: bool) -> Optional[np.ndarray]:
    """A member's XOR byte stream in the group's encoding (None when a raw
    group's member no longer has a raw encoding)."""
    if raw:
        rc = _raw_codec(payload)
        return None if rc is None else rc[1]
    return np.frombuffer(_pickled(payload), dtype=np.uint8)


def _transfer(rt, src: int, dst: int, nbytes: int) -> None:
    """One engine-routed member-to-parity-place transfer."""
    if src != dst:
        arrive = rt.engine.transfer(src, dst, nbytes, rt.clock.now(src))
        rt.clock.set_at_least(dst, arrive)
        rt.stats.messages += 1
        rt.stats.bytes_sent += rt.cost.scaled_bytes(nbytes)


@dataclass(frozen=True)
class Parity(Tier):
    """One XOR parity block per group of ``span`` consecutive keys.

    Per-snapshot state: ``_parity`` maps each sealed group to its block's
    ``(CRC-32, raw?)``, ``_parity_keys`` each member to its ``(stream
    length, raw codec or None)``, and ``_parity_base`` is the delta base.
    Blocks live under ``("snapp", id, group)`` on the group's parity place;
    reconstructions are materialized there under ``("snapr", id, key)`` so
    ``fetch`` reads them like any other in-memory copy.
    """

    span: int

    def attach(self, snap) -> None:
        snap._parity = {}
        snap._parity_keys = {}
        snap._parity_base = None

    # -- group geometry ----------------------------------------------------

    def group_of(self, key: int) -> int:
        return key // self.span

    def members(self, snap, gidx: int) -> range:
        start = gidx * self.span
        return range(start, min(start + self.span, snap.group.size))

    def saved_members(self, snap, gidx: int) -> List[int]:
        return [m for m in self.members(snap, gidx) if m in snap._saved_keys]

    def place_id(self, snap, gidx: int) -> int:
        g, size = self.members(snap, gidx), snap.group.size
        return snap.group[ParityPlacement.parity_index(g.start, len(g), size)].id

    def block(self, snap, gidx: int) -> Tuple[int, tuple]:
        """``(place id, heap key)`` of the group's parity block."""
        return self.place_id(snap, gidx), ("snapp", snap.snap_id, gidx)

    def canonical(self, gidx: int) -> Tuple[int, int]:
        """The ``(key, tier)`` bookkeeping entry for a group's block
        (anchored to the group's first member)."""
        return (gidx * self.span, PARITY_TIER)

    def groups(self, snap) -> List[int]:
        return sorted({self.group_of(key) for key in snap._saved_keys})

    def has_block(self, snap, gidx: int) -> bool:
        return gidx in snap._parity and snap._holds(*self.block(snap, gidx))

    def _primaries_present(self, snap, keys) -> bool:
        return all(snap._holds(*PRIMARY.home(snap, m)) for m in keys)

    def copies(self, snap, key: int):
        """A sealed group's block, listed under the group's first member
        (so a corruption sweep strikes each block at per-copy odds)."""
        gidx = self.group_of(key)
        if key == gidx * self.span and gidx in snap._parity:
            return ((PARITY_TIER,) + self.block(snap, gidx),)
        return ()

    # -- saving ------------------------------------------------------------

    def adopt(self, snap, key, base) -> None:
        snap._parity_base = base
        snap._parity_keys[key] = base._parity_keys.get(key, (0, None))

    def seal(self, snap, key: int) -> None:
        """Seal the key's group once every member is saved: an all-clean
        group adopts its surviving base block by reference (zero virtual
        cost); otherwise the block is rebuilt, charging only the dirty
        members when an intact base makes the XOR update incremental."""
        gidx = self.group_of(key)
        if gidx in snap._parity:
            return
        members = self.members(snap, gidx)
        if any(m not in snap._saved_keys for m in members):
            return
        base = snap._parity_base
        base_ok = base is not None and self.has_block(base, gidx)
        if base_ok and all(m in snap.clean_keys for m in members):
            rt = snap.runtime
            pid, base_key = self.block(base, gidx)
            block = rt.heap_of(pid).get(base_key)
            rt.heap_of(pid).put(("snapp", snap.snap_id, gidx), block)
            snap._parity[gidx] = base._parity[gidx]
            if self.canonical(gidx) in base._verified:
                snap._verified.add(self.canonical(gidx))
            snap.parity_nbytes += block.size
            snap.total_nbytes += block.size
            return
        if not snap.runtime.is_alive(self.place_id(snap, gidx)):
            # No home for the block: the group runs unprotected until a
            # repair pass (key_intact stays False, forcing dirty re-saves).
            return
        dirty = [m for m in members if m not in snap.clean_keys]
        self._build(snap, gidx, charge_keys=dirty if base_ok else list(members))

    def _build(self, snap, gidx: int, charge_keys: List[int]) -> None:
        """Compute and store the group's XOR block over every member; the
        virtual-time charge covers *charge_keys* only."""
        rt = snap.runtime
        cost = rt.cost
        pid, block_key = self.block(snap, gidx)
        payloads = {
            m: rt.heap_of(snap.group[m].id).get(("snap", snap.snap_id, m))
            for m in self.saved_members(snap, gidx)
        }
        raw = {m: _raw_codec(p) for m, p in payloads.items()}
        all_raw = all(rc is not None for rc in raw.values())
        streams = {}
        for m, payload in payloads.items():
            # Raw mode XORs the members' contiguous buffers directly — no
            # pickling, no per-member blob materialization.
            streams[m] = raw[m][1] if all_raw else _stream(payload, raw=False)
            snap._parity_keys[m] = (streams[m].size, raw[m][0] if all_raw else None)
        maxlen = max(stream.size for stream in streams.values())
        acc = np.zeros(maxlen, dtype=np.uint8)
        for stream in streams.values():
            acc[: stream.size] ^= stream
        acc.setflags(write=False)
        charged_bytes = 0
        for m in charge_keys:
            if m in streams:
                _transfer(rt, snap.group[m].id, pid, streams[m].size)
                charged_bytes += streams[m].size
        rt.clock.advance(pid, cost.flops(charged_bytes) + cost.checksum(maxlen))
        rt.heap_of(pid).put(block_key, acc)
        snap._parity[gidx] = (memoized_checksum(acc, None), all_raw)
        snap._verified.add(self.canonical(gidx))
        snap.parity_nbytes += maxlen
        snap.total_nbytes += maxlen

    def _drop_block(self, snap, gidx: int, stale: bool = False) -> None:
        """Quarantine a corrupt block, or drop a *stale* one (its XOR
        equation no longer covers the members; its bytes leave)."""
        pid, block_key = self.block(snap, gidx)
        heap = snap.runtime.heap_of(pid)
        if stale:
            snap.parity_nbytes -= heap.get(block_key).size
            snap.total_nbytes -= heap.get(block_key).size
        else:
            snap.quarantined.append(self.canonical(gidx))
        heap.remove_if_present(block_key)
        snap._parity.pop(gidx, None)
        snap._verified.discard(self.canonical(gidx))

    # -- presence ----------------------------------------------------------

    def intact(self, snap, key: int) -> bool:
        """Conservative: the group's parity block and every member primary
        must survive — a degraded group must re-save dirty so the next
        checkpoint rebuilds full protection."""
        gidx = self.group_of(key)
        return self.has_block(snap, gidx) and self._primaries_present(
            snap, self.saved_members(snap, gidx)
        )

    def homes(self, snap, key: int) -> Tuple[int, ...]:
        return (self.place_id(snap, self.group_of(key)),)

    def stored_nbytes(self, snap, logical: float) -> float:
        return snap.parity_nbytes

    def lost(self, snap, key: int) -> str:
        return (
            f"primary and parity tiers of snapshot key {key} lost (primary "
            f"{snap.group[key]}; >=2 members of parity group "
            f"{self.group_of(key)} gone before repair; no stable-"
            f"storage tier)"
        )

    # -- integrity ---------------------------------------------------------

    def verify(self, snap, key: int, copy=None) -> bool:
        """Checksum the group's parity block; quarantine on mismatch."""
        gidx = self.group_of(key)
        canon = self.canonical(gidx)
        if canon in snap._verified:
            return True
        rt = snap.runtime
        pid, block_key = self.block(snap, gidx)
        block = rt.heap_of(pid).get(block_key)
        rt.clock.advance(pid, rt.cost.checksum(payload_nbytes(block)))
        if memoized_checksum(block, None) == snap._parity[gidx][0]:
            snap._verified.add(canon)
            return True
        self._drop_block(snap, gidx)
        return False

    # -- reconstruction ------------------------------------------------------

    def locate(self, snap, key: int) -> Optional[Tuple[int, tuple]]:
        """Reconstruct *key* from the verified block and a verified primary
        of every peer (any hole exceeds the code: fall through).  The
        payload is materialized on the parity place and checked against
        the key's save-time CRC — a garbled one is quarantined, never
        returned."""
        rt = snap.runtime
        gidx = self.group_of(key)
        pid, block_key = self.block(snap, gidx)
        recon_key = ("snapr", snap.snap_id, key)
        if snap._holds(pid, recon_key):
            return pid, recon_key
        if not self.has_block(snap, gidx) or not self.verify(snap, key):
            return None
        peers = [m for m in self.saved_members(snap, gidx) if m != key]
        for m in peers:
            if PRIMARY.locate(snap, m) is None:
                return None
        cost = rt.cost
        raw = snap._parity[gidx][1]
        block = rt.heap_of(pid).get(block_key)
        acc = np.array(block, dtype=np.uint8)
        xored = payload_nbytes(block)
        for m in peers:
            src, primary_key = PRIMARY.home(snap, m)
            stream = _stream(rt.heap_of(src).get(primary_key), raw)
            if stream is None:
                # A peer no longer matches the raw encoding the block was
                # built with — the XOR equation cannot be solved.
                return None
            if stream.size > acc.size:
                # The member's byte stream outgrew the block since it was
                # built — a re-materialized primary whose serialized form
                # drifted (possible in the pickled encoding only; raw
                # buffers are value-determined).  The XOR equation no
                # longer covers the member: drop the stale block so the
                # next checkpoint or repair pass rebuilds it, and fall
                # through to the next tier.
                self._drop_block(snap, gidx, stale=True)
                return None
            acc[: stream.size] ^= stream
            xored += stream.size
            _transfer(rt, src, pid, stream.size)
        length, codec = snap._parity_keys.get(key, (None, None))
        if length is None or length > acc.size or (raw and codec is None):
            snap.quarantined.append(self.canonical(gidx))
            return None
        if raw:
            cls, dtype, shape = codec
            data = np.frombuffer(acc[:length].tobytes(), dtype=np.dtype(dtype))
            data = data.reshape(shape).copy()
            payload = data if cls is None else cls(data)
        else:
            payload = pickle.loads(acc[:length].tobytes())
        freeze_payload(payload)
        nbytes = payload_nbytes(payload)
        rt.clock.advance(pid, cost.flops(xored) + cost.memcpy(nbytes) + cost.checksum(nbytes))
        if memoized_checksum(payload, None) != snap._expected_checksum(key):
            # The block XORed clean but the result does not hash to the
            # partition saved — a silently corrupt peer slipped through.
            # Quarantine the block and fall through to the next tier.
            self._drop_block(snap, gidx)
            return None
        rt.heap_of(pid).put(recon_key, payload)
        snap._verified.add((key, 0))
        snap.parity_reads += 1
        rt.stats.parity_reconstructions += 1
        return pid, recon_key

    # -- scrub / repair -----------------------------------------------------

    def repair(self, snap, new_group: Optional[PlaceGroup]) -> int:
        """The scrub pass: re-anchor to *new_group* (spares at the dead
        members' indices), refill each missing primary from the ladder,
        then rebuild missing blocks, all charged through the engine.
        Returns the copies re-materialized; a place dying mid-scrub raises
        ``DeadPlaceException`` (the executor retries the recovery)."""
        rt = snap.runtime
        if new_group is not None:
            if new_group.size == snap.group.size and new_group.ids != snap.group.ids:
                snap.rebind_group(new_group)
            # Scrub mode: the caller installed a fully-live replacement
            # group, so any dead member now means a *new* failure — abort
            # (fail fast) instead of silently leaving holes behind.
            for place in snap.group:
                rt.check_alive(place.id)
        repaired = 0
        refilled: Set[int] = set()
        for key in sorted(snap._saved_keys):
            home, primary_key = PRIMARY.home(snap, key)
            if not rt.is_alive(home) or rt.heap_of(home).contains(primary_key):
                continue
            try:
                src_id, heap_key = snap.locate(key)
            except DataLossError:
                continue
            payload = snap._heap(src_id).get(heap_key)
            if src_id == STABLE_TIER:
                rt.engine.stable_read(home, payload_nbytes(payload))
            else:
                nbytes = payload_nbytes(payload)
                _transfer(rt, src_id, home, nbytes)
                rt.clock.advance(home, rt.cost.memcpy(nbytes))
            rt.heap_of(home).put(primary_key, payload)
            snap._verified.add((key, 0))
            refilled.add(self.group_of(key))
            repaired += 1
        for gidx in self.groups(snap):
            if not rt.is_alive(self.place_id(snap, gidx)):
                continue
            stale = self.has_block(snap, gidx)
            if stale:
                if gidx not in refilled or snap._parity[gidx][1]:
                    continue
                # A pickled-mode group with a refilled primary: the
                # re-materialized payload may serialize differently than
                # at build time, silently invalidating the XOR equation.
                # Drop the stale block and rebuild it below (raw groups
                # are value-determined and keep their block).  Not
                # counted in ``repaired`` — the block was never lost.
                self._drop_block(snap, gidx, stale=True)
            members = self.saved_members(snap, gidx)
            if self._primaries_present(snap, members):
                snap._parity.pop(gidx, None)
                self._build(snap, gidx, charge_keys=members)
                repaired += 0 if stale else 1
        return repaired

    # -- lifecycle ----------------------------------------------------------

    def delete(self, snap) -> None:
        rt = snap.runtime
        for gidx in self.groups(snap):
            pid, block_key = self.block(snap, gidx)
            if rt.is_alive(pid):
                heap = rt.heap_of(pid)
                heap.remove_if_present(block_key)
                for m in self.members(snap, gidx):
                    heap.remove_if_present(("snapr", snap.snap_id, m))
        snap._parity.clear()
        snap._parity_keys.clear()
