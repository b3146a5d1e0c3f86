"""A log-structured key-value store (value-log design).

The paper motivates MDC with "the key-value separation design [5, 14,
16] for LSM-trees", where values live in an append-only *value log* and
"cleaning is often the new bottleneck".  This module is that
application, built on the repository's own substrate:

* values are variable-size records appended to the log-structured store
  (one store page per key, re-pointed on every update — exercising the
  Section 4.4 variable-size machinery);
* an in-memory key index maps keys to record slots (the LSM index /
  hash-table of the cited designs, abstracted);
* deletes are TRIMs: the record's space becomes reclaimable immediately;
* space reclamation is whatever cleaning policy the store was built
  with — so the paper's headline applies directly: run it with ``mdc``
  and the value-log GC cost drops.

Like the rest of the simulator, record *contents* are kept in RAM (the
store tracks ids and sizes); the I/O economics — placement, relocation,
write amplification — are exact.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.policies import make_policy
from repro.policies.base import CleaningPolicy
from repro.store import (
    IN_BUFFER,
    IN_RELOCATION,
    LogStructuredStore,
    StoreConfig,
    StoreError,
)

Key = Union[str, bytes, int, Tuple]


class KVError(Exception):
    """Key-value layer errors (oversized values, bad keys)."""


def check_value(value, limit: int) -> bytes:
    """``value`` as the ``bytes`` a shard stores, or :class:`KVError`
    when no shard would store it: it is not ``bytes`` or ``bytearray``,
    or it is longer than ``limit`` bytes.  A ``bytearray`` is copied, so
    a caller's later mutation never reaches a queued or stored value.
    The one rule for values, applied wherever one is accepted."""
    if type(value) is not bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise KVError(
                "values must be bytes, got %s" % type(value).__name__
            )
        value = bytes(value)
    if len(value) > limit:
        raise KVError(
            "value of %d bytes exceeds the %d-byte record limit"
            % (len(value), limit)
        )
    return value


class LogStructuredKVStore:
    """A key-value store whose value log is cleaned by a pluggable
    policy.

    Args:
        config: Geometry of the simulated value-log device.  One unit =
            ``unit_bytes`` of value payload.
        policy: Cleaning policy name or instance (default ``"mdc"``).
        unit_bytes: Bytes per storage unit; values are rounded up to
            whole units (the slotted-record granularity).

    Example:
        >>> kv = LogStructuredKVStore(StoreConfig(n_segments=64,
        ...     segment_units=32, fill_factor=0.5, clean_trigger=2,
        ...     clean_batch=4), policy="mdc", unit_bytes=16)
        >>> kv.put("user:1", b"alice")
        >>> kv.get("user:1")
        b'alice'
    """

    def __init__(
        self,
        config: StoreConfig,
        policy: Union[str, CleaningPolicy] = "mdc",
        unit_bytes: int = 64,
    ) -> None:
        if unit_bytes < 1:
            raise KVError("unit_bytes must be positive")
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.unit_bytes = unit_bytes
        self.store = LogStructuredStore(config, policy)
        self._slot_of: Dict[Key, int] = {}
        self._values: Dict[Key, bytes] = {}
        self._free_slots: List[int] = []
        self._next_slot = 0

    # -- sizing ----------------------------------------------------------

    @property
    def max_value_bytes(self) -> int:
        """Largest storable value (one whole segment of units)."""
        return self.store.config.segment_units * self.unit_bytes

    def _units(self, nbytes):
        """Record size in whole units (at least one) for a value length,
        or for an array of lengths."""
        return np.maximum(1, -(-nbytes // self.unit_bytes))

    # -- CRUD -------------------------------------------------------------

    def _stage(
        self,
        items: Iterable[Tuple[Key, bytes]],
        staged: List[Tuple[Key, bytes]],
        slots: List[int],
        lengths: List[int],
    ) -> None:
        """Validate each pair and reserve its record slot, in order,
        appending the ``(key, value)`` pair, its slot and its value
        length to the caller's lists.  Raises :class:`KVError` at the
        first invalid pair; the valid prefix stays staged."""
        limit = self.max_value_bytes
        slot_of, free = self._slot_of, self._free_slots
        for key, value in items:
            if type(value) is not bytes or len(value) > limit:
                value = check_value(value, limit)
            slot = slot_of.get(key)
            if slot is None:
                slot = free.pop() if free else self._next_slot
                if slot == self._next_slot:
                    self._next_slot += 1
                slot_of[key] = slot
            staged.append((key, value))
            slots.append(slot)
            lengths.append(len(value))

    def _unstage(self, keys: Iterable[Key]) -> None:
        """The store refused a write: unregister the staged keys whose
        value was never stored.  Their slots are trimmed (the store may
        have taken a prefix of the batch) and returned; a key that
        already held a value keeps it."""
        for key in keys:
            if key not in self._values:
                slot = self._slot_of.pop(key, None)
                if slot is not None:
                    self.store.trim(slot)
                    self._free_slots.append(slot)

    def put(self, key: Key, value: bytes) -> None:
        """Insert or overwrite; the old record's space is reclaimable
        from this moment.  Takes the store's scalar ``write`` — the
        per-pair reference :meth:`put_many` is state-identical to."""
        staged, slots, lengths = [], [], []
        self._stage(((key, value),), staged, slots, lengths)
        try:
            self.store.write(slots[0], size=int(self._units(lengths[0])))
        except StoreError:
            self._unstage((key,))
            raise
        self._values.update(staged)

    def put_many(self, items: Iterable[Tuple[Key, bytes]]) -> int:
        """Insert or overwrite a batch of ``(key, value)`` pairs through
        the store's vectorized :meth:`~repro.store.LogStructuredStore.
        write_batch` engine; returns the number of pairs applied.

        State-identical to calling :meth:`put` once per pair, in order —
        including duplicate keys inside the batch (the last value wins,
        and every occurrence counts as a user write) and the error
        position (an invalid pair raises :class:`KVError` *after* the
        valid prefix was applied, exactly as a ``put`` loop would).
        This is the service ingest fast path: one coalesced multi-key
        batch costs one ``write_batch`` call instead of a per-key loop.
        A store error (out of space) fails the whole call: no value of
        the batch is recorded and the keys it introduced are
        unregistered.
        """
        staged: List[Tuple[Key, bytes]] = []
        slots: List[int] = []
        lengths: List[int] = []
        try:
            self._stage(items, staged, slots, lengths)
        finally:
            # Also on the way out of an invalid pair: the valid prefix
            # is applied before the error surfaces.
            if staged:
                try:
                    self.store.write_batch(
                        np.asarray(slots, dtype=np.int64),
                        self._units(np.asarray(lengths, dtype=np.int64)),
                    )
                except StoreError:
                    self._unstage(key for key, _ in staged)
                    raise
                self._values.update(staged)
        return len(staged)

    def get(self, key: Key, default: Optional[bytes] = None) -> Optional[bytes]:
        """Fetch a value; ``default`` when the key is absent."""
        return self._values.get(key, default)

    def delete(self, key: Key) -> bool:
        """Remove a key; returns False if absent.  The record is TRIMmed
        (space freed without a rewrite)."""
        slot = self._slot_of.pop(key, None)
        if slot is None:
            return False
        self.store.trim(slot)
        self._free_slots.append(slot)
        del self._values[key]
        return True

    def __contains__(self, key: Key) -> bool:
        return key in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def keys(self) -> Iterator[Key]:
        """Iterate over live keys (insertion order)."""
        return iter(self._slot_of)

    def items(self) -> Iterator[Tuple[Key, bytes]]:
        """Iterate over live ``(key, value)`` pairs."""
        return iter(self._values.items())

    # -- introspection ------------------------------------------------------

    @property
    def write_amplification(self) -> float:
        """Value-log GC writes per user put, since creation."""
        return self.store.stats.write_amplification

    def space_report(self) -> Dict[str, float]:
        """Occupancy of the value log, on the store's own definition of
        live (:meth:`~repro.store.LogStructuredStore.live_units_now`):
        a record counts whether it sits in a segment, in the sorting
        buffer, or staged by a cleaning cycle that is mid-flight."""
        cfg = self.store.config
        live_units = self.store.live_units_now()
        return {
            "keys": len(self._slot_of),
            "live_bytes": live_units * self.unit_bytes,
            "device_bytes": cfg.device_units * self.unit_bytes,
            "utilization": live_units / cfg.device_units,
        }

    def check_consistency(self) -> None:
        """Index, value map, and store must agree (test/debug aid).

        A live key's record is in exactly one of three places: a
        segment, the sorting buffer (written, not yet drained — its
        value is served from the value map like any other), or the
        pages the *active* cleaning cycle has staged; the store's
        ``check_invariants`` holds each of the two sentinels to its
        backing (buffer membership, the active cursor's pending list).
        Any other page-table state — never written, in flight — is a
        key with no stored record.  And the records are all the store
        holds: their units add up to its live units."""
        assert set(self._slot_of) == set(self._values)
        slots = list(self._slot_of.values())
        assert len(slots) == len(set(slots)), "slot double-booked"
        store = self.store
        pages = store.pages
        units = 0
        for key, slot in self._slot_of.items():
            seg = pages.seg[slot]
            assert seg >= 0 or seg in (IN_BUFFER, IN_RELOCATION), (
                "live key %r has no stored record (page-table state %d)"
                % (key, seg)
            )
            expected = self._units(len(self._values[key]))
            assert pages.size[slot] == expected
            units += expected
        store.check_invariants()
        assert store.live_units_now() == units, (
            "store counts %d live units, the records add up to %d"
            % (store.live_units_now(), units)
        )

    def __repr__(self) -> str:
        report = self.space_report()
        return "<LogStructuredKVStore keys=%d util=%.0f%% policy=%s>" % (
            report["keys"],
            100 * report["utilization"],
            self.store.policy.name,
        )
