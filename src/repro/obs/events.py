"""A typed, ring-buffered event stream for store internals.

The store's interesting moments — a segment sealing, a cleaning cycle,
a victim being chosen, the sorting buffer draining, a failpoint firing —
are *events*: discrete, timestamped on the update clock, and carrying a
small structured payload.  The bus keeps the most recent ``capacity``
events in a ring (old events are counted, then dropped), tallies every
kind cumulatively.

The bus is only ever consulted through the store's ``obs`` slot, which
is ``None`` unless an observer is attached — the disabled cost on the
write path is exactly one attribute test at each (per-segment, never
per-write) hook site.  See OBSERVABILITY.md for the overhead budget.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, List

#: Event kinds emitted by the store hooks.
SEGMENT_SEALED = "segment_sealed"
CLEAN_CYCLE = "clean_cycle"
VICTIM_SELECTED = "victim_selected"
BUFFER_FLUSH = "buffer_flush"
FAILPOINT_FIRED = "failpoint"
#: A foreground write had to run inline cleaning to get a segment —
#: the payload carries how many GC pages it waited behind.  Cleaner
#: *steps* deliberately get no event kind: a step is per-budget-slice
#: frequency, which would flood the ring; steps are metrics-only.
WRITE_STALL = "write_stall"

#: Every kind the store itself can emit (exporters validate against it).
EVENT_KINDS = (
    SEGMENT_SEALED,
    CLEAN_CYCLE,
    VICTIM_SELECTED,
    BUFFER_FLUSH,
    FAILPOINT_FIRED,
    WRITE_STALL,
)


@dataclasses.dataclass(frozen=True)
class Event:
    """One occurrence: a global sequence number, the store clock at the
    moment of emission, the kind tag, and a JSON-ready payload."""

    seq: int
    clock: int
    kind: str
    payload: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL row form (``type: "event"``)."""
        row = {
            "type": "event",
            "seq": self.seq,
            "clock": self.clock,
            "kind": self.kind,
        }
        row.update(self.payload)
        return row


class EventBus:
    """Ring buffer of events plus cumulative per-kind counts.

    ``emit`` records — the ring holds plain ``(seq, clock, kind,
    payload)`` tuples — and :meth:`events` formats them as
    :class:`Event` on read.

    Args:
        capacity: Ring size; the oldest events are dropped (and counted
            in :attr:`dropped`) once the ring is full.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: "deque[tuple]" = deque(maxlen=capacity)
        #: Cumulative emissions per kind — never truncated by the ring.
        self.counts: Dict[str, int] = {}
        #: Events pushed out of the ring by newer ones.
        self.dropped = 0
        self._seq = 0

    def emit(self, kind: str, clock: int, **payload: Any) -> None:
        """Record one event."""
        self._seq += 1
        record = (self._seq, clock, kind, payload)
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def events(self) -> List[Event]:
        """The retained events, oldest first."""
        return [Event(*record) for record in self._ring]

    def __len__(self) -> int:
        return len(self._ring)
