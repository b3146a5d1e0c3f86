"""The typed ring-buffered event bus."""

from collections import deque

import pytest

from repro.obs import (
    CLEAN_CYCLE,
    EVENT_KINDS,
    SEGMENT_SEALED,
    Event,
    EventBus,
)


class TestEvent:
    def test_to_dict_is_a_flat_jsonl_row(self):
        event = Event(seq=3, clock=17, kind=CLEAN_CYCLE, payload={"moved": 5})
        row = event.to_dict()
        assert row == {
            "type": "event",
            "seq": 3,
            "clock": 17,
            "kind": "clean_cycle",
            "moved": 5,
        }

    def test_kinds_are_distinct(self):
        assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)


class TestEventBus:
    def test_emit_and_order(self):
        bus = EventBus()
        bus.emit(SEGMENT_SEALED, clock=1, seg=0)
        bus.emit(CLEAN_CYCLE, clock=2, victims=[0])
        kinds = [e.kind for e in bus.events()]
        assert kinds == [SEGMENT_SEALED, CLEAN_CYCLE]
        assert [e.seq for e in bus.events()] == [1, 2]

    def test_ring_drops_oldest_but_counts_stay_cumulative(self):
        bus = EventBus(capacity=2)
        for clock in range(5):
            bus.emit(SEGMENT_SEALED, clock=clock, seg=clock)
        assert len(bus) == 2
        assert bus.dropped == 3
        assert bus.events()[-1].seq == 5
        assert bus.counts[SEGMENT_SEALED] == 5
        # The ring keeps the most recent events.
        assert [e.payload["seg"] for e in bus.events()] == [3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventBus(capacity=0)


class EagerBus:
    """The bus as it was before it recorded tuples — an ``Event`` built
    and ringed at every emit.  The reference the recording bus (and, in
    ``test_observer``, the recording observer) is compared against."""

    def __init__(self, capacity=4096):
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self.counts = {}
        self.dropped = 0
        self._seq = 0

    def emit(self, kind, clock, **payload):
        self._seq += 1
        event = Event(seq=self._seq, clock=clock, kind=kind, payload=payload)
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def events(self):
        return list(self._ring)


class TestRecordingBusEqualsEager:
    @pytest.mark.parametrize("capacity", [1, 4, 64])
    def test_same_events_counts_and_drops(self, capacity):
        bus, ref = EventBus(capacity), EagerBus(capacity)
        for clock in range(23):
            kind = EVENT_KINDS[clock % len(EVENT_KINDS)]
            for b in (bus, ref):
                b.emit(kind, clock, seg=clock, victims=[clock, clock + 1])
            assert bus.events() == ref.events()
            assert (bus.counts, bus.dropped, len(bus)) == (
                ref.counts, ref.dropped, len(ref._ring)
            )
        assert all(type(e) is Event for e in bus.events())
