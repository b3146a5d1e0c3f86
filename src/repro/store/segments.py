"""Per-segment metadata for the log-structured store.

Section 5.1 of the paper identifies the information a cleaner must keep
for each segment:

* ``A`` — available (reclaimable) storage in the segment,
* ``C`` — number of pages containing current state,
* ``up2`` — the penultimate update time of pages in the segment,

plus global values ``B`` (segment size) and ``u_now`` (the update-count
clock).  This module keeps those, together with the auxiliary values the
different cleaning policies need: seal time (for age and cost-benefit),
the last update time ``up1`` (so ``up2`` can be advanced as updates
arrive), and the running sum of exact page update frequencies for the
oracle-assisted ``-opt`` policy variants.

Layout: structure of arrays
---------------------------

Every column is a contiguous numpy array indexed by segment id — there
is no per-segment Python object anywhere.  The slot log (which page
sits in which append position) is two dense ``(n_segments, capacity)``
int64 matrices plus a ``slot_count`` column: segment ``s``'s append log
is ``slot_page[s, :slot_count[s]]``.  Dense is affordable because a
page occupies at least one unit, so a segment can never hold more than
``capacity`` slots, and it is what makes the hot paths array-shaped:

* the batch write engine appends whole runs with one slice assignment
  (``slot_page[s, cnt:cnt+k] = run``) instead of list ``extend``;
* ``clean_begin`` stages every victim's live pages in one pass over a
  2-D fancy-indexed slot block (:meth:`SegmentTable.live_slots`), with
  no Python loop over victims or slots;
* erase (:meth:`reset`) is O(1) — it rewinds ``slot_count`` instead of
  rebuilding per-segment lists.

``stream`` records which placement stream (policy log) last opened the
segment — the store maintains it on open/reset so policies and decision
tracing can read stream ancestry straight from a column.

``epoch`` is a bookkeeping counter, not simulator state: it advances
whenever a segment's cleaning-priority inputs change (invalidation,
seal, reset, oracle-frequency adjustment), which lets policies cache
per-segment priorities between cleaning cycles and re-score only the
segments whose epoch moved.  It is deliberately excluded from state
digests and checkpoints.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Segment states.
FREE = 0
OPEN = 1
SEALED = 2

#: ``stream`` column sentinel: the segment has never been opened (or was
#: erased since).  Distinct from every real stream id, including the
#: store's GC stream (-1).
NO_STREAM = np.iinfo(np.int64).min

_STATE_NAMES = {FREE: "free", OPEN: "open", SEALED: "sealed"}


class SegmentTable:
    """Column-wise (structure-of-arrays) metadata for all segments."""

    __slots__ = (
        "capacity",
        "state",
        "live_count",
        "live_units",
        "used_units",
        "seal_time",
        "up1",
        "up2",
        "up2_sum",
        "freq_sum",
        "slot_page",
        "slot_size",
        "slot_count",
        "stream",
        "erase_count",
        "epoch",
    )

    def __init__(self, n_segments: int, capacity: int) -> None:
        self.capacity = capacity
        self.state = np.full(n_segments, FREE, dtype=np.int64)
        #: C — live (current) pages in the segment.
        self.live_count = np.zeros(n_segments, dtype=np.int64)
        #: capacity - A — units occupied by live pages.
        self.live_units = np.zeros(n_segments, dtype=np.int64)
        #: Units appended so far (the write cursor); never decreases while
        #: the segment is open, unlike ``live_units``.
        self.used_units = np.zeros(n_segments, dtype=np.int64)
        #: Update-clock value when the segment was sealed.
        self.seal_time = np.zeros(n_segments, dtype=np.int64)
        #: Times of the last two updates that hit (invalidated a page of)
        #: the segment.  ``Upf = 2 / (u_now - up2)`` per Section 4.3.
        self.up1 = np.zeros(n_segments, dtype=np.float64)
        self.up2 = np.zeros(n_segments, dtype=np.float64)
        #: Sum of carried per-page up2 estimates of appended pages; at seal
        #: time the average initializes the segment's up2 (Section 5.2.2).
        self.up2_sum = np.zeros(n_segments, dtype=np.float64)
        #: Sum of exact per-page update frequencies of live pages; only
        #: maintained when the store has a frequency oracle attached.
        self.freq_sum = np.zeros(n_segments, dtype=np.float64)
        #: Append-ordered page ids: slot ``i`` of segment ``s`` is
        #: ``slot_page[s, i]`` for ``i < slot_count[s]``, and it is live
        #: iff the page table still maps that page to ``(s, i)``.
        self.slot_page = np.zeros((n_segments, capacity), dtype=np.int64)
        #: Unit sizes parallel to ``slot_page`` (needed to reconstruct
        #: space accounting for variable-size pages).
        self.slot_size = np.ones((n_segments, capacity), dtype=np.int64)
        #: Occupied prefix length of ``slot_page[s]`` / ``slot_size[s]``.
        self.slot_count = np.zeros(n_segments, dtype=np.int64)
        #: Stream id that (last) opened the segment; NO_STREAM when free.
        self.stream = np.full(n_segments, NO_STREAM, dtype=np.int64)
        #: Times this segment has been reclaimed — in SSD terms, its
        #: erase count (flash wear).  Never reset.
        self.erase_count = np.zeros(n_segments, dtype=np.int64)
        #: Change counter for priority caching; see the module docstring.
        self.epoch = np.zeros(n_segments, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.state)

    def reset(self, seg) -> None:
        """Return a segment — or an array of distinct segments, in one
        store per column — to FREE state (an erase, in SSD terms)."""
        self.erase_count[seg] += 1
        self.state[seg] = FREE
        self.live_count[seg] = 0
        self.live_units[seg] = 0
        self.used_units[seg] = 0
        self.seal_time[seg] = 0
        self.up1[seg] = 0.0
        self.up2[seg] = 0.0
        self.up2_sum[seg] = 0.0
        self.freq_sum[seg] = 0.0
        self.slot_count[seg] = 0
        self.stream[seg] = NO_STREAM
        self.epoch[seg] += 1

    # -- slot log access ------------------------------------------------

    def slot_pages_of(self, seg: int) -> np.ndarray:
        """Append-ordered page ids of ``seg`` (a read-only-by-convention
        view of the backing matrix)."""
        return self.slot_page[seg, : self.slot_count[seg]]

    def slot_sizes_of(self, seg: int) -> np.ndarray:
        """Unit sizes parallel to :meth:`slot_pages_of`."""
        return self.slot_size[seg, : self.slot_count[seg]]

    def slot_list(self, seg: int) -> List[int]:
        """Plain-list form of :meth:`slot_pages_of` (tests, digests)."""
        return self.slot_pages_of(seg).tolist()

    def slot_size_list(self, seg: int) -> List[int]:
        """Plain-list form of :meth:`slot_sizes_of`."""
        return self.slot_sizes_of(seg).tolist()

    def set_slots(
        self,
        seg: int,
        pids: Sequence[int],
        sizes: Optional[Sequence[int]] = None,
    ) -> None:
        """Replace a segment's slot log wholesale (tests and restore
        paths; the write engine appends in place instead)."""
        pids = np.asarray(pids, dtype=np.int64)
        n = pids.size
        if n > self.capacity:
            raise ValueError(
                "segment %d cannot hold %d slots (capacity %d)"
                % (seg, n, self.capacity)
            )
        self.slot_page[seg, :n] = pids
        if sizes is None:
            self.slot_size[seg, :n] = 1
        else:
            self.slot_size[seg, :n] = np.asarray(sizes, dtype=np.int64)
        self.slot_count[seg] = n

    def append_slot(self, seg: int, page_id: int, size: int) -> int:
        """Append one page to a segment's slot log; returns its slot."""
        cnt = int(self.slot_count[seg])
        self.slot_page[seg, cnt] = page_id
        self.slot_size[seg, cnt] = size
        self.slot_count[seg] = cnt + 1
        return cnt

    def live_slots(self, segs: np.ndarray, pages):
        """The live pages of ``segs`` and the segment each sits in, as
        ``(pids, owners)`` in (given segment order, slot order) — what a
        cleaning cycle stages, in its relocation order.

        One pass over the segments' rows of the slot block: a slot is
        live iff ``pages`` (the
        :class:`~repro.store.pagetable.PageTable`) still maps its page id
        to that very ``(segment, slot)``; slots past a segment's
        ``slot_count`` hold ids from an earlier life and never count.
        The rows are read whole: cutting them to the longest slot log
        first costs two numpy calls more than the few slots it saves.
        No Python loop over segments or slots.
        """
        cols = np.arange(self.capacity)
        rows = self.slot_page.take(segs, axis=0)
        owner = pages.seg[rows]
        live = (
            (owner == segs[:, None])
            & (pages.slot[rows] == cols)
            & (cols < self.slot_count[segs][:, None])
        )
        return rows[live], owner[live]

    # -- derived values -------------------------------------------------

    def available_units(self, seg: int) -> int:
        """``A`` — reclaimable space of a segment, in units."""
        return int(self.capacity - self.live_units[seg])

    def emptiness(self, seg: int) -> float:
        """``E = A / B`` — the fraction of the segment that is empty."""
        return self.available_units(seg) / self.capacity

    def state_name(self, seg: int) -> str:
        """Human-readable state (``free`` / ``open`` / ``sealed``)."""
        return _STATE_NAMES[int(self.state[seg])]

    def describe(self, seg: int) -> str:
        """Human-readable one-line summary (debugging aid)."""
        return (
            "segment %d: %s, C=%d, A=%d/%d, E=%.3f, sealed@%d, up1=%.0f, up2=%.0f"
            % (
                seg,
                self.state_name(seg),
                self.live_count[seg],
                self.available_units(seg),
                self.capacity,
                self.emptiness(seg),
                self.seal_time[seg],
                self.up1[seg],
                self.up2[seg],
            )
        )
