"""The log-structured store simulator.

This is the substrate every experiment in the paper runs on.  Like the
paper's simulator (Section 6.1.1), it "only writes page IDs instead of
page contents": the unit of obsolescence is the page, the unit of
reclamation is the segment, and the store tracks which slots hold current
versions so that the cleaning cost (page moves, write amplification) can
be measured exactly.

Responsibilities are split as follows:

* the **store** owns all state — page table, segment table, free list,
  open segments, the update-count clock, statistics — and implements the
  mechanical write / seal / allocate / clean-cycle machinery;
* the attached **cleaning policy** makes the two decisions the paper
  studies: *where to place pages* (stream routing and frequency sorting)
  and *which segments to clean next* (the priority order).

The "clock" is the user-update counter (paper Section 4.2): one tick per
user write, so update-frequency estimates are immune to wall-clock
artifacts such as load variation.

Write path
----------

There is one write path.  :meth:`LogStructuredStore.write_batch` is the
engine every caller drives (the simulator, ``kv.put_many``, the service's
ingest queue): it splits a batch into *runs* and applies each run's
bookkeeping with numpy fancy indexing — one gather, one invalidation,
one carried-``up2`` resolution per run.  A run takes repeated page ids
in its stride (a repeat rewrites the version its previous occurrence in
the run just placed) and ends only where the engine must stop:

* with a sorting buffer, where the buffer must flush;
* without one, a run *rolls*: it fills the open segment and then as many
  fresh segments as the free pool allows before the next cleaning
  opportunity that would actually clean — ``len(free_list) - trigger +
  1`` rolls, none while a :class:`CleanCursor` is active — going through
  the ordinary roll (:meth:`_open_segment_for`) and append
  (:meth:`_append_run`) once per segment, with the clock set to the
  rolling write's own tick.  Because a run's invalidations are applied
  before its rolls, it is cut before the first position whose old
  version lies in a segment the run has sealed by then (the *cut rule*,
  :meth:`_write_run_direct`); that position starts the next run.

Every emission, user or GC, lands through :meth:`_append_run`, and every
change of segment through the one roll in :meth:`_open_segment_for`
(seal-if-full, a user write's cleaning opportunity, allocate), both
driven by the one roll/append loop in :meth:`_emit_run`.  The policy is
asked for arrays only: ``route_user_batch`` / ``user_sort_key`` for
placement, ``place_gc_batch`` for relocation, ``rank_columns`` for
victims.

The scalar :meth:`write` remains as exactly two things.  It is the step
the run engine takes for the one write whose roll cleans (or drains an
active cursor), that flushes the buffer, or that opens a stream's first
segment (and for every write of a policy whose routing is per write —
multi-log's ``route_user``); and it is the reference the differential
suites compare the engine against, one branch per bookkeeping rule.
The two are bit-identical: every float accumulation in the run engine
replays the scalar update order (``np.add.at`` and ``np.cumsum`` are
sequential left-to-right folds), which the differential suites lock down
by comparing full state digests.

Cleaning cycle
--------------

When the number of free segments falls below ``config.clean_trigger`` the
store cleans a batch of victims chosen by the policy: their live pages are
staged in memory, the source segments are freed, and the pages are
re-written through the policy's GC placement hook.  Staging in memory
means relocation never deadlocks on free space — a batch with any empty
space makes net progress.  Each relocated page counts toward
``gc_writes`` (the numerator of write amplification).

The cycle is also exposed *incrementally*: :meth:`clean_begin` pins the
victim decision, stages the live pages, and frees the victims, and
:meth:`clean_step` relocates a bounded number of pages at a time through
an explicit resume cursor (:class:`CleanCursor`), so foreground writes
can interleave between steps.  ``clean()`` is now ``clean_begin`` plus a
single unbounded ``clean_step`` — the two paths share every line of the
cycle, and a full drain is byte-identical to the historical batch cycle
(the differential suite locks this down with state digests).  Staged
pages carry the ``IN_RELOCATION`` page-table sentinel; a foreground
write or trim landing on one clears the sentinel, and the cleaner skips
the now-obsolete staged copy when its step resumes, crediting the
skipped space to ``cleaned_emptiness_sum`` so the paper's exact
Equation 2 identity keeps holding under arbitrary preemption schedules.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.store.buffer import SortBuffer
from repro.store.config import StoreConfig
from repro.store.errors import (
    OutOfSpaceError,
    PageIdError,
    PageSizeError,
    StoreError,
)
from repro.store.kernels import fold_add as _fold_add
from repro.store.kernels import prev_occurrence as _prev_occurrence
from repro.store.pagetable import (
    IN_BUFFER,
    IN_FLIGHT,
    IN_RELOCATION,
    NEVER_WRITTEN,
    PageTable,
)
from repro.store.segments import FREE, OPEN, SEALED, SegmentTable
from repro.store.stats import StoreStats
from repro.testkit.failpoints import FAILPOINTS, failpoint

#: Stream id used by policies that send relocated (GC) pages to their own
#: open segment, separate from user writes.
GC_STREAM = -1

#: Batch chunk for the sequential load (one workload batch's worth).
_LOAD_CHUNK = 1 << 14

#: Most writes one run attempt looks at (a buffered attempt gathers
#: table state for its whole window, a direct one for everything it
#: planned, however few writes either ends up taking).
_RUN_WINDOW = 1 << 12


def _stream_runs(streams: np.ndarray):
    """Yield ``(start, stop)`` bounds of maximal constant-stream runs."""
    changes = np.flatnonzero(streams[1:] != streams[:-1]) + 1
    edges = [0, *changes.tolist(), streams.size]
    return zip(edges, edges[1:])


class CleanCursor:
    """Resumable state of one (possibly incremental) cleaning cycle.

    Everything decision-shaped is pinned at
    :meth:`LogStructuredStore.clean_begin` — the victim set, the staged
    page list, and the policy's GC placement order — so a preemption
    point can never change *what* the cycle does, only *when*.  ``pos``
    is the explicit resume cursor into the staged placement order: a
    cycle interrupted mid-victim resumes at the exact page where it
    stopped, and resuming is idempotent (already-processed positions are
    never revisited).
    """

    __slots__ = (
        "victims",
        "pending",
        "streams",
        "sizes",
        "pos",
        "reclaimed_units",
        "emptiness",
        "relocated",
        "skipped",
    )

    def __init__(
        self,
        victims: List[int],
        pending: np.ndarray,
        streams: Optional[np.ndarray],
        sizes: np.ndarray,
        reclaimed_units: int,
        emptiness: np.ndarray,
    ) -> None:
        #: Victim segment ids in selection order (already freed).
        self.victims = victims
        #: Staged page ids in the policy's placement order.
        self.pending = pending
        #: Per-position GC stream ids (None = everything to GC_STREAM).
        self.streams = streams
        #: Staged sizes, captured at begin (a staged page's table size
        #: may be overwritten by a foreground write before its turn).
        self.sizes = sizes
        #: Next placement position to process.
        self.pos = 0
        #: Victims' empty units, the cycle's net space gain.
        self.reclaimed_units = reclaimed_units
        #: Per-victim emptiness fractions (for the on_clean hook).
        self.emptiness = emptiness
        #: Pages actually re-emitted so far (== gc_writes contributed).
        self.relocated = 0
        #: Staged copies dropped because a foreground write or trim
        #: obsoleted them between steps.
        self.skipped = 0

    @property
    def remaining(self) -> int:
        """Staged positions not yet processed."""
        return int(self.pending.size - self.pos)


class LogStructuredStore:
    """A simulated log-structured store with a pluggable cleaning policy.

    Args:
        config: Device geometry and cleaning parameters.
        policy: A cleaning policy (see :mod:`repro.policies`).  The store
            calls ``policy.bind(store)`` immediately.

    Example:
        >>> from repro.store import LogStructuredStore, StoreConfig
        >>> from repro.policies import make_policy
        >>> cfg = StoreConfig(n_segments=64, segment_units=32, fill_factor=0.5)
        >>> store = LogStructuredStore(cfg, make_policy("greedy"))
        >>> store.load_sequential(cfg.user_pages)
        >>> for page in range(100):
        ...     store.write(page % cfg.user_pages)
        >>> store.stats.user_writes >= 100
        True
    """

    def __init__(self, config: StoreConfig, policy) -> None:
        self.config = config
        self.segments = SegmentTable(config.n_segments, config.segment_units)
        self.pages = PageTable()
        self.stats = StoreStats()
        self.clock = 0
        #: FIFO free pool.  Order does not affect cleaning economics,
        #: but first-in-first-out rotation spreads erases evenly across
        #: segments (real FTLs do this for wear leveling); a LIFO stack
        #: would park a trigger's worth of segments forever.
        self.free_list = deque(range(config.n_segments))
        #: stream id -> currently open segment.  Invariant: every segment
        #: in this mapping has state OPEN.
        self.open_segments = {}
        self.policy = policy
        #: Attached :class:`~repro.obs.observer.StoreObserver`, or None.
        #: Hooks fire only at per-segment sites (seal / flush / clean),
        #: so the disabled cost is one attribute test per such site.
        self.obs = None
        self._cleaning = False
        #: Active incremental cleaning cycle, or None (see clean_begin).
        self._clean_cursor: Optional[CleanCursor] = None
        #: Fallback "coldish" up2 for first-writes placed outside a sorted
        #: batch (Section 5.2.2, "First Write").
        self._cold_up2 = 0.0
        #: Cached ascending array of sealed segment ids, rebuilt lazily
        #: when a seal or a clean invalidated it.
        self._sealed_cache = np.empty(0, dtype=np.int64)
        self._sealed_dirty = True
        if config.sort_buffer_segments > 0 and policy.uses_sort_buffer:
            self.buffer: Optional[SortBuffer] = SortBuffer(
                config.sort_buffer_segments * config.segment_units
            )
        else:
            self.buffer = None
        policy.bind(self)

    # ------------------------------------------------------------------
    # Public write API
    # ------------------------------------------------------------------

    def write(self, page_id: int, size: int = 1) -> None:
        """Apply one user update to ``page_id`` — the run engine's
        boundary step and the differential suites' reference (see the
        module docstring); bulk callers use :meth:`write_batch`.

        The previous version (if any) is invalidated, the update clock
        ticks, and the new version is placed either in the sorting buffer
        or directly into an open segment via the policy's routing.
        Raises :class:`PageSizeError` / :class:`PageIdError` (before any
        state changes) for a size outside ``[1, segment_units]`` or a
        negative page id.
        """
        if size < 1 or size > self.config.segment_units:
            raise PageSizeError(
                "page size %d outside [1, %d]" % (size, self.config.segment_units)
            )
        if page_id < 0:
            raise PageIdError("negative page id %d" % page_id)
        pages = self.pages
        if page_id >= len(pages.seg):
            pages.ensure(page_id)
        self.clock += 1
        self.stats.user_writes += 1

        old_seg = pages.seg[page_id]
        if old_seg >= 0:
            self._invalidate(page_id, old_seg)
            # The old slot is dead from this moment; cleaning can run
            # before the new version lands (buffer flush or direct emit),
            # so the stale pointer must not advertise the page as live.
            pages.seg[page_id] = IN_FLIGHT
        elif old_seg == IN_BUFFER:
            # Midpoint rule applied to the page's own carried estimate.
            carried = pages.carried_up2[page_id]
            if carried == carried:  # not NaN
                pages.carried_up2[page_id] = carried + 0.5 * (self.clock - carried)
        elif old_seg == IN_RELOCATION:
            # The page was staged by a mid-flight incremental cleaning
            # cycle; this write obsoletes the staged copy.  Clear the
            # sentinel *before* anything below can run cleaning (a
            # buffer flush or an allocation drains the cursor), so the
            # cleaner skips the stale copy instead of re-emitting it
            # after this newer version has landed.
            pages.seg[page_id] = IN_FLIGHT

        buffer = self.buffer
        if buffer is not None:
            if old_seg == IN_BUFFER:
                buffer.replace(page_id, size)
            else:
                if not buffer.fits(size):
                    self.flush()
                buffer.add(page_id, size)
                pages.seg[page_id] = IN_BUFFER
            pages.size[page_id] = size
        else:
            pages.size[page_id] = size
            if not (pages.carried_up2[page_id] == pages.carried_up2[page_id]):
                pages.carried_up2[page_id] = self._cold_up2
            self._emit(page_id, self.policy.route_user(page_id), is_gc=False)
        pages.last_write[page_id] = self.clock

    def write_batch(
        self,
        page_ids: Sequence[int],
        sizes: Optional[Sequence[int]] = None,
    ) -> None:
        """Apply a batch of user updates — equivalent to calling
        :meth:`write` once per element, but vectorized.

        The batch is consumed as runs: what the sorting buffer takes
        without flushing, or (direct placement) what fits the open
        segment and the fresh segments the free pool lets the run roll
        into without cleaning.  A page id may repeat inside a run: the
        repeat rewrites the version its previous occurrence just placed
        (a slot of a segment the run fills, or the still-buffered page).
        Each run's invalidation, placement, and statistics bookkeeping
        is applied with array operations that replay the exact scalar
        update order, so batch and scalar execution produce
        byte-identical state (the testkit's
        :func:`~repro.testkit.trace.state_digest` is the oracle for
        this).  The one write at a flush or at a roll that cleans — and
        whole batches for policies whose routing is inherently per-page
        (multi-log) — go through the scalar path.
        """
        pids = np.ascontiguousarray(page_ids, dtype=np.int64)
        if pids.ndim != 1:
            raise ValueError("page_ids must be one-dimensional")
        size_arr: Optional[np.ndarray] = None
        if sizes is not None:
            size_arr = np.ascontiguousarray(sizes, dtype=np.int64)
            if size_arr.shape != pids.shape:
                raise ValueError("sizes must be parallel to page_ids")
        n = pids.size
        if n == 0:
            return
        if pids.min() < 0 or (
            size_arr is not None
            and (
                size_arr.min() < 1
                or size_arr.max() > self.config.segment_units
            )
        ):
            # An invalid id or size must fail exactly where the scalar
            # loop would: after the preceding valid writes were applied.
            self._write_scalar_span(pids, size_arr, 0, n)
            return
        self.pages.ensure(int(pids.max()))

        direct = self.buffer is None
        spans = [(0, n)]
        if direct:
            routes = self.policy.route_user_batch(pids)
            if routes is None:
                # Routing depends on per-write state; the scalar path is
                # the only faithful execution.
                self._write_scalar_span(pids, size_arr, 0, n)
                return
            routes = np.ascontiguousarray(routes, dtype=np.int64)
            if routes.shape != pids.shape:
                raise ValueError("route_user_batch returned a bad shape")
            spans = _stream_runs(routes)
            # One size prefix sum for the batch: every run plans its
            # first-fit segment bounds against it.
            if size_arr is None:
                size_arr = np.ones(n, dtype=np.int64)
            cum = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(size_arr, out=cum[1:])

        # Both run engines take repeated page ids in their stride (the
        # repeat's old version is the one its previous occurrence in the
        # run placed), so runs break only at stream changes, where the
        # buffer must flush, and where a segment roll must clean.
        prev = _prev_occurrence(pids)
        for start, stop in spans:
            while start < stop:
                limit = min(stop, start + _RUN_WINDOW)
                if direct:
                    took = self._write_run_direct(
                        pids, size_arr, cum, prev, start, limit, int(routes[start])
                    )
                else:
                    took = self._write_run_buffered(
                        pids[start:limit],
                        None if size_arr is None else size_arr[start:limit],
                        prev[start:limit] - start,
                    )
                if took == 0:
                    # Boundary write: the next write flushes, or rolls
                    # into a cleaning cycle; the scalar path handles
                    # those transitions.
                    self._write_scalar_span(pids, size_arr, start, start + 1)
                    took = 1
                start += took

    def _write_scalar_span(
        self,
        pids: np.ndarray,
        size_arr: Optional[np.ndarray],
        start: int,
        stop: int,
    ) -> None:
        """Feed ``pids[start:stop]`` through the scalar write path."""
        for i in range(start, stop):
            self.write(int(pids[i]), 1 if size_arr is None else int(size_arr[i]))

    def load_sequential(self, n_pages: int, sizes: Optional[Sequence[int]] = None) -> None:
        """Write pages ``0 .. n_pages-1`` once each (the initial fill).

        These count as user writes; benchmarks exclude the load phase by
        measuring write amplification over a post-warm-up window.
        """
        ids = np.arange(n_pages, dtype=np.int64)
        size_arr = None if sizes is None else np.asarray(sizes, dtype=np.int64)
        for start in range(0, n_pages, _LOAD_CHUNK):
            chunk = ids[start:start + _LOAD_CHUNK]
            self.write_batch(
                chunk,
                None if size_arr is None else size_arr[start:start + _LOAD_CHUNK],
            )

    def trim(self, page_id: int) -> bool:
        """Discard a page's current version without writing a new one
        (an SSD TRIM / a key-value delete).

        Frees the page's space for the cleaner immediately.  Counts as
        an update event on the containing segment — a delete is activity
        — and ticks the clock.  Returns False when the page holds no
        current version; a negative id raises :class:`PageIdError`.
        """
        if page_id < 0:
            raise PageIdError("negative page id %d" % page_id)
        pages = self.pages
        if page_id >= len(pages.seg):
            return False
        old_seg = pages.seg[page_id]
        if old_seg == NEVER_WRITTEN:
            return False
        self.clock += 1
        self.stats.trims += 1
        if old_seg >= 0:
            self._invalidate(page_id, old_seg)
        elif old_seg == IN_BUFFER:
            self.buffer.remove(page_id)
        # An IN_RELOCATION page needs neither: its victim slot is gone
        # and the staged copy lives in cleaner memory — clearing the
        # sentinel below is what makes the cleaner drop it.
        pages.seg[page_id] = NEVER_WRITTEN
        return True

    def flush(self) -> None:
        """Drain the sorting buffer into segments, sorted by the policy's
        user sort key (MDC sorts by carried ``up2``; Section 5.3)."""
        buffer = self.buffer
        if buffer is None or len(buffer) == 0:
            return
        failpoint("store.flush.pre_drain", buffered=len(buffer))
        arr = np.asarray(buffer.drain(), dtype=np.int64)
        obs = self.obs
        if obs is not None:
            obs.on_flush(arr.size)
        tracer = obs.tracer if obs is not None else None
        # The drain is the one user write that allocates several
        # segments: inline cleaning under it hangs off this span, so
        # "why did the flush stall" reads "it drained".
        span = (
            tracer.start("store.flush", clock=self.clock, pages=int(arr.size))
            if tracer is not None
            else None
        )
        try:
            self._resolve_first_writes(arr)
            policy = self.policy
            keys = policy.user_sort_key(arr)
            if keys is not None:
                # Ascending by key, ties broken by page id.
                arr = arr[np.lexsort((arr, keys))]
            routes = policy.route_user_batch(arr)
            if routes is None:
                # Per-write routing reads the state each write leaves
                # behind; a drained, re-sorted batch no longer has it.
                raise StoreError(
                    "policy %s takes the sorting buffer but routes per write"
                    % getattr(policy, "name", "?")
                )
            routes = np.ascontiguousarray(routes, dtype=np.int64)
            for start, stop in _stream_runs(routes):
                self._emit_run(arr[start:stop], int(routes[start]), is_gc=False)
        except OutOfSpaceError:
            # The device refused part of the drain: what was not emitted
            # (still IN_BUFFER in the page table) goes back, in emission
            # order, so the pages stay trimmable and rewritable and the
            # next flush retries them.
            pages = self.pages
            left = arr[pages.seg[arr] == IN_BUFFER]
            for pid, size in zip(left.tolist(), pages.size[left].tolist()):
                buffer.add(pid, size)
            raise
        finally:
            if span is not None:
                tracer.finish(span)

    def set_oracle_frequencies(self, freqs: Sequence[float]) -> None:
        """Install exact per-page update frequencies for the ``-opt``
        policy variants (the paper's "exact page update frequency").

        Must be called before any page covered by ``freqs`` is written,
        so segment ``freq_sum`` accounting stays consistent; to change a
        frequency mid-run use :meth:`set_page_frequency`.
        """
        pages = self.pages
        pages.ensure(len(freqs) - 1)
        pages.oracle_freq[: len(freqs)] = np.asarray(freqs, dtype=np.float64)
        pages.oracle_active = True

    def set_page_frequency(self, page_id: int, freq: float) -> None:
        """Change one page's oracle frequency mid-run.

        Supports *dynamic* oracles — the paper's closing observation
        that "knowledge of workload may make it possible to better
        predict update frequency changes" (Section 8.2).  If the page is
        currently live in a segment, that segment's frequency sum is
        adjusted so MDC-opt's victim ranking stays consistent.
        """
        pages = self.pages
        if page_id >= len(pages.seg):
            pages.ensure(page_id)
        old = pages.oracle_freq[page_id]
        seg = pages.seg[page_id]
        if seg >= 0:
            self.segments.freq_sum[seg] += freq - old
            self.segments.epoch[seg] += 1
        pages.oracle_freq[page_id] = freq
        pages.oracle_active = True

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    @property
    def free_segment_count(self) -> int:
        """Segments currently in the free pool."""
        return len(self.free_list)

    def sealed_segments(self) -> np.ndarray:
        """Ids of all sealed (cleanable) segments, ascending.

        Cached between cleaning cycles: seals and cleans mark the cache
        dirty, so steady-state cycles skip the full state scan.  The
        returned array is the cache itself — treat it as read-only.
        """
        if self._sealed_dirty:
            self._sealed_cache = np.flatnonzero(self.segments.state == SEALED)
            self._sealed_dirty = False
        return self._sealed_cache

    def live_units_now(self) -> int:
        """Units of current versions, wherever they sit: in a segment,
        in the sorting buffer, or staged by the active cleaning cycle
        (in cleaner memory rather than a segment, but current)."""
        live = int(self.segments.live_units.sum())
        if self.buffer is not None:
            live += self.buffer.used_units
        if self._clean_cursor is not None:
            live += self.relocating_units()
        return live

    def fill_factor_now(self) -> float:
        """Current fraction of device units holding live data
        (:meth:`live_units_now` over the device)."""
        return self.live_units_now() / self.config.device_units

    @property
    def clean_pending(self) -> int:
        """Staged pages the active incremental cycle has not processed
        yet (0 when no cycle is mid-flight)."""
        cur = self._clean_cursor
        return 0 if cur is None else cur.remaining

    @property
    def clean_cursor(self) -> Optional[CleanCursor]:
        """The active incremental cycle's cursor, or None."""
        return self._clean_cursor

    def relocating_units(self) -> int:
        """Units staged by the active incremental cycle whose current
        versions still await relocation (they live in cleaner memory,
        outside every segment and the sorting buffer)."""
        cur = self._clean_cursor
        if cur is None or cur.pos >= cur.pending.size:
            return 0
        rem = cur.pending[cur.pos :]
        still = self.pages.seg[rem] == IN_RELOCATION
        return int(cur.sizes[cur.pos :][still].sum())

    def relocating_dead_units(self) -> int:
        """Units of staged copies already obsoleted by foreground writes
        or trims but not yet skip-credited (their step hasn't reached
        them); these will fold into ``cleaned_emptiness_sum``."""
        cur = self._clean_cursor
        if cur is None or cur.pos >= cur.pending.size:
            return 0
        rem = cur.pending[cur.pos :]
        dead = self.pages.seg[rem] != IN_RELOCATION
        return int(cur.sizes[cur.pos :][dead].sum())

    def live_page_count(self) -> int:
        """Pages holding a current version anywhere (device or buffer)."""
        return int(np.count_nonzero(self.pages.seg != NEVER_WRITTEN))

    def wear_summary(self) -> dict:
        """Per-segment erase (reclaim) statistics — flash wear, in the
        SSD framing.  ``cv`` is the coefficient of variation: 0 means
        perfectly even wear."""
        counts = self.segments.erase_count
        n = counts.size
        total = int(counts.sum())
        mean = total / n
        if mean > 0.0:
            diffs = counts - mean
            cv = float(np.sqrt((diffs * diffs).mean()) / mean)
        else:
            cv = 0.0
        return {
            "total_erases": total,
            "mean": mean,
            "max": int(counts.max()),
            "min": int(counts.min()),
            "cv": cv,
        }

    # ------------------------------------------------------------------
    # Internals: invalidation, placement, sealing, allocation
    # ------------------------------------------------------------------

    def _invalidate(self, page_id: int, seg: int) -> None:
        """The current version of ``page_id`` in ``seg`` became obsolete."""
        segs = self.segments
        pages = self.pages
        segs.live_count[seg] -= 1
        segs.live_units[seg] -= pages.size[page_id]
        segs.freq_sum[seg] -= pages.oracle_freq[page_id]
        # Carry the page's update history forward (Section 5.2.2,
        # "Non-first Write"): prior up1 assumed midway between now and the
        # containing segment's up2, and it becomes the page's new up2.
        seg_up2 = segs.up2[seg]
        pages.carried_up2[page_id] = seg_up2 + 0.5 * (self.clock - seg_up2)
        # Advance the segment's last-two-updates pair (Section 4.3).
        segs.up2[seg] = segs.up1[seg]
        segs.up1[seg] = self.clock
        segs.epoch[seg] += 1

    def _resolve_first_writes(self, pids: Sequence[int]) -> None:
        """Give never-before-written pages a "coldish" up2: the oldest up2
        in the batch being processed (Section 5.2.2, "First Write")."""
        carried = self.pages.carried_up2
        arr = np.asarray(pids, dtype=np.int64)
        vals = carried[arr]
        nan = np.isnan(vals)
        known = vals[~nan]
        cold = float(known.min()) if known.size else self._cold_up2
        self._cold_up2 = cold
        if nan.any():
            carried[arr[nan]] = cold

    def _open_segment_for(self, stream: int, size: int, is_gc: bool) -> int:
        """The open segment of ``stream`` with room for ``size`` more
        units — the one segment roll every emission goes through: seal
        the stream's segment if it is full, give a user write its
        cleaning opportunity, then open a fresh segment.

        Sealing removes the stream's map entry *before* any cleaning can
        run: cleaning relocates pages through this same method and (for
        policies whose GC shares streams with user writes) may re-open
        the very stream being emitted to, so the open segment is
        re-fetched after the cleaning opportunity instead of being
        allocated eagerly — otherwise the recursion's segment would be
        orphaned in the OPEN state.  GC emission never cleans
        recursively, so its roll is a plain seal + allocate.
        """
        segs = self.segments
        may_clean = not is_gc and not self._cleaning
        while True:
            seg = self.open_segments.get(stream)
            if seg is not None:
                if segs.used_units[seg] + size <= segs.capacity:
                    return seg
                self._seal(seg)
                del self.open_segments[stream]
            if not may_clean:
                break
            self._clean_until_replenished()
            may_clean = False
        seg = self._allocate()
        self.open_segments[stream] = seg
        segs.stream[seg] = stream
        self.policy.on_segment_open(seg, stream)
        return seg

    def _emit(self, page_id: int, stream: int, is_gc: bool) -> None:
        """Append ``page_id`` to the open segment of ``stream``, rolling
        the segment first when the page does not fit."""
        segs = self.segments
        pages = self.pages
        size = int(pages.size[page_id])
        seg = self._open_segment_for(stream, size, is_gc)
        slot = segs.append_slot(seg, page_id, size)
        pages.seg[page_id] = seg
        pages.slot[page_id] = slot
        segs.live_count[seg] += 1
        segs.live_units[seg] += size
        segs.used_units[seg] += size
        segs.up2_sum[seg] += pages.carried_up2[page_id]
        segs.freq_sum[seg] += pages.oracle_freq[page_id]
        if is_gc:
            self.stats.gc_writes += 1
        else:
            self.stats.user_device_writes += 1

    # ------------------------------------------------------------------
    # Internals: the vectorized run engine
    # ------------------------------------------------------------------

    def _invalidate_run(
        self,
        run: np.ndarray,
        old_seg: np.ndarray,
        old_size: np.ndarray,
        clocks: np.ndarray,
        subtract_freq: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Vectorized :meth:`_invalidate` for a run of writes.

        Writes of the run that hit the same segment are grouped; within
        a group the scalar path's rolling ``(up1, up2)`` advance means
        write ``k`` (0-based) carries the midpoint against the segment's
        original ``up2`` (k=0), original ``up1`` (k=1), or the clock of
        the write two places earlier (k>=2) — computed here with a
        shift-by-two inside each group.  A page id may occur more than
        once (the direct path's in-run rewrites) — the per-page table
        scatter happens in run position order so the last occurrence
        wins, exactly as the scalar sequence would leave it.

        Returns ``(on_dev, carried)``: the on-device mask and the
        per-position carried values of the on-device subset (``None``
        when nothing was on the device).

        ``subtract_freq`` skips the ``freq_sum`` subtraction so the
        direct path can interleave it with the emission's addition (the
        scalar order alternates subtract/add per page on possibly the
        same segment, and float addition does not commute).
        """
        segs = self.segments
        pages = self.pages
        on_dev = old_seg >= 0
        if on_dev.all():
            # Steady state: every page already lives on the device.
            iseg = old_seg
            iclk = clocks
            inv_pids = run
            inv_sizes = old_size
        elif not on_dev.any():
            return on_dev, None
        else:
            ip = np.flatnonzero(on_dev)
            iseg = old_seg[ip]
            iclk = clocks[ip]
            inv_pids = run[ip]
            inv_sizes = old_size[ip]
        if iseg.size == 1 or np.bincount(iseg).max() == 1:
            # Every write hits a different segment (the common case when
            # runs are short relative to the device): every group is a
            # singleton, so the rolling (up1, up2) advance is one
            # elementwise step and the scatters need no conflict
            # resolution.
            sclk = iclk.astype(np.float64)
            base = segs.up2[iseg]
            carried = base + 0.5 * (sclk - base)
            pages.carried_up2[inv_pids] = carried
            segs.up2[iseg] = segs.up1[iseg]
            segs.up1[iseg] = sclk
            segs.live_count[iseg] -= 1
            segs.live_units[iseg] -= inv_sizes
            if subtract_freq:
                segs.freq_sum[iseg] = segs.freq_sum[iseg] + (
                    -pages.oracle_freq[inv_pids]
                )
            segs.epoch[iseg] += 1
            return on_dev, carried
        order = np.argsort(iseg, kind="stable")
        sseg = iseg[order]
        sclk = iclk[order].astype(np.float64)
        m = sseg.size
        newgrp = np.empty(m, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = sseg[1:] != sseg[:-1]
        gidx = np.arange(m)
        gstart = np.maximum.accumulate(np.where(newgrp, gidx, 0))
        rank = gidx - gstart
        base = np.empty(m, dtype=np.float64)
        first = rank == 0
        base[first] = segs.up2[sseg[first]]
        second = rank == 1
        if second.any():
            base[second] = segs.up1[sseg[second]]
        later = rank >= 2
        if later.any():
            base[later] = sclk[gidx[later] - 2]
        carried = np.empty(m, dtype=np.float64)
        carried[order] = base + 0.5 * (sclk - base)
        pages.carried_up2[inv_pids] = carried
        ends = np.flatnonzero(np.append(newgrp[1:], True))
        group_segs = sseg[ends]
        orig_up1 = segs.up1[group_segs]
        segs.up1[group_segs] = sclk[ends]
        single = rank[ends] == 0
        prev_clk = sclk[np.maximum(ends - 1, 0)]
        segs.up2[group_segs] = np.where(single, orig_up1, prev_clk)
        np.subtract.at(segs.live_count, iseg, 1)
        np.subtract.at(segs.live_units, iseg, inv_sizes)
        if subtract_freq:
            np.add.at(segs.freq_sum, iseg, -pages.oracle_freq[inv_pids])
        np.add.at(segs.epoch, iseg, 1)
        return on_dev, carried

    def _write_run_direct(
        self,
        pids: np.ndarray,
        sizes: np.ndarray,
        cum: np.ndarray,
        prev: np.ndarray,
        start: int,
        limit: int,
        stream: int,
    ) -> int:
        """Place a run of ``pids[start:limit]`` in the open segment of
        ``stream`` and the segments it rolls into; returns the number of
        writes consumed (0 when the next write must open the stream or
        roll into a cleaning cycle first — the scalar step's job).

        *The plan.*  With no cleaning cycle mid-flight, a user roll
        cleans nothing while the free pool is at or above
        :meth:`reactive_trigger`, so the run may roll ``len(free_list)
        - trigger + 1`` times (never under an active cursor: its first
        roll must drain it).  Destinations are the open segment, then
        the head of the FIFO free list in pop order; their first-fit
        bounds are one ``searchsorted`` each against ``cum``, the
        batch's size prefix sum.

        *The cut rule.*  The run's invalidations are applied up front,
        its rolls after, so the run ends before the first position whose
        old version lies in a destination the run has sealed by then: a
        page of the first open segment, or a repeat (``prev`` maps each
        position to the previous occurrence of its page id in the batch,
        negative for none) whose previous occurrence landed in an
        earlier destination, at any position after the one whose write
        seals that destination.  That position starts the next run,
        where its old segment is an ordinary sealed one.  Everything
        else commutes with the rolls: a seal reads only the sealed
        segment's own columns, which no later position writes, and a
        repeat inside a not-yet-allocated destination reads the zeros
        its reset left, as the scalar order would."""
        segs = self.segments
        pages = self.pages
        seg0 = self.open_segments.get(stream)
        if seg0 is None:
            return 0
        free = self.free_list
        rolls = (
            len(free) - self.reactive_trigger() + 1
            if self._clean_cursor is None
            else 0
        )
        room = int(segs.capacity - segs.used_units[seg0])
        dests = [seg0]
        bounds = [start]
        stop = start
        while True:
            stop = min(limit, int(cum.searchsorted(cum[stop] + room, "right")) - 1)
            bounds.append(stop)
            if stop == limit or len(dests) > rolls:
                break
            dests.append(free[len(dests) - 1])
            room = segs.capacity
        k = stop - start
        if k == 0:
            return 0
        run = pids[start:stop]
        sz = sizes[start:stop]
        counts = [b - a for a, b in zip(bounds, bounds[1:])]
        dst = np.repeat(dests, counts)
        old_seg = pages.seg[run]
        old_size = pages.size[run]
        prev_rel = prev[start:stop] - start
        dup = prev_rel >= 0
        back = prev_rel[dup]
        if back.size:
            # In-run rewrite: the page's current version is the one this
            # very run emits at its previous occurrence.
            old_seg[dup] = dst[back]
            old_size[dup] = sz[back]
        if len(dests) > 1:
            # sealed_at[i]: the position whose write seals the
            # destination holding position i's old version (k: none).
            first = np.asarray(bounds[1:]) - start
            sealed_at = np.where(old_seg == seg0, first[0], k)
            if back.size:
                sealed_at[dup] = np.repeat(first, counts)[back]
            cut = np.flatnonzero(np.arange(k) > sealed_at)
            if cut.size:
                k = int(cut[0])
                run, sz, dst = run[:k], sz[:k], dst[:k]
                old_seg, old_size = old_seg[:k], old_size[:k]

        clocks = self.clock + 1 + np.arange(k, dtype=np.int64)
        self.stats.user_writes += k
        # Per-position carried values must be gathered before the
        # invalidation scatters new ones (a later rewrite of the same
        # page must not leak its value into an earlier emission).
        carried = pages.carried_up2[run]
        # freq_sum subtraction deferred: it interleaves with the
        # emission's addition below to match the scalar order.
        on_dev, inv_carried = self._invalidate_run(
            run, old_seg, old_size, clocks, subtract_freq=False
        )
        if inv_carried is not None:
            if inv_carried.size == k:
                carried = inv_carried
            else:
                carried[on_dev] = inv_carried
        nan = np.isnan(carried)
        if nan.any():
            carried[nan] = self._cold_up2
        pages.carried_up2[run] = carried

        pages.size[run] = sz
        self._emit_run(run, stream, False, sz, carried, tick=1)
        if pages.oracle_active:
            # Scalar order per page: subtract from the old segment, add
            # to the new one.  Replayed as one in-order scatter stream.
            freqs = pages.oracle_freq[run]
            idx = np.empty(2 * k, dtype=np.int64)
            val = np.empty(2 * k, dtype=np.float64)
            idx[0::2] = np.where(on_dev, old_seg, 0)
            idx[1::2] = dst
            val[0::2] = -freqs
            val[1::2] = freqs
            keep = np.ones(2 * k, dtype=bool)
            keep[0::2] = on_dev
            np.add.at(segs.freq_sum, idx[keep], val[keep])
        pages.last_write[run] = clocks
        return k

    def _write_run_buffered(
        self,
        run: np.ndarray,
        run_sizes: Optional[np.ndarray],
        prev_rel: np.ndarray,
    ) -> int:
        """Absorb as many of ``run`` as the sorting buffer takes without
        flushing; returns the number of writes consumed (0 when the next
        write must flush first).

        ``prev_rel`` maps each position to the previous occurrence of
        its page id, relative to the run start (negative: none inside
        the run).  A repeated id rewrites the still-buffered version its
        previous occurrence added, so a run ends only where the buffer
        must flush."""
        buffer = self.buffer
        pages = self.pages
        k0 = run.size
        sz = (
            np.ones(k0, dtype=np.int64)
            if run_sizes is None
            else run_sizes
        )
        old_seg = pages.seg[run]
        old_size = pages.size[run]
        dup = prev_rel >= 0
        if dup.any():
            old_seg[dup] = IN_BUFFER
            old_size[dup] = sz[prev_rel[dup]]
        in_buf = old_seg == IN_BUFFER
        # A rewrite of a buffered page replaces in place (net size delta,
        # no capacity check — mirroring SortBuffer.replace); a new page
        # must fit or the run ends at it (the scalar path flushes there).
        delta = np.where(in_buf, sz - old_size, sz)
        used_before = buffer.used_units + np.concatenate(
            ([0], np.cumsum(delta)[:-1])
        )
        viol = np.flatnonzero(
            (~in_buf) & (used_before + sz > buffer.capacity_units)
        )
        k = int(viol[0]) if viol.size else k0
        if k == 0:
            return 0
        if k < k0:
            run = run[:k]
            old_seg = old_seg[:k]
            old_size = old_size[:k]
            in_buf = in_buf[:k]
            sz = sz[:k]
            delta = delta[:k]

        clock0 = self.clock
        clocks = clock0 + 1 + np.arange(k, dtype=np.int64)
        self.clock = clock0 + k
        self.stats.user_writes += k

        self._invalidate_run(
            run, old_seg, old_size, clocks,
            subtract_freq=pages.oracle_active,
        )
        bp = np.flatnonzero(in_buf)
        if bp.size:
            # Midpoint rule for rewrites of still-buffered pages, folded
            # per page in position order (a repeat compounds on its
            # previous occurrence's result); NaN first-write estimates
            # stay untouched.
            bpids = run[bp]
            pid_list = bpids.tolist()
            vals = dict(zip(pid_list, pages.carried_up2[bpids].tolist()))
            for pid, clk in zip(pid_list, clocks[bp].tolist()):
                carried = vals[pid]
                if carried == carried:  # not NaN
                    vals[pid] = carried + 0.5 * (clk - carried)
            pages.carried_up2[list(vals)] = list(vals.values())

        # dict.update keeps existing keys in place and appends new ones
        # in order — exactly SortBuffer.replace / SortBuffer.add.
        buffer._sizes.update(zip(run.tolist(), sz.tolist()))
        buffer.used_units += int(delta.sum())
        pages.seg[run] = IN_BUFFER
        pages.size[run] = sz
        pages.last_write[run] = clocks
        return k

    def _emit_run(
        self,
        pids: np.ndarray,
        stream: int,
        is_gc: bool,
        sizes: Optional[np.ndarray] = None,
        carried: Optional[np.ndarray] = None,
        tick: int = 0,
    ) -> None:
        """Emit pages to ``stream`` — the one roll/append loop: one
        array append per fitting prefix, one :meth:`_open_segment_for`
        roll between prefixes.

        GC and buffer-flush emission pass the pages alone: their sizes
        and carried estimates are final in the page table, and the pages
        are not touched by the rolls in between, so one up-front gather
        of the sizes stays valid for the whole run.  A user run
        (:meth:`_write_run_direct`) passes its own ``sizes`` and
        per-position ``carried`` (a page id may repeat, each occurrence
        with its own estimate) and ``tick=1``: the clock reads the
        rolling write's own tick at every roll, so seal times and the
        stall span's clock are the scalar ones, and ``freq_sum`` stays
        with the caller, which interleaves its additions with the
        invalidation's subtractions.
        """
        n = pids.size
        if n == 0:
            return
        segs = self.segments
        pages = self.pages
        if sizes is None:
            sizes = pages.size[pids]
        cum = np.empty(n + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(sizes, out=cum[1:])
        clock0 = self.clock
        i = 0
        while i < n:
            self.clock = clock0 + tick * (i + 1)
            seg = self._open_segment_for(stream, int(sizes[i]), is_gc)
            fit = segs.capacity - segs.used_units[seg]
            k = int(cum.searchsorted(cum[i] + fit, "right")) - 1 - i
            run = pids[i : i + k]
            self._append_run(
                seg,
                run,
                sizes[i : i + k],
                pages.carried_up2[run] if carried is None else carried[i : i + k],
                is_gc,
            )
            if pages.oracle_active and not tick:
                segs.freq_sum[seg] = _fold_add(
                    segs.freq_sum[seg], pages.oracle_freq[run]
                )
            i += k
        self.clock = clock0 + tick * n

    def _append_run(
        self,
        seg: int,
        pids: np.ndarray,
        sizes: np.ndarray,
        carried: np.ndarray,
        is_gc: bool,
    ) -> None:
        """Pure-append emission of a fitting run into an open segment —
        where every batched page, user or GC, lands.

        ``carried`` holds the per-position ``up2`` estimates (a page id
        may repeat in a user run, each occurrence with its own).  The
        segment's ``freq_sum`` is the caller's: the user engine
        interleaves its additions with the invalidation's subtractions.
        """
        segs = self.segments
        pages = self.pages
        k = pids.size
        slot0 = int(segs.slot_count[seg])
        segs.slot_page[seg, slot0 : slot0 + k] = pids
        segs.slot_size[seg, slot0 : slot0 + k] = sizes
        segs.slot_count[seg] = slot0 + k
        pages.seg[pids] = seg
        pages.slot[pids] = slot0 + np.arange(k)
        total = int(sizes.sum())
        segs.live_count[seg] += k
        segs.live_units[seg] += total
        segs.used_units[seg] += total
        segs.up2_sum[seg] = _fold_add(segs.up2_sum[seg], carried)
        if is_gc:
            self.stats.gc_writes += k
        else:
            self.stats.user_device_writes += k

    def _seal(self, seg: int) -> None:
        """Close a full segment: fix its seal time and initialize its
        update-history pair from the pages it received (Section 5.2.2,
        "Garbage Collection Writes")."""
        segs = self.segments
        segs.state[seg] = SEALED
        segs.seal_time[seg] = self.clock
        n_written = int(segs.slot_count[seg])
        up2 = segs.up2_sum[seg] / n_written
        # The clock only moves forward; an averaged estimate can still
        # exceed "now" only through float noise — clamp defensively.
        up2 = min(up2, float(self.clock))
        segs.up2[seg] = up2
        # up1 assumed midway between up2 and now, matching the paper's
        # midpoint assumption for unobserved last-update times.
        segs.up1[seg] = up2 + 0.5 * (self.clock - up2)
        segs.epoch[seg] += 1
        self._sealed_dirty = True
        obs = self.obs
        if obs is not None:
            obs.on_seal(seg)

    def reactive_trigger(self) -> int:
        """Free-pool level below which a user roll cleans inline: the
        one definition a run's plan, the roll and the cleaner read."""
        return max(self.config.clean_trigger, self.policy.min_free_target())

    def _clean_until_replenished(self) -> None:
        """Run cleaning cycles until the free pool recovers to the
        trigger.

        A single cycle nets only the victims' empty fraction, which for
        small batches (multi-log cleans one segment at a time) can be
        less than one segment, so the loop is required.  Cycles that
        reclaim no space at all are bounded so a degenerate policy fails
        fast instead of looping forever.
        """
        trigger = self.reactive_trigger()
        obs = self.obs
        gc_before = self.stats.gc_writes if obs is not None else 0
        tracer = obs.tracer if obs is not None else None
        span = (
            tracer.start("store.write_stall", clock=self.clock)
            if tracer is not None
            else None
        )
        try:
            if self._clean_cursor is not None:
                # Correctness backstop: a foreground allocation must never
                # overtake a mid-flight incremental cycle — the segments the
                # cycle freed at clean_begin are the headroom its own GC
                # emission relies on.  Drain it fully before cleaning more.
                self.clean_step(None)
            stalled = 0
            while len(self.free_list) < trigger:
                reclaimed_units = self.clean()
                if reclaimed_units == 0:
                    stalled += 1
                    if stalled > 2:
                        raise OutOfSpaceError(
                            "cleaning is not reclaiming space (policy=%s, free=%d)"
                            % (getattr(self.policy, "name", "?"), len(self.free_list))
                        )
                else:
                    stalled = 0
        finally:
            if span is not None:
                tracer.finish(span, pages=int(self.stats.gc_writes - gc_before))
        if obs is not None:
            stall = self.stats.gc_writes - gc_before
            if stall:
                # Everything relocated inside this call happened inline
                # in a foreground write — the stall the incremental
                # cleaner exists to bound.
                obs.on_write_stall(stall)

    def _allocate(self) -> int:
        """Pop a free segment and mark it open."""
        if not self.free_list:
            raise OutOfSpaceError(
                "no free segments (fill factor too high or policy reclaimed nothing)"
            )
        seg = self.free_list.popleft()
        self.segments.state[seg] = OPEN
        return seg

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------

    def clean(self, n_victims: Optional[int] = None) -> int:
        """Run one full cleaning cycle; returns the units of space
        reclaimed (the victims' total available space).

        Victims are chosen by the policy; their live pages are staged,
        the victims freed, and the pages relocated through the policy's
        GC placement (which sorts / routes them by update frequency for
        the separating policies).  Implemented as :meth:`clean_begin`
        plus one unbounded :meth:`clean_step`, so the batch and
        incremental paths share every line of the cycle.  A leftover
        incremental cycle is drained first — the batch entry point
        never overlaps two cycles.
        """
        if self._clean_cursor is not None:
            self.clean_step(None)
        cursor = self.clean_begin(n_victims)
        self.clean_step(None)
        return cursor.reclaimed_units

    def clean_begin(self, n_victims: Optional[int] = None) -> CleanCursor:
        """Start a cleaning cycle and pin every decision it will make.

        Selects and validates the victims, records the cycle's
        statistics, stages the victims' live pages (marking them
        ``IN_RELOCATION``), computes the policy's GC placement order,
        and frees the victims — but relocates nothing.  The returned
        :class:`CleanCursor` (also held by the store) is driven by
        :meth:`clean_step`; ``clean_begin`` followed by one unbounded
        step is byte-identical to the historical batch ``clean()``.

        Raises :class:`StoreError` if a cycle is already mid-flight
        (drain it with ``clean_step(None)`` first) and
        :class:`OutOfSpaceError` if there is nothing to clean.
        """
        if self._clean_cursor is not None:
            raise StoreError(
                "an incremental cleaning cycle is already active "
                "(%d pages pending)" % self._clean_cursor.remaining
            )
        segs = self.segments
        pages = self.pages
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        span = (
            tracer.start("store.clean_begin", clock=self.clock)
            if tracer is not None
            else None
        )
        self._cleaning = True
        try:
            candidates = self.sealed_segments()
            if candidates.size == 0:
                raise OutOfSpaceError("nothing to clean: no sealed segments")
            victims = self.policy.select_victims(candidates, n_victims)
            if not victims:
                raise OutOfSpaceError("policy selected no victims")
            stats = self.stats
            v_arr = np.asarray(victims, dtype=np.int64)
            not_sealed = segs.state[v_arr] != SEALED
            if not_sealed.any():
                victim = int(v_arr[np.argmax(not_sealed)])
                raise OutOfSpaceError(
                    "policy selected non-sealed victim %d (%s)"
                    % (victim, segs.state_name(victim))
                )
            # Plain ints from here on, whatever the policy's list held.
            victims = v_arr.tolist()
            if obs is not None:
                # The decision record needs the victims' ranking columns,
                # which segs.reset() below wipes — capture them now.
                obs.on_victims(candidates, v_arr)
            stats.segments_cleaned += len(victims)
            avail = segs.capacity - segs.live_units[v_arr]
            emptiness = avail / float(segs.capacity)
            stats.cleaned_emptiness_sum = _fold_add(
                stats.cleaned_emptiness_sum, emptiness
            )
            # Victims in selection order, slots in slot order — the
            # relocation order the scalar path produces.
            moved_arr, src_arr = segs.live_slots(v_arr, pages)
            # GC'd pages carry their source segment's up2
            # (Section 5.2.2, "Garbage Collection Writes").
            if moved_arr.size:
                pages.carried_up2[moved_arr] = segs.up2[src_arr]
            if FAILPOINTS.active:
                failpoint(
                    "store.clean.pre_relocate",
                    victims=victims,
                    moved=moved_arr.tolist(),
                )
            # The placement order is pinned here, against the policy
            # state of this instant — preemption points between the
            # coming steps cannot change it.
            p_arr, s_arr = self.policy.place_gc_batch(moved_arr, src_arr)
            segs.reset(v_arr)
            self.free_list.extend(victims)
            self._sealed_dirty = True
            sizes = pages.size[p_arr]
            if p_arr.size:
                pages.seg[p_arr] = IN_RELOCATION
            cursor = CleanCursor(
                victims=victims,
                pending=p_arr,
                streams=s_arr,
                sizes=sizes,
                reclaimed_units=int(avail.sum()),
                emptiness=emptiness,
            )
            self._clean_cursor = cursor
            if span is not None:
                span.attrs["victims"] = len(victims)
                span.attrs["staged_pages"] = int(p_arr.size)
            return cursor
        finally:
            self._cleaning = False
            if span is not None:
                tracer.finish(span)

    def clean_step(self, max_pages: Optional[int] = None) -> int:
        """Relocate up to ``max_pages`` staged pages of the active cycle
        (all of them when None); returns the pages actually re-emitted.

        Completing the last position closes the cycle — ``clean_cycles``
        and the ``on_clean`` hook fire exactly as the batch path's would.
        Staged pages whose current version moved on (a foreground write
        or trim between steps) are skipped, and their space is credited
        to ``cleaned_emptiness_sum``: the copy became garbage before its
        move, so counting it as reclaimed-empty keeps the exact
        Equation 2 identity ``gc_writes == B * (segments_cleaned -
        cleaned_emptiness_sum)`` intact.  Returns 0 when no cycle is
        active.
        """
        cur = self._clean_cursor
        if cur is None:
            return 0
        if cur.pos >= cur.pending.size:
            # Nothing was staged (all-empty victims): close immediately.
            self._finish_clean(cur)
            return 0
        budget = cur.remaining if max_pages is None else int(max_pages)
        if budget <= 0:
            return 0
        pages = self.pages
        segs = self.segments
        n = cur.pending.size
        relocated = 0
        skipped_before = cur.skipped
        obs_t = self.obs
        tracer = obs_t.tracer if obs_t is not None else None
        span = (
            tracer.start("store.clean_step", clock=self.clock, budget=int(budget))
            if tracer is not None
            else None
        )
        self._cleaning = True
        try:
            if FAILPOINTS.active:
                failpoint(
                    "store.clean.step",
                    pos=cur.pos,
                    remaining=cur.remaining,
                    budget=budget,
                )
            while cur.pos < n and relocated < budget:
                start = cur.pos
                if cur.streams is None:
                    stream = GC_STREAM
                    stop = n
                else:
                    stream = int(cur.streams[start])
                    later = np.flatnonzero(cur.streams[start:] != stream)
                    stop = start + int(later[0]) if later.size else n
                stop = min(stop, start + (budget - relocated))
                chunk = cur.pending[start:stop]
                still = pages.seg[chunk] == IN_RELOCATION
                if still.all():
                    live_chunk = chunk
                else:
                    live_chunk = chunk[still]
                    dead_sizes = cur.sizes[start:stop][~still]
                    self.stats.cleaned_emptiness_sum = _fold_add(
                        self.stats.cleaned_emptiness_sum,
                        dead_sizes / float(segs.capacity),
                    )
                    cur.skipped += int(dead_sizes.size)
                if live_chunk.size:
                    self._emit_run(live_chunk, stream, is_gc=True)
                    relocated += int(live_chunk.size)
                cur.pos = stop
            cur.relocated += relocated
        finally:
            self._cleaning = False
            if span is not None:
                tracer.finish(
                    span,
                    relocated=int(relocated),
                    skipped=int(cur.skipped - skipped_before),
                    remaining=int(cur.remaining),
                )
        obs = self.obs
        if obs is not None:
            obs.on_clean_step(
                relocated, cur.skipped - skipped_before, cur.remaining
            )
        if cur.pos >= n:
            self._finish_clean(cur)
        return relocated

    def _finish_clean(self, cur: CleanCursor) -> None:
        """Close a drained cycle: counters, hook, cursor teardown."""
        self.stats.clean_cycles += 1
        self._clean_cursor = None
        obs = self.obs
        if obs is not None:
            obs.on_clean(
                cur.victims,
                cur.relocated,
                cur.reclaimed_units,
                cur.emptiness,
            )

    # ------------------------------------------------------------------
    # Invariant checking (used by tests; cheap enough for debugging runs)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency; raises AssertionError on breakage.

        Checked invariants:
        * every segment is in exactly one of free list / open map / sealed;
        * per-segment live counts and unit accounting match slot liveness;
        * every live page-table entry points at a matching slot;
        * total live units never exceed device capacity.
        """
        segs = self.segments
        pages = self.pages
        n = len(segs)
        free = set(self.free_list)
        assert len(free) == len(self.free_list), "duplicate segments in free list"
        open_now = set(self.open_segments.values())
        for stream, seg in self.open_segments.items():
            assert segs.stream[seg] == stream, (
                "open segment %d tagged with stream %d, mapped to %d"
                % (seg, segs.stream[seg], stream)
            )
        for s in range(n):
            st = segs.state[s]
            if s in free:
                assert st == FREE, segs.describe(s)
            elif s in open_now:
                assert st == OPEN, segs.describe(s)
            else:
                assert st == SEALED or st == FREE, segs.describe(s)
            live = pages.live_pages_of(segs, s)
            assert segs.live_count[s] == len(live), segs.describe(s)
            live_units = sum(pages.size[p] for p in live)
            assert segs.live_units[s] == live_units, segs.describe(s)
            freq_sum = sum(pages.oracle_freq[p] for p in live)
            assert abs(segs.freq_sum[s] - freq_sum) < 1e-6 * max(1.0, freq_sum), (
                segs.describe(s)
            )
            assert segs.used_units[s] <= segs.capacity, segs.describe(s)
            assert segs.live_units[s] <= segs.used_units[s], segs.describe(s)
        total_live = int(segs.live_units.sum())
        assert total_live <= self.config.device_units
        cur = self._clean_cursor
        staged = (
            set() if cur is None else set(cur.pending[cur.pos :].tolist())
        )
        for pid in range(len(pages.seg)):
            seg = pages.seg[pid]
            if seg >= 0:
                slot = pages.slot[pid]
                assert (
                    slot < segs.slot_count[seg]
                    and segs.slot_page[seg, slot] == pid
                ), "page %d points at slot that holds another page" % pid
            elif seg == IN_BUFFER:
                assert self.buffer is not None and pid in self.buffer
            elif seg == IN_RELOCATION:
                assert pid in staged, (
                    "page %d staged IN_RELOCATION but not pending in the "
                    "active cycle" % pid
                )

    def __repr__(self) -> str:
        return (
            "<LogStructuredStore segs=%d free=%d clock=%d user_writes=%d "
            "gc_writes=%d policy=%s>"
            % (
                self.config.n_segments,
                len(self.free_list),
                self.clock,
                self.stats.user_writes,
                self.stats.gc_writes,
                getattr(self.policy, "name", type(self.policy).__name__),
            )
        )


def segments_needed(units: int, segment_units: int) -> int:
    """Number of whole segments needed to hold ``units`` of data."""
    return int(math.ceil(units / segment_units))
