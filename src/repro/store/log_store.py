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

The scalar :meth:`LogStructuredStore.write` remains as exactly two
things.  It is the step the one run engine (:mod:`repro.store.write_path`)
leaves for the one write whose roll cleans (or drains an active cursor),
that flushes the buffer, or that opens a stream's first segment (and
for every write of a policy whose routing is per write — multi-log's
``route_user``); and it is the reference the differential suites
compare the engine against, one branch per bookkeeping rule.

:class:`LogStructuredStore` is assembled from three modules: this one
holds its state, its public write API, its accessors and
:meth:`~LogStructuredStore.check_invariants`;
:mod:`repro.store.write_path` the run engine, its one planner and the
emission; :mod:`repro.store.cycle` the cleaning cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.store.buffer import SortBuffer
from repro.store.config import StoreConfig
# Re-exported: callers import GC_STREAM and CleanCursor from here too.
from repro.store.cycle import GC_STREAM, CleanCursor, CleaningCycle  # noqa: F401
from repro.store.errors import (
    OutOfSpaceError,
    PageIdError,
    PageSizeError,
    StoreError,
)
from repro.store.kernels import order_by as _order_by
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
from repro.store.write_path import WritePath, _stream_runs
from repro.testkit.failpoints import failpoint

#: Batch chunk for the sequential load (one workload batch's worth).
_LOAD_CHUNK = 1 << 14

#: The least unsigned value of a negative int64 (two's complement).
_NEGATIVE = 1 << 63

#: Most writes one run attempt looks at (it gathers table state for
#: everything it planned, however few writes it ends up taking).
_RUN_WINDOW = 1 << 12


class LogStructuredStore(WritePath, CleaningCycle):
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
                config.sort_buffer_segments * config.segment_units, self.pages
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

        The batch is consumed as runs (:meth:`_write_run`): what the
        sorting buffer takes without flushing, or (direct placement)
        what fits the open segment and the fresh segments the free pool
        lets the run roll into without cleaning.  A page id may repeat
        inside a run: the repeat rewrites the version its previous
        occurrence just placed (a slot of a segment the run fills, or
        the still-buffered page).
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
        # A negative id reads at least 2**63 as an unsigned value, so the
        # ids' one unsigned maximum is both their range check and the
        # page table's new high-water mark.
        top = int(pids.view(np.uint64).max())
        if top >= _NEGATIVE or (
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
        self.pages.ensure(top)

        if size_arr is None:
            size_arr = np.ones(n, dtype=np.int64)
        spans = [(0, n, None)]
        cum = None
        if self.buffer is None:
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
            # One size prefix sum for the batch: every direct run plans
            # its first-fit segment bounds against it.
            cum = np.zeros(n + 1, dtype=np.int64)
            size_arr.cumsum(out=cum[1:])

        # The run engine takes repeated page ids in its stride (the
        # repeat's old version is the one its previous occurrence in the
        # run placed), so runs break only at stream changes, where the
        # buffer must flush, and where a segment roll must clean.
        prev = _prev_occurrence(pids)
        for start, stop, stream in spans:
            while start < stop:
                limit = min(stop, start + _RUN_WINDOW)
                took = self._write_run(pids, size_arr, cum, prev, start, limit, stream)
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
        arr = buffer.drain()
        obs = self.obs
        if obs is not None:
            obs.on_flush(arr.size)
        try:
            self._resolve_first_writes(arr)
            policy = self.policy
            keys = policy.user_sort_key(arr)
            if keys is not None:
                # Ascending by key, ties broken by page id.
                arr = arr[_order_by(np.asarray(keys), arr)]
            routes = policy.route_user_batch(arr)
            if routes is None:
                # Per-write routing reads the state each write leaves
                # behind; a drained, re-sorted batch no longer has it.
                raise StoreError(
                    "policy %s takes the sorting buffer but routes per write"
                    % getattr(policy, "name", "?")
                )
            routes = np.ascontiguousarray(routes, dtype=np.int64)
            for start, stop, stream in _stream_runs(routes):
                self._emit_run(arr[start:stop], stream, is_gc=False)
        except OutOfSpaceError:
            # The device refused part of the drain: what was not emitted
            # (still IN_BUFFER in the page table) goes back, in emission
            # order, so the pages stay trimmable and rewritable and the
            # next flush retries them.
            left = arr[self.pages.seg[arr] == IN_BUFFER]
            buffer.add_run(left, int(self.pages.size[left].sum()))
            raise

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

    def reactive_trigger(self) -> int:
        """Free-pool level below which a user roll cleans inline: the
        one definition a run's plan, the roll and the cleaner read."""
        return max(self.config.clean_trigger, self.policy.min_free_target())

    # ------------------------------------------------------------------
    # Internals: scalar bookkeeping
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

    # ------------------------------------------------------------------
    # Invariant checking (used by tests; cheap enough for debugging runs)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency; raises AssertionError on breakage.

        Checked invariants:
        * every segment is in exactly one of free list / open map / sealed;
        * per-segment live counts and unit accounting match slot liveness;
        * every live page-table entry points at a matching slot;
        * total live units never exceed device capacity;
        * the buffer's order lists each ``IN_BUFFER`` page once, and its
          occupancy is their units (it may exceed its capacity: a rewrite
          that grows a buffered page is not capacity-checked).
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
            elif seg == IN_RELOCATION:
                assert pid in staged, (
                    "page %d staged IN_RELOCATION but not pending in the "
                    "active cycle" % pid
                )
        buffered = np.flatnonzero(pages.seg == IN_BUFFER)
        buf = self.buffer
        order = np.empty(0, dtype=np.int64) if buf is None else buf.order()
        assert np.array_equal(np.sort(order), buffered), (
            "buffer order %r is not the IN_BUFFER pages %r" % (order, buffered)
        )
        if buf is not None:
            assert len(buf) == order.size, "buffer count %d" % len(buf)
            units = int(pages.size[buffered].sum())
            assert buf.used_units == units, "buffer units %d" % buf.used_units

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
