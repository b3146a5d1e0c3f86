"""The write path: the run engine every user and GC page goes through.

:meth:`~repro.store.LogStructuredStore.write_batch` is the engine every
caller drives (the simulator, and ``kv.write_slots``, which
``kv.put_many`` and the service's ingest queue call): it splits a batch
into *runs*, each applied by the one run engine,
:meth:`WritePath._write_run`, with numpy fancy indexing — one gather,
one invalidation, one carried-``up2`` resolution per run.  A run takes
repeated page ids in its stride (a repeat rewrites the version its
previous occurrence in the run just placed) and ends only where the
engine must stop:

* with a sorting buffer, where the buffer must flush;
* without one (a *direct* run), where a roll would clean: the run
  *rolls*, filling the open segment and then as many fresh segments as
  the free pool allows before the next cleaning opportunity that would
  actually clean — the rolls :meth:`WritePath._free_rolls` counts,
  ``len(free_list) - trigger + 1``, none while a cleaning cycle is
  mid-flight — with each seal at the rolling write's own tick.  Because
  a run's invalidations are applied before its rolls, it is cut before
  the first position whose old version lies in a segment the run has
  sealed by then (the *cut rule*); that position starts the next run.

A buffer drain and a GC relocation go through
:meth:`WritePath._emit_run`, which emits in *stretches*: a roll that may
clean goes through the scalar roll in :meth:`WritePath._open_segment_for`
(seal-if-full, a user write's cleaning opportunity, allocate), and every
roll after it that cleans nothing — each GC roll, each drain roll the
free pool covers — is one stretch.  One planner,
:meth:`WritePath._plan`, gives a direct run and every stretch its
destinations (the open segment, then the head of the FIFO free list)
and their first-fit bounds (:func:`_first_fit`), and
:meth:`WritePath._append_stretch` applies that plan in one step (a slice
per segment for a short stretch, one scatter per column and a row-wise
``up2_sum`` fold for a long one), with the seals at their roll clocks.
The policy is asked for arrays only: ``route_user_batch`` /
``user_sort_key`` for placement, ``place_gc_batch`` for relocation,
``rank_columns`` for victims.

The engine is bit-identical to the scalar
:meth:`~repro.store.LogStructuredStore.write`: every float accumulation
replays the scalar update order (``np.add.at`` and ``np.cumsum`` are
sequential left-to-right folds), which the differential suites lock
down by comparing full state digests.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

import numpy as np

from repro.store.errors import OutOfSpaceError
from repro.store.kernels import fold_add as _fold_add
from repro.store.kernels import fold_midpoints as _fold_midpoints
from repro.store.kernels import fold_rows as _fold_rows
from repro.store.kernels import stable_order as _stable_order
from repro.store.pagetable import IN_BUFFER
from repro.store.segments import OPEN, SEALED

#: First occurrences a buffered attempt reads past the buffer's free units.
_RUN_SLACK = 64

#: Most destinations a planned stretch fills one slice at a time; past
#: it, one scatter per column for the whole stretch is cheaper.  Timed
#: per stretch, one destination costs ~18 us as a slice and ~50 us as
#: scatters, each further one ~18 us and ~10 us (seal and open
#: included), so the two meet at about four; a small ``clean_step``
#: has one or two destinations, a drain's GC relocation ten or more.
_STRETCH_LOOP_MAX = 4


def _stream_runs(streams: np.ndarray):
    """Yield ``(start, stop, stream)`` of maximal constant-stream runs."""
    changes = (streams[1:] != streams[:-1]).nonzero()[0] + 1
    edges = [0, *changes.tolist(), streams.size]
    return zip(edges, edges[1:], streams[edges[:-1]].tolist())


def _first_fit(
    cum: np.ndarray, start: int, stop: int, room: int, capacity: int, rolls: int
) -> List[int]:
    """First-fit bounds of positions ``start .. stop``: the first
    destination has ``room`` units left, each of at most ``rolls``
    fresh ones after it ``capacity``; ``cum`` is the sizes' prefix sum.
    Destination ``j`` takes ``[bounds[j], bounds[j + 1])``; the last
    bound falls short of ``stop`` when the rolls run out first.

    Unit sizes (every page of a one-unit workload) need no search: the
    bounds are ``start + room``, then one every ``capacity``."""
    units = cum[stop] - cum[start]
    if units <= room:
        return [start, stop]
    if units == stop - start:
        fills = range(start + room, stop, capacity)[: max(rolls, 0) + 1]
        return [start, *fills] if len(fills) > rolls else [start, *fills, stop]
    bounds = [start]
    pos = start
    while True:
        pos = min(stop, int(cum.searchsorted(cum[pos] + room, "right")) - 1)
        bounds.append(pos)
        if pos == stop or len(bounds) > rolls + 1:
            return bounds
        room = capacity


class WritePath:
    """The write path of :class:`~repro.store.LogStructuredStore`, which
    inherits it; the store's constructor makes the state it works on."""

    def _invalidate_run(
        self,
        run: np.ndarray,
        old_seg: np.ndarray,
        old_size: np.ndarray,
        clocks: np.ndarray,
        subtract_freq: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Vectorized :meth:`_invalidate` for a run of writes.

        One path for every run.  The on-device writes are stably sorted
        by segment, so each segment's writes form one group, in run
        order.  The scalar path's rolling ``(up1, up2)`` advance gives a
        group's first write the midpoint against the segment's ``up2``,
        its second against the segment's ``up1``, and each later one
        against the clock of the write two places before it.  One
        compare of neighbouring sorted segments drives two shifted
        copies: ``after[j]``, the segment's ``up2`` once sorted write
        ``j`` is applied, is the clock before it in its group (the old
        ``up1`` for a group's first write), and a write's base is the
        ``after`` of the write before it in its group (the old ``up2``
        for a group's first write).  After its group a segment's ``up1``
        is the group's last clock and its ``up2`` that write's
        ``after``; both are stored at group ends only (numpy orders no
        stores through repeated indices).  A page id may occur more than
        once (a direct run's in-run rewrites) — the per-page table
        scatter happens in run position order so the last occurrence
        wins, exactly as the scalar sequence would leave it.

        Returns ``(on_dev, carried)``: the on-device mask and the
        per-position carried values of the on-device subset (``None``
        when nothing was on the device).

        ``subtract_freq`` skips the ``freq_sum`` subtraction so the
        direct run can interleave it with the emission's addition (the
        scalar order alternates subtract/add per page on possibly the
        same segment, and float addition does not commute).
        """
        segs = self.segments
        pages = self.pages
        on_dev = old_seg >= 0
        m = np.count_nonzero(on_dev)
        if m == 0:
            return on_dev, None
        if m == on_dev.size:
            # Steady state: every page already lives on the device.
            iseg, iclk, inv_pids, inv_sizes = old_seg, clocks, run, old_size
        else:
            ip = on_dev.nonzero()[0]
            iseg = old_seg[ip]
            iclk = clocks[ip]
            inv_pids = run[ip]
            inv_sizes = old_size[ip]
        order = _stable_order(iseg)
        sseg = iseg[order]
        sclk = iclk[order].astype(np.float64)
        # last[j]: sorted write j is its group's last; same[j]: write
        # j + 1 follows write j in its group.
        last = np.ones(m, dtype=bool)
        np.not_equal(sseg[1:], sseg[:-1], out=last[:-1])
        same = ~last[:-1]
        # after[j]: the segment's up2 once sorted write j is applied.
        after = segs.up1[sseg]
        np.copyto(after[1:], sclk[:-1], where=same)
        base = segs.up2[sseg]
        np.copyto(base[1:], after[:-1], where=same)
        carried = np.empty(m, dtype=np.float64)
        carried[order] = base + 0.5 * (sclk - base)
        pages.carried_up2[inv_pids] = carried
        ends = last.nonzero()[0]
        group_segs = sseg[ends]
        segs.up1[group_segs] = sclk[ends]
        segs.up2[group_segs] = after[ends]
        np.subtract.at(segs.live_count, iseg, 1)
        np.subtract.at(segs.live_units, iseg, inv_sizes)
        if subtract_freq:
            np.add.at(segs.freq_sum, iseg, -pages.oracle_freq[inv_pids])
        np.add.at(segs.epoch, iseg, 1)
        return on_dev, carried

    def _write_run(
        self,
        pids: np.ndarray,
        sizes: np.ndarray,
        cum: Optional[np.ndarray],
        prev: np.ndarray,
        start: int,
        limit: int,
        stream: Optional[int],
    ) -> int:
        """Apply a run of ``pids[start:limit]``; returns the number of
        writes consumed (0 when the next write must flush, open the
        stream or roll into a cleaning cycle first — the scalar step's
        job).  ``prev`` maps each position to the previous occurrence of
        its page id in the batch (negative: none).

        *Plan.*  With a sorting buffer, the run is what the buffer takes
        without flushing: each new page (a first occurrence) takes a
        free unit, so the attempt reads no further than ``_RUN_SLACK``
        first occurrences past the free units.  Without one, the run
        fills ``stream``'s open segment and the rolls the free pool
        covers (:meth:`_free_rolls`), as :meth:`_plan` lays them out
        against ``cum``, the batch's size prefix sum; that plan, cut at
        the rule below, is what :meth:`_append_stretch` applies.

        *Gather.*  One gather of the old versions.  A repeat rewrites
        the version its previous occurrence in the run placed: still
        buffered, or in that occurrence's planned destination.

        *Cut.*  A buffered run ends at the first new page that does not
        fit (a rewrite of a buffered page replaces in place: net size
        delta, no capacity check, as in the scalar write).  A direct
        run's invalidations are applied up front, its rolls after, so
        the run ends before the first position whose old version lies in
        a destination the run has sealed by then: a page of the first
        open segment, or a repeat whose previous occurrence landed in an
        earlier destination, at any position after the one whose write
        seals that destination.  That position starts the next run,
        where its old segment is an ordinary sealed one.  Everything
        else commutes with the rolls: a seal reads only the sealed
        segment's own columns, which no later position writes, and a
        repeat inside a not-yet-allocated destination reads the zeros
        its reset left, as the scalar order would.

        *Apply.*  Clock, statistics, invalidation, sizes and
        ``last_write`` are shared; a buffered run folds the midpoint
        rule into its rewrites and adds its new pages to the buffer, a
        direct run resolves its carried estimates and appends its plan."""
        pages = self.pages
        buffer = self.buffer
        if buffer is not None:
            free = buffer.capacity_units - buffer.used_units
            if sizes[start] > free and pages.seg[pids[start]] != IN_BUFFER:
                # The first write is a new page the buffer cannot take.
                return 0
            room = max(0, free) + _RUN_SLACK
            if limit - start > room:
                first = (prev[start:limit] < start).nonzero()[0]
                if first.size > room:
                    limit = start + int(first[room])
            k = limit - start
        else:
            seg0 = self.open_segments.get(stream)
            if seg0 is None:
                return 0
            # The plan, in positions relative to the run.
            cum = cum[start:]
            bounds, dests = self._plan(seg0, cum, 0, limit - start, self._free_rolls())
            k = bounds[-1]
            if k == 0:
                return 0
            counts = [b - a for a, b in zip(bounds, bounds[1:])]
            dst = np.asarray(dests, dtype=np.int64).repeat(counts)
        run = pids[start : start + k]
        sz = sizes[start : start + k]
        old_seg = pages.seg[run]
        old_size = pages.size[run]
        prev_rel = prev[start : start + k] - start
        dup = (prev_rel >= 0).nonzero()[0]
        if dup.size:
            # In-run rewrite: the page's current version is the one this
            # very run placed at its previous occurrence.
            back = prev_rel[dup]
            old_seg[dup] = IN_BUFFER if buffer is not None else dst[back]
            old_size[dup] = sz[back]
        cut = None
        if buffer is not None:
            in_buf = old_seg == IN_BUFFER
            new = ~in_buf
            # units[i]: the buffer's growth through position i.
            units = np.where(in_buf, sz - old_size, sz).cumsum()
            cut = ((units > free) & new).nonzero()[0]
        elif len(dests) > 1:
            # sealed_at[i]: the position whose write seals the
            # destination holding position i's old version (k: none).
            first = np.asarray(bounds[1:])
            sealed_at = np.where(old_seg == seg0, first[0], k)
            if dup.size:
                sealed_at[dup] = first.repeat(counts)[back]
            cut = (np.arange(k) > sealed_at).nonzero()[0]
        if cut is not None and cut.size:
            k = int(cut[0])
            run, sz, old_seg, old_size = run[:k], sz[:k], old_seg[:k], old_size[:k]

        clock0 = self.clock
        clocks = np.arange(clock0 + 1, clock0 + 1 + k, dtype=np.int64)
        self.stats.user_writes += k
        if buffer is None:
            # Per-position carried values must be gathered before the
            # invalidation scatters new ones (a later rewrite of the
            # same page must not leak its value into an earlier emission).
            carried = pages.carried_up2[run]
        # A direct run defers the freq_sum subtraction: it interleaves
        # with the emission's addition below to match the scalar order.
        on_dev, inv_carried = self._invalidate_run(
            run, old_seg, old_size, clocks,
            subtract_freq=buffer is not None and pages.oracle_active,
        )
        pages.size[run] = sz
        if buffer is not None:
            rewrites = in_buf[:k].nonzero()[0]
            if rewrites.size:
                # Midpoint rule for rewrites of still-buffered pages.
                _fold_midpoints(
                    pages.carried_up2, run[rewrites], clocks[rewrites],
                    distinct=not dup.size,
                )
            # A rewrite keeps its place; the new pages (first occurrences,
            # so distinct) join the buffer in arrival order.
            buffer.add_run(run[new[:k]], int(units[k - 1]))
            pages.seg[run] = IN_BUFFER
        else:
            if inv_carried is not None:
                if inv_carried.size == k:
                    carried = inv_carried
                else:
                    carried[on_dev] = inv_carried
            nan = np.isnan(carried)
            if nan.any():
                carried[nan] = self._cold_up2
            pages.carried_up2[run] = carried
            # The plan cut at k: the destinations that fill before position k.
            bounds = [b for b in bounds if b < k] + [k]
            self._append_stretch(
                stream, bounds, dests[: len(bounds) - 1], cum, run, sz, carried,
                None, is_gc=False, tick=1,
            )
            if pages.oracle_active:
                # Scalar order per page: subtract from the old segment, add
                # to the new one.  Replayed as one in-order scatter stream.
                freqs = pages.oracle_freq[run]
                idx = np.empty(2 * k, dtype=np.int64)
                val = np.empty(2 * k, dtype=np.float64)
                idx[0::2] = np.where(on_dev, old_seg, 0)
                idx[1::2] = dst[:k]
                val[0::2] = -freqs
                val[1::2] = freqs
                keep = np.ones(2 * k, dtype=bool)
                keep[0::2] = on_dev
                np.add.at(self.segments.freq_sum, idx[keep], val[keep])
        self.clock = clock0 + k
        pages.last_write[run] = clocks
        return k

    def _plan(
        self, seg: int, cum: np.ndarray, start: int, stop: int, rolls: int
    ) -> Tuple[List[int], List[int]]:
        """The one first-fit planner, for a direct run and every stretch
        of :meth:`_emit_run`: positions ``start .. stop`` over the open
        segment ``seg``, then at most ``rolls`` fresh segments, the head
        of the FIFO free list in the order the rolls pop it.  Returns
        ``(bounds, dests)``: ``dests[j]`` takes ``[bounds[j],
        bounds[j + 1])`` (:func:`_first_fit`; ``seg`` may take none)."""
        cap = self.segments.capacity
        room = cap - int(self.segments.used_units[seg])
        bounds = _first_fit(cum, start, stop, room, cap, rolls)
        return bounds, [seg, *itertools.islice(self.free_list, len(bounds) - 2)]

    def _emit_run(self, pids: np.ndarray, stream: int, is_gc: bool) -> None:
        """Emit a buffer drain's or a GC relocation's pages to ``stream``
        in *stretches*: one roll through :meth:`_open_segment_for` (the
        only roll that may clean), then every roll after it that cleans
        nothing, planned (:meth:`_plan`) and applied as one array step
        (:meth:`_append_stretch`).  A GC roll never cleans, so GC
        emission is one stretch unless the free pool runs dry; a drain's
        stretch takes the rolls the pool covers (:meth:`_free_rolls`).
        The pages' sizes and carried estimates are final in the page
        table and the clock does not move, so one up-front gather stays
        valid for the whole run.  A drain tells a stalling roll how many
        rolls it still needs (see :meth:`_clean_until_replenished`).
        """
        n = pids.size
        if n == 0:
            return
        segs = self.segments
        pages = self.pages
        sizes = pages.size[pids]
        carried = pages.carried_up2[pids]
        freqs = pages.oracle_freq[pids] if pages.oracle_active else None
        cum = np.empty(n + 1, dtype=np.int64)
        cum[0] = 0
        sizes.cumsum(out=cum[1:])
        cap = segs.capacity
        may_clean = not is_gc and not self._cleaning
        i = 0
        while i < n:
            seg = self.open_segments.get(stream)
            if seg is None or segs.used_units[seg] + sizes[i] > cap:
                extra = None
                if may_clean and len(self.free_list) < self.reactive_trigger():
                    # Rolls the rest needs over fresh segments, less this one.
                    extra = len(_first_fit(cum, i, n, cap, cap, n)) - 2
                seg = self._open_segment_for(stream, int(sizes[i]), is_gc, extra)
            rolls = self._free_rolls() if may_clean else len(self.free_list)
            bounds, dests = self._plan(seg, cum, i, n, rolls)
            self._append_stretch(
                stream, bounds, dests, cum, pids, sizes, carried, freqs, is_gc
            )
            i = bounds[-1]

    def _free_rolls(self) -> int:
        """Rolls a user write makes before one that may clean: while the
        free pool is at or above :meth:`reactive_trigger` a roll cleans
        nothing, so ``len(free_list) - trigger + 1`` of them; none while
        a cleaning cycle is mid-flight (the first roll must drain it)."""
        if self._clean_cursor is not None:
            return 0
        return len(self.free_list) - self.reactive_trigger() + 1

    def _append_stretch(
        self,
        stream: int,
        bounds: List[int],
        dests: List[int],
        cum: np.ndarray,
        pids: np.ndarray,
        sizes: np.ndarray,
        carried: np.ndarray,
        freqs: Optional[np.ndarray],
        is_gc: bool,
        tick: int = 0,
    ) -> None:
        """Apply one planned stretch — where every batched page, user or
        GC, lands: a direct run's whole plan, or one stretch of
        :meth:`_emit_run`.

        ``bounds`` and ``dests`` are a plan of :meth:`_plan`: the open
        segment (which may take none), then one fresh segment per roll,
        in the order :meth:`_open_fresh` pops them.  Up to
        ``_STRETCH_LOOP_MAX`` destinations fill one slice each; a longer
        stretch fills slot logs, page table and counters in one scatter
        each and ``up2_sum`` (and, when ``freqs`` is given,
        ``freq_sum``) in one row-wise left-to-right fold.  Each roll
        then seals its predecessor and opens its segment, as the
        one-segment-at-a-time roll would.  A direct run passes
        ``tick=1``: a roll seals at the rolling write's own tick, counted
        from the clock at the call (a drain or a relocation moves no
        clock).  ``carried`` holds the per-position ``up2`` estimates (a
        page id may repeat in a user run, each occurrence with its own).
        """
        segs = self.segments
        pages = self.pages
        lo, hi = bounds[0], bounds[-1]
        if len(dests) <= _STRETCH_LOOP_MAX:
            # A few destinations (a small clean_step): one slice each.
            for dest, a, b in zip(dests, bounds, bounds[1:]):
                run = pids[a:b]
                slot0 = int(segs.slot_count[dest])
                segs.slot_page[dest, slot0 : slot0 + b - a] = run
                segs.slot_size[dest, slot0 : slot0 + b - a] = sizes[a:b]
                segs.slot_count[dest] = slot0 + b - a
                pages.seg[run] = dest
                pages.slot[run] = np.arange(slot0, slot0 + b - a)
                units = int(cum[b] - cum[a])
                segs.live_count[dest] += b - a
                segs.live_units[dest] += units
                segs.used_units[dest] += units
                segs.up2_sum[dest] = _fold_add(segs.up2_sum[dest], carried[a:b])
                if freqs is not None:
                    segs.freq_sum[dest] = _fold_add(segs.freq_sum[dest], freqs[a:b])
        else:
            run = pids[lo:hi]
            d = np.asarray(dests, dtype=np.int64)
            b = np.asarray(bounds, dtype=np.int64)
            counts = b[1:] - b[:-1]
            slot0 = segs.slot_count[d]
            dst = d.repeat(counts)
            slots = np.arange(lo, hi) - (b[:-1] - slot0).repeat(counts)
            segs.slot_page[dst, slots] = run
            segs.slot_size[dst, slots] = sizes[lo:hi]
            segs.slot_count[d] = slot0 + counts
            pages.seg[run] = dst
            pages.slot[run] = slots
            units = cum[b[1:]] - cum[b[:-1]]
            segs.live_count[d] += counts
            segs.live_units[d] += units
            segs.used_units[d] += units
            segs.up2_sum[d] = _fold_rows(segs.up2_sum[d], carried[lo:hi], counts)
            if freqs is not None:
                segs.freq_sum[d] = _fold_rows(segs.freq_sum[d], freqs[lo:hi], counts)
        clock0 = self.clock
        for j in range(1, len(dests)):
            self.clock = clock0 + tick * (bounds[j] + 1)
            self._seal(dests[j - 1])
            self._open_fresh(stream)
        k = hi - lo
        if is_gc:
            self.stats.gc_writes += k
        else:
            self.stats.user_device_writes += k

    def _open_segment_for(
        self, stream: int, size: int, is_gc: bool, extra: Optional[int] = None
    ) -> int:
        """The open segment of ``stream`` with room for ``size`` more
        units — the scalar segment roll: seal the stream's segment if it
        is full, give a user write its cleaning opportunity, then open a
        fresh segment.  ``extra`` is a buffer drain's count of rolls
        still to come (see :meth:`_clean_until_replenished`).

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
            self._clean_until_replenished(extra)
            may_clean = False
        return self._open_fresh(stream)

    def _open_fresh(self, stream: int) -> int:
        """Pop the free list's head and open it as ``stream``'s segment:
        the one place a segment opens, for the scalar roll and a
        planned stretch alike."""
        if not self.free_list:
            raise OutOfSpaceError(
                "no free segments (fill factor too high or policy reclaimed nothing)"
            )
        seg = self.free_list.popleft()
        self.segments.state[seg] = OPEN
        self.segments.stream[seg] = stream
        self.open_segments[stream] = seg
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
