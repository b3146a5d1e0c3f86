"""The cleaning cycle: begin, step, finish, and the inline replenish loop.

When a user roll finds the free pool below
:meth:`~repro.store.LogStructuredStore.reactive_trigger` the store
cleans a batch of victims chosen by the policy: their live pages are
staged in memory, the source segments are freed, and the pages are
re-written through the policy's GC placement hook.  Staging in memory
means relocation never deadlocks on free space — a batch with any empty
space makes net progress.  Each relocated page counts toward
``gc_writes`` (the numerator of write amplification).

A direct write's roll runs cycles of ``clean_batch`` victims that each
net at least one segment.  A Section 5.3 buffer drain cleans once: the
roll that stalls runs one cycle sized to the rest of the drain, whose
victims reclaim ``trigger + (rolls still needed - 1)`` free segments'
worth, so the drain's later rolls clean nothing.  The drain does not
move the clock, so the one ranking reads the priorities per-roll cycles
would each have read (only the segments sealed between them could
differ), and its victims are relocated under one GC sort.

The cycle is also exposed *incrementally*: :meth:`CleaningCycle.clean_begin`
pins the victim decision, stages the live pages, and frees the victims,
and :meth:`CleaningCycle.clean_step` relocates a bounded number of pages
at a time through an explicit resume cursor (:class:`CleanCursor`), so
foreground writes can interleave between steps.  ``clean()`` is
``clean_begin`` plus a single unbounded ``clean_step`` — the two paths
share every line of the cycle, and a full drain is byte-identical to
the historical batch cycle (the differential suite locks this down with
state digests).  Staged pages carry the ``IN_RELOCATION`` page-table
sentinel; a foreground write or trim landing on one clears the
sentinel, and the cleaner skips the now-obsolete staged copy when its
step resumes, crediting the skipped space to ``cleaned_emptiness_sum``
so the paper's exact Equation 2 identity keeps holding under arbitrary
preemption schedules.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.store.errors import OutOfSpaceError, StoreError
from repro.store.kernels import fold_add as _fold_add
from repro.store.pagetable import IN_RELOCATION
from repro.store.segments import SEALED
from repro.testkit.failpoints import FAILPOINTS, failpoint

#: Stream id used by policies that send relocated (GC) pages to their own
#: open segment, separate from user writes.
GC_STREAM = -1


class CleanCursor:
    """Resumable state of one (possibly incremental) cleaning cycle.

    Everything decision-shaped is pinned at
    :meth:`CleaningCycle.clean_begin` — the victim set, the staged
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


class CleaningCycle:
    """The cleaning cycle of :class:`~repro.store.LogStructuredStore`,
    which inherits it; the store's constructor makes the state it works
    on."""

    def clean(self, n_victims: Optional[int] = None, deficit: int = 0) -> int:
        """Run one full cleaning cycle; returns the units of space
        reclaimed (the victims' total available space).

        Victims are chosen by the policy (``n_victims`` and ``deficit``
        go to :meth:`~repro.policies.base.CleaningPolicy.select_victims`:
        the batch reclaims at least ``max(1, deficit)`` segments' worth
        of units); their live pages are staged,
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
        cursor = self.clean_begin(n_victims, deficit)
        self.clean_step(None)
        return cursor.reclaimed_units

    def clean_begin(
        self,
        n_victims: Optional[int] = None,
        deficit: int = 0,
        page_cap: Optional[int] = None,
    ) -> CleanCursor:
        """Start a cleaning cycle and pin every decision it will make.

        Selects the victims (``n_victims``, ``deficit`` and ``page_cap``
        go to :meth:`~repro.policies.base.CleaningPolicy.select_victims`;
        the incremental cleaner passes its step's remaining budget as
        ``page_cap``) and validates them, records the cycle's
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
        self._cleaning = True
        try:
            candidates = self.sealed_segments()
            if candidates.size == 0:
                raise OutOfSpaceError("nothing to clean: no sealed segments")
            victims = self.policy.select_victims(
                candidates, n_victims, deficit, page_cap=page_cap
            )
            if not victims:
                raise OutOfSpaceError("policy selected no victims")
            stats = self.stats
            v_arr = np.asarray(victims, dtype=np.int64)
            not_sealed = segs.state[v_arr] != SEALED
            if np.count_nonzero(not_sealed):
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
            return cursor
        finally:
            self._cleaning = False

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
                if np.count_nonzero(still) == still.size:
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

    def _clean_until_replenished(self, extra: Optional[int] = None) -> None:
        """A user roll's cleaning opportunity: drain an active cursor,
        then run cleaning cycles until the free pool recovers to the
        trigger.  A roll that finds neither returns at once.

        ``extra`` comes from a buffer drain: the rolls it still needs
        after this one.  Each cycle then asks the policy for enough
        victims to restore ``trigger + extra`` free segments, so the
        rest of the drain rolls without cleaning.  Without it (direct
        writes, the scalar path) a cycle nets one segment.

        A single cycle nets only the victims' empty fraction, which for
        small batches (multi-log cleans one segment at a time) can be
        less than one segment, so the loop is required.  It fails fast
        instead of looping forever after three cycles in a row that
        reclaim nothing (a degenerate policy), or a device's worth of
        cycles that never raise the free room (free segments plus what
        the open ones still take) past its best: pages too large to
        pack, whose relocation wastes what the victims had free.
        """
        trigger = self.reactive_trigger()
        if self._clean_cursor is None and len(self.free_list) >= trigger:
            return
        obs = self.obs
        gc_before = self.stats.gc_writes if obs is not None else 0
        if self._clean_cursor is not None:
            # Correctness backstop: a foreground allocation must never
            # overtake a mid-flight incremental cycle — the segments the
            # cycle freed at clean_begin are the headroom its own GC
            # emission relies on.  Drain it fully before cleaning more.
            self.clean_step(None)
        stalled, futile, best = 0, 0, -1
        cap, used = self.segments.capacity, self.segments.used_units
        while len(self.free_list) < trigger:
            room = len(self.free_list) * cap + sum(
                cap - int(used[seg]) for seg in self.open_segments.values()
            )
            best, futile = (room, 0) if room > best else (best, futile + 1)
            deficit = 0 if extra is None else trigger + extra - len(self.free_list)
            stalled = stalled + 1 if self.clean(deficit=deficit) == 0 else 0
            if stalled > 2 or futile > len(used):
                raise OutOfSpaceError(
                    "cleaning is not reclaiming space (policy=%s, free=%d)"
                    % (getattr(self.policy, "name", "?"), len(self.free_list))
                )
        if obs is not None:
            stall = self.stats.gc_writes - gc_before
            if stall:
                # Everything relocated inside this call happened inline
                # in a foreground write — the stall the incremental
                # cleaner exists to bound.
                obs.on_write_stall(stall)
