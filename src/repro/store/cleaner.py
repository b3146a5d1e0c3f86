"""Preemptible incremental cleaning with a latency SLO.

The paper's cleaner reclaims space in whole victim batches, so a
foreground write that trips the free-pool trigger stalls behind an
entire cycle — every live page of every victim relocated inline.  The
:class:`IncrementalCleaner` converts that single blocking operation into
a scheduler: cleaning advances in *steps* that relocate at most
``pages_per_step`` pages, so foreground work interleaves with
reclamation at page granularity instead of cycle granularity.

The engine is a thin scheduling layer: all cycle state lives in the
store's :class:`~repro.store.log_store.CleanCursor` (victims, staged
pages, and placement order pinned at ``clean_begin``), which is what
makes preemption safe — a step can never change *what* a cycle does,
only *when* its pages move.  The store keeps its own reactive inline
cleaning as a correctness backstop: if steps don't keep up and a write
exhausts the free pool, the write cleans inline exactly as before (and
the stall shows up in the ``write_stall_pages`` histogram).

Two knobs shape the SLO:

* ``pages_per_step`` — the per-step relocation budget, the bound on how
  long any single step (and thus any foreground interleave gap) runs;
* ``free_target`` — the proactive headroom.  Cleaning is *needed*
  whenever the free pool is below the **floor** derived from it.

The floor rule (the only one: :class:`~repro.service.pool.StorePool` and
the latency shape pass headroom or nothing, and hold no default of their
own) is *enough free segments that the next thing a write allocates
finds them already free*::

    floor = headroom + segments one drain of the sorting buffer allocates

``headroom`` is ``free_target`` when given, else one segment above the
store's reactive trigger; the second term is the capacity of the buffer
the store actually built (0 without one: a direct write allocates one
segment at a time, which the headroom covers).  A Section 5.3 buffer
reaches the device as one drain of ``sort_buffer_segments`` segments
under a single user write, so a floor that leaves the drain out lets
that write run the free pool through the reactive trigger and clean
inline — several cycle set-ups behind one put.

Step budgets are the only input: replaying a recorded budget sequence
reproduces the store exactly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.store.errors import OutOfSpaceError


class IncrementalCleaner:
    """Budgeted, preemptible driver for a store's cleaning cycles.

    Args:
        store: The :class:`~repro.store.LogStructuredStore` to clean.
        pages_per_step: Default relocation budget per :meth:`step` call.
        free_target: Headroom of the floor rule (module docstring), in
            free segments; default is one above the store's reactive
            trigger.  The depth the engine maintains,
            ``self.free_target``, is this plus the segments one drain of
            the store's sorting buffer allocates.
        clean_batch: Victims per cycle, passed to ``clean_begin``
            (None = the policy's own batch size).
    """

    def __init__(
        self,
        store,
        pages_per_step: int = 32,
        free_target: Optional[int] = None,
        clean_batch: Optional[int] = None,
    ) -> None:
        if pages_per_step < 1:
            raise ValueError(
                "pages_per_step must be positive; got %d" % pages_per_step
            )
        self.store = store
        self.pages_per_step = int(pages_per_step)
        if free_target is None:
            trigger = max(
                store.config.clean_trigger, store.policy.min_free_target()
            )
            free_target = trigger + 1
        buffer = store.buffer
        drain = (
            0
            if buffer is None
            else buffer.capacity_units // store.config.segment_units
        )
        self.free_target = int(free_target) + drain
        self.clean_batch = clean_batch
        #: Cumulative pages relocated through this engine.
        self.pages_relocated = 0
        #: Cumulative step() calls that did any work.
        self.steps_run = 0
        #: Cycles this engine began.
        self.cycles_started = 0

    # -- state ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Staged pages of the active cycle not yet relocated."""
        return self.store.clean_pending

    def needs_cleaning(self) -> bool:
        """True when a step would do useful work: a cycle is mid-flight,
        or the free pool is below ``free_target`` with something sealed
        to clean."""
        store = self.store
        if store.clean_cursor is not None:
            return True
        if store.free_segment_count >= self.free_target:
            return False
        return store.sealed_segments().size > 0

    def behind(self) -> bool:
        """True when the pool has fallen below the *reactive* trigger —
        the next allocating write will clean inline.  The governance
        layer treats this as urgent: such a shard gets a step even when
        deferral-under-load would otherwise skip it."""
        store = self.store
        trigger = max(
            store.config.clean_trigger, store.policy.min_free_target()
        )
        return store.free_segment_count < trigger

    # -- driving -------------------------------------------------------

    def step(self, max_pages: Optional[int] = None) -> int:
        """Advance cleaning by one bounded step; returns pages relocated.

        Relocates at most ``max_pages`` (default ``pages_per_step``),
        beginning a new cycle when none is active and the pool is below
        ``free_target``, and stopping early once the target is reached
        with no cycle mid-flight.  A no-op returning 0 when no cleaning
        is needed.
        """
        budget = self.pages_per_step if max_pages is None else int(max_pages)
        if budget <= 0:
            return 0
        store = self.store
        done = 0
        while budget > 0:
            if store.clean_cursor is None:
                if not self.needs_cleaning():
                    break
                free_before = store.free_segment_count
                try:
                    store.clean_begin(self.clean_batch)
                except OutOfSpaceError:
                    break  # nothing cleanable right now
                self.cycles_started += 1
                if (
                    store.clean_pending == 0
                    and store.free_segment_count <= free_before
                ):
                    # All-empty victims should have grown the pool; if
                    # they didn't, a degenerate policy is spinning —
                    # stop rather than loop (the cursor self-closes on
                    # its first step).
                    store.clean_step(None)
                    break
            moved = store.clean_step(budget)
            done += moved
            budget -= moved
        if done:
            self.pages_relocated += done
            self.steps_run += 1
        return done

    def drain(self) -> int:
        """Finish the active cycle unconditionally (no new cycle is
        begun); returns pages relocated."""
        moved = self.store.clean_step(None)
        if moved:
            self.pages_relocated += moved
        return moved

    def stats(self) -> Dict[str, int]:
        """Engine counters, JSON-ready."""
        return {
            "pages_relocated": self.pages_relocated,
            "steps_run": self.steps_run,
            "cycles_started": self.cycles_started,
            "pending": self.pending,
        }

    def __repr__(self) -> str:
        return (
            "<IncrementalCleaner pages_per_step=%d free_target=%d "
            "pending=%d relocated=%d>"
            % (
                self.pages_per_step,
                self.free_target,
                self.pending,
                self.pages_relocated,
            )
        )
