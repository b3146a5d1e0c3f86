"""Preemptible incremental cleaning with a latency SLO.

The paper's cleaner reclaims space in whole victim batches, so a
foreground write that trips the free-pool trigger stalls behind an
entire cycle — every live page of every victim relocated inline.  The
:class:`IncrementalCleaner` converts that single blocking operation into
a scheduler: cleaning advances in *steps* that relocate at most
``pages_per_step`` pages, so foreground work interleaves with
reclamation at page granularity instead of cycle granularity.

The engine is a thin scheduling layer: all cycle state lives in the
store's :class:`~repro.store.cycle.CleanCursor` (victims, staged
pages, and placement order pinned at ``clean_begin``), which is what
makes preemption safe — a step can never change *what* a cycle does,
only *when* its pages move.  The store keeps its own reactive inline
cleaning as a correctness backstop: if steps don't keep up and a write
exhausts the free pool, the write cleans inline exactly as before (and
the stall shows up in the ``write_stall_pages`` histogram).

One knob shapes the SLO: ``pages_per_step``, the default per-step
relocation budget.  The governor passes it to the steps a flush waits
on (a loaded round's), so it bounds how long a foreground interleave
gap runs; an idle round's step takes the round's whole remaining budget
instead, since nothing waits on it.  Cleaning is *needed* whenever the
free pool is below the **floor**, which is derived, not set — *enough
free segments that the next thing a write allocates finds them already
free*::

    floor = reactive trigger + 1 + segments one drain of the sorting buffer allocates

The reactive trigger is the store's own
(:meth:`~repro.store.LogStructuredStore.reactive_trigger`, the one
definition, which :meth:`IncrementalCleaner.behind` reads too); the
last term is the capacity of the buffer the store actually built (0
without one: a direct write allocates one segment at a time, which the
``+ 1`` covers).  A Section 5.3 buffer reaches the device as one drain
of ``sort_buffer_segments`` segments under a single user write, so a
floor that leaves the drain out lets that write run the free pool
through the reactive trigger and clean inline — one cycle sized to the
rest of the drain, behind one put.  This class is the only place a
floor is computed.

A cycle is sized to the step that begins it: the victims are the
policy's ranking prefix of at least ``clean_batch`` segments that
extends toward the floor's deficit (``floor − free``) and stops before
a victim whose live pages would lift the batch past the step's
remaining budget (``select_victims``'s ``page_cap``).  A step of ``B``
pages therefore mostly begins a cycle it can finish, and one ranking
serves as many pages as the step may move.

Step budgets are the only input: replaying a recorded budget sequence
reproduces the store exactly.  Within a cycle the split does not
matter — ``clean_step(a); clean_step(b)`` relocates what
``clean_step(a + b)`` does — but where a step begins a cycle its
budget is the cap, so ``step(a); step(b)`` and ``step(a + b)`` may
pick different victims.
"""

from __future__ import annotations

from typing import Optional

from repro.store.errors import OutOfSpaceError


class IncrementalCleaner:
    """Budgeted, preemptible driver for a store's cleaning cycles.

    Args:
        store: The :class:`~repro.store.LogStructuredStore` to clean.
        pages_per_step: Default relocation budget per :meth:`step` call.
    """

    def __init__(self, store, pages_per_step: int = 32) -> None:
        if pages_per_step < 1:
            raise ValueError(
                "pages_per_step must be positive; got %d" % pages_per_step
            )
        self.store = store
        self.pages_per_step = int(pages_per_step)
        buffer = store.buffer
        self._drain = (
            0
            if buffer is None
            else buffer.capacity_units // store.config.segment_units
        )
        #: Cumulative pages relocated through this engine.
        self.pages_relocated = 0

    @property
    def floor(self) -> int:
        """The free-segment depth the engine maintains (module
        docstring), read afresh each time: a policy's trigger may grow
        as it runs (multi-log's with its classes)."""
        return self.store.reactive_trigger() + 1 + self._drain

    # -- state ---------------------------------------------------------

    def needs_cleaning(self) -> bool:
        """True when a step would do useful work: a cycle is mid-flight,
        or the free pool is below the floor with something sealed to
        clean."""
        store = self.store
        if store.clean_cursor is not None:
            return True
        if store.free_segment_count >= self.floor:
            return False
        return store.sealed_segments().size > 0

    def behind(self) -> bool:
        """True when the pool has fallen below the *reactive* trigger —
        the next allocating write will clean inline.  The governance
        layer treats this as urgent: such a shard gets a step even when
        deferral-under-load would otherwise skip it."""
        store = self.store
        return store.free_segment_count < store.reactive_trigger()

    # -- driving -------------------------------------------------------

    def step(self, max_pages: Optional[int] = None) -> int:
        """Advance cleaning by one bounded step; returns pages relocated.

        Relocates at most ``max_pages`` (default ``pages_per_step``),
        beginning a new cycle when none is active and the pool is below
        the floor — sized to the floor's deficit and capped by the
        budget still left (module docstring) — and stopping early only
        once the floor is reached with no cycle mid-flight, or when
        nothing is cleanable.  A no-op returning 0 when no cleaning is
        needed.
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
                    store.clean_begin(
                        deficit=self.floor - free_before, page_cap=budget
                    )
                except OutOfSpaceError:
                    break  # nothing cleanable right now
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
        self.pages_relocated += done
        return done

    def __repr__(self) -> str:
        return (
            "<IncrementalCleaner pages_per_step=%d floor=%d "
            "pending=%d relocated=%d>"
            % (
                self.pages_per_step,
                self.floor,
                self.store.clean_pending,
                self.pages_relocated,
            )
        )
