"""Property-based tests of preemptible cleaning.

Hypothesis drives arbitrary interleavings of foreground writes, trims,
and bounded cleaner steps — any preemption schedule the governance
layer could ever produce, plus plenty it never would.  Whatever the
schedule:

* the store must agree with a trivial dict model about which pages are
  live (no page lost, none resurrected, none duplicated as live);
* every sealed segment a cycle claimed must end fully accounted — the
  staged set either relocated or skip-credited, never half-relocated
  and forgotten;
* resuming a cursor is idempotent: zero-budget steps and repeated
  drains change nothing.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.policies import make_policy
from repro.store import (
    IN_RELOCATION,
    IncrementalCleaner,
    LogStructuredStore,
    StoreConfig,
)
from repro.store.errors import OutOfSpaceError

N_PAGES_MAX = 78  # user_pages - 1 at this geometry


def build_store():
    cfg = StoreConfig(
        n_segments=24,
        segment_units=6,
        fill_factor=0.55,
        clean_trigger=2,
        clean_batch=2,
    )
    return LogStructuredStore(cfg, make_policy("greedy"))


# One schedule element: a foreground op or a bounded cleaner action.
ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, N_PAGES_MAX)),
    st.tuples(st.just("trim"), st.integers(0, N_PAGES_MAX)),
    st.tuples(st.just("step"), st.integers(1, 5)),
    st.tuples(st.just("begin"), st.just(0)),
    st.tuples(st.just("drain"), st.just(0)),
)

schedules = st.lists(ops, min_size=1, max_size=300)


def apply_schedule(store, schedule):
    """Drive ``store`` through ``schedule``; returns the dict model."""
    model = {}
    for kind, arg in schedule:
        if kind == "write":
            store.write(arg)
            model[arg] = True
        elif kind == "trim":
            store.trim(arg)
            model.pop(arg, None)
        elif kind == "step":
            store.clean_step(arg)
        elif kind == "begin":
            if (
                store.clean_cursor is None
                and store.sealed_segments().size > 0
                and store.free_segment_count > 0
            ):
                try:
                    store.clean_begin()
                except OutOfSpaceError:
                    # Every sealed segment may be fully live (nothing
                    # reclaimable); the engine treats that begin as a
                    # no-op, and so does any schedule it could produce.
                    pass
        else:  # drain
            store.clean_step(None)
    return model


@given(schedule=schedules)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_no_schedule_loses_or_duplicates_pages(schedule):
    store = build_store()
    model = apply_schedule(store, schedule)
    # Close the books before comparing: drain any mid-flight cycle.
    store.clean_step(None)
    store.check_invariants()
    pages = store.pages
    live = {
        pid
        for pid in range(len(pages.seg))
        if pages.seg[pid] != -1  # NEVER_WRITTEN
    }
    assert live == set(model)
    # check_invariants already asserts each live page occupies exactly
    # one live slot — together with the set equality that rules out
    # both loss and duplication.


@given(schedule=schedules)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_invariants_hold_at_every_preemption_point(schedule):
    store = build_store()
    for kind, arg in schedule:
        apply_schedule(store, [(kind, arg)])
        if kind in ("step", "begin", "drain"):
            store.check_invariants()
    store.clean_step(None)
    store.check_invariants()


@given(schedule=schedules, budgets=st.lists(st.integers(0, 4), max_size=8))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_cursor_resume_is_idempotent(schedule, budgets):
    """Zero-budget steps never mutate; equal budgets resume where the
    last step stopped (no staged page processed twice)."""
    store = build_store()
    apply_schedule(store, schedule)
    if store.clean_cursor is None:
        if store.sealed_segments().size == 0 or store.free_segment_count == 0:
            return
        try:
            store.clean_begin()
        except OutOfSpaceError:
            return  # nothing reclaimable in any sealed segment
    for budget in budgets:
        cur = store.clean_cursor
        if cur is None:
            break
        pos_before = cur.pos
        pending_before = store.clean_pending
        moved = store.clean_step(budget)
        if budget == 0:
            assert moved == 0
            assert store.clean_pending == pending_before
            assert cur.pos == pos_before
        else:
            assert moved <= budget
            if store.clean_cursor is not None:
                assert cur.pos >= pos_before
    store.clean_step(None)
    store.check_invariants()


@given(schedule=schedules)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_sealed_segments_never_half_relocated(schedule):
    """After a drain, no page anywhere still carries the staging
    sentinel, and the cycle's counters account for every staged page as
    either relocated or skip-credited."""
    store = build_store()
    apply_schedule(store, schedule)
    cur = store.clean_cursor
    if cur is not None:
        staged_total = int(cur.pending.size)
        store.clean_step(None)
        assert cur.relocated + cur.skipped == staged_total
    assert not (store.pages.seg == IN_RELOCATION).any()
    store.check_invariants()


@given(
    writes=st.lists(st.integers(0, N_PAGES_MAX), min_size=50, max_size=400),
    pages_per_step=st.integers(1, 7),
    period=st.integers(1, 9),
)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_engine_driven_interleave_matches_model(writes, pages_per_step, period):
    """The IncrementalCleaner engine (the layer governance drives) under
    arbitrary step cadence preserves the live set too."""
    store = build_store()
    cleaner = IncrementalCleaner(store, pages_per_step=pages_per_step)
    model = {}
    for i, pid in enumerate(writes):
        store.write(pid)
        model[pid] = True
        if i % period == 0:
            cleaner.step()
    store.clean_step(None)
    assert store.clean_cursor is None
    store.check_invariants()
    pages = store.pages
    live = {pid for pid in range(len(pages.seg)) if pages.seg[pid] != -1}
    assert live == set(model)
