"""Property: how a cleaning budget is sliced does not move the store.

A governed idle round gives a shard one step of the whole budget left
where it used to give it several slices of ``pages_per_step``.  That is
state-preserving because, with no foreground op between them,
``clean_step(a); clean_step(b)`` relocates the same pages into the same
slots as ``clean_step(a + b)``: the cursor's placement order is pinned
at ``clean_begin``, GC emission does not tick the clock, and the
skip-credit fold runs strictly left to right whatever the chunking.

Hypothesis churns a store (greedy, or buffered ``mdc``, with variable
page sizes), begins a cycle, optionally lets a foreground op kill some
of its staged pages and a step move a few, then relocates a budget
``B`` once as ``[B]`` and once as a random split of ``B``.  When a
cycle closes inside a slice ``relocate`` begins the next one at once,
with the same arguments on both sides, so a slice may end one cycle
and begin another.  Both stores must end with the same
``state_digest`` and the same stats.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig
from repro.store.errors import OutOfSpaceError
from repro.testkit.trace import state_digest

N_PAGES = 60
MAX_SIZE = 3


def build_store(policy, sort_buffer_segments):
    cfg = StoreConfig(
        n_segments=32,
        segment_units=8,
        fill_factor=0.55,
        clean_trigger=2,
        clean_batch=2,
        sort_buffer_segments=sort_buffer_segments,
    )
    store = LogStructuredStore(cfg, make_policy(policy))
    store.load_sequential(N_PAGES, [1 + p % MAX_SIZE for p in range(N_PAGES)])
    return store


def begin(store, deficit, page_cap):
    """Begin a cycle with fixed arguments; False when nothing is
    cleanable."""
    if not store.sealed_segments().size:
        return False
    try:
        store.clean_begin(deficit=deficit, page_cap=page_cap)
    except OutOfSpaceError:
        return False
    return True


def relocate(store, slices, deficit, page_cap):
    """Spend each slice on the active cycle, beginning the next cycle
    as soon as one closes with budget left."""
    for budget in slices:
        while budget > 0:
            if store.clean_cursor is None and not begin(store, deficit, page_cap):
                return
            budget -= store.clean_step(budget)


def run(policy, buffered, churn, foreground, head, slices, deficit, page_cap):
    store = build_store(policy, 2 if buffered else 0)
    for pids, sizes in churn:
        store.write_batch(np.asarray(pids), np.asarray(sizes))
    store.flush()
    if store.clean_cursor is None:
        begin(store, deficit, page_cap)
    if foreground is not None:
        # Before the split: a rewrite or trim may kill staged pages, which
        # the steps then skip and credit.
        kind, pid = foreground
        if kind == "trim":
            store.trim(pid)
        else:
            store.write_batch(np.asarray([pid]), np.asarray([1 + pid % MAX_SIZE]))
    store.clean_step(head)
    relocate(store, slices, deficit, page_cap)
    store.check_invariants()
    return store


def _split(budget_and_cuts):
    """``budget`` cut at the given points into positive slices."""
    budget, cuts = budget_and_cuts
    points = sorted({c for c in cuts if 0 < c < budget})
    edges = [0] + points + [budget]
    return budget, [b - a for a, b in zip(edges, edges[1:])]


churns = st.lists(
    st.lists(
        st.tuples(st.integers(0, N_PAGES - 1), st.integers(1, MAX_SIZE)),
        min_size=1,
        max_size=40,
    ).map(lambda writes: tuple(zip(*writes))),
    min_size=1,
    max_size=8,
)

budgets = st.integers(1, 80).flatmap(
    lambda b: st.tuples(st.just(b), st.lists(st.integers(1, b), max_size=8))
).map(_split)


@given(
    policy=st.sampled_from(["greedy", "mdc"]),
    buffered=st.booleans(),
    churn=churns,
    foreground=st.none()
    | st.tuples(st.sampled_from(["write", "trim"]), st.integers(0, N_PAGES - 1)),
    head=st.integers(0, 6),
    budget=budgets,
    deficit=st.integers(0, 6),
    page_cap=st.none() | st.integers(1, 40),
)
# max_examples comes from the Hypothesis profile (tests/conftest.py).
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_split_of_a_budget_leaves_the_same_store(
    policy, buffered, churn, foreground, head, budget, deficit, page_cap
):
    total, slices = budget
    args = (policy, buffered, churn, foreground, head)
    whole = run(*args, [total], deficit, page_cap)
    split = run(*args, slices, deficit, page_cap)
    assert state_digest(split) == state_digest(whole)
    assert split.stats.snapshot() == whole.stats.snapshot()


def test_a_slice_that_ends_one_cycle_begins_the_next():
    """The case the property exists for, pinned: one slice closes a
    cycle and begins another, and single pages reproduce it."""
    churn = [
        (tuple(range(p, N_PAGES, 3)), tuple(1 + q % MAX_SIZE for q in range(20)))
        for p in (0, 1, 2, 0, 1)
    ]
    args = ("mdc", True, churn, None, 0)
    before = run(*args, [], 1, 4).stats
    whole = run(*args, [40], 1, 4)
    single = run(*args, [1] * 40, 1, 4)
    assert state_digest(single) == state_digest(whole)
    # The one slice closed at least two cycles and relocated all of it.
    assert whole.stats.clean_cycles - before.clean_cycles >= 2
    assert whole.stats.gc_writes - before.gc_writes == 40
