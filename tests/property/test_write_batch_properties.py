"""Property-based differential of the buffered ``write_batch`` path.

The sorting-buffer run engine takes repeated page ids in its stride: a
repeat inside a run rewrites the still-buffered version its previous
occurrence added.  Whatever Hypothesis throws at it — batches drawn from
a handful of pages, sizes that grow a buffered page past the buffer's
capacity, new pages that do not fit, first-writes (NaN carried
estimates), trims between batches, pages staged by a mid-flight
cleaning cycle and rewritten twice in one batch — the batch execution
must leave the store byte-identical to the scalar ``write`` loop.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.policies import make_policy
from repro.store import IN_RELOCATION, LogStructuredStore, StoreConfig
from repro.store.errors import OutOfSpaceError
from repro.testkit.trace import state_digest

N_PAGES = 40
N_LOADED = N_PAGES // 2  # the rest are first-writes when they appear
MAX_SIZE = 4


def build_store(policy_name):
    cfg = StoreConfig(
        n_segments=32,
        segment_units=8,
        fill_factor=0.5,
        clean_trigger=2,
        clean_batch=2,
        sort_buffer_segments=2,
    )
    store = LogStructuredStore(cfg, make_policy(policy_name))
    assert store.buffer is not None
    if policy_name.endswith("-opt"):
        store.set_oracle_frequencies(np.linspace(0.001, 0.2, N_PAGES).tolist())
    store.load_sequential(N_LOADED)
    return store


def _writes(max_page):
    return st.lists(
        st.tuples(st.integers(0, max_page), st.integers(1, MAX_SIZE)),
        min_size=1,
        max_size=48,
    )


ops = st.one_of(
    st.tuples(st.just("batch"), _writes(N_PAGES - 1)),
    # A handful of pages: nearly every write repeats an id of its batch.
    st.tuples(st.just("batch"), _writes(4)),
    st.tuples(st.just("trim"), st.integers(0, N_PAGES - 1)),
    # Start a cleaning cycle, then rewrite its staged pages twice each
    # inside one batch, with these sizes.
    st.tuples(
        st.just("relocate"),
        st.lists(st.integers(1, MAX_SIZE), min_size=2, max_size=12),
    ),
    st.tuples(st.just("step"), st.integers(1, 4)),
)


def _begin(store):
    """``clean_begin`` where a cycle can start; returns the pages it
    staged (empty when none could)."""
    if (
        store.clean_cursor is None
        and store.sealed_segments().size > 0
        and store.free_segment_count > 0
    ):
        try:
            store.clean_begin()
        except OutOfSpaceError:
            return []
    cur = store.clean_cursor
    if cur is None:
        return []
    rest = cur.pending[cur.pos :]
    return rest[store.pages.seg[rest] == IN_RELOCATION].tolist()


def _write_both(scalar_store, batch_store, pids, sizes):
    for pid, size in zip(pids, sizes):
        scalar_store.write(pid, size)
    batch_store.write_batch(
        np.asarray(pids, dtype=np.int64), sizes=np.asarray(sizes, dtype=np.int64)
    )


@given(
    policy=st.sampled_from(["mdc", "mdc-opt"]),
    schedule=st.lists(ops, min_size=1, max_size=30),
)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_buffered_batch_matches_scalar(policy, schedule):
    scalar_store = build_store(policy)
    batch_store = build_store(policy)
    for kind, arg in schedule:
        if kind == "batch":
            pids, sizes = zip(*arg)
            _write_both(scalar_store, batch_store, pids, sizes)
        elif kind == "trim":
            assert scalar_store.trim(arg) == batch_store.trim(arg)
        elif kind == "step":
            assert scalar_store.clean_step(arg) == batch_store.clean_step(arg)
        else:  # relocate
            staged = _begin(scalar_store)
            assert _begin(batch_store) == staged
            twice = staged[: len(arg) // 2] * 2
            if twice:
                _write_both(scalar_store, batch_store, twice, arg[: len(twice)])
        assert state_digest(scalar_store) == state_digest(batch_store)
    batch_store.check_invariants()
    scalar_store.flush()
    batch_store.flush()
    assert state_digest(scalar_store) == state_digest(batch_store)
    batch_store.check_invariants()
