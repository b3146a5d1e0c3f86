"""Property-based differential of planned emission.

``_emit_run(pids, stream, is_gc)`` emits a buffer drain or a GC
relocation, applying every stretch of rolls that clean nothing — each
GC roll, and each drain roll the free pool covers — as one array step.
The reference here is the emission it replaces, written out page by
page: roll through ``_open_segment_for`` whenever the page does not fit
(a buffer drain's stalling roll passing the rolls its first-fit rest
still needs after it, counted here independently), then append the one
page.  Whatever Hypothesis throws at the two stores — variable sizes
that leave first-fit gaps, drains that stall mid-stretch, the
``mdc-opt`` ``freq_sum`` fold, multi-log's per-class GC streams,
incremental cycles stepped between batches, and new pages that run the
device out of space mid-plan — they must end every op in the same
state digest, raise the same error at the same point, and have called
an attached observer's hooks at the same clocks with the same arguments
(seal live counts and used units, flush sizes, victims, stalls) and the
drain, write-stall and cleaning boundaries at the same clocks.

A direct run does not pass through ``_emit_run``, but it shares its
planner: ``_plan`` lays out a direct run's destinations as it does every
stretch here, and ``_append_stretch`` applies both.  What holds a direct
run's emission to page-at-a-time is the scalar ``write`` the batch ≡
scalar suites compare those runs against:
``test_batch_matches_scalar`` in ``test_write_batch_properties.py``
(greedy, no buffer, among its draws), and
``test_roll_at_position_zero_and_gaps_at_every_segment_end`` and
``test_cut_where_the_old_version_lies_in_a_segment_the_run_sealed`` in
``tests/store/test_write_batch.py``.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.obs import StoreObserver
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig
from repro.store.errors import OutOfSpaceError
from repro.testkit.trace import state_digest
from tests.property.test_write_batch_properties import record_hooks, record_spans

N_PAGES = 48
N_LOADED = 40
MAX_SIZE = 4


def _first_fit_segments(sizes, capacity):
    """Fresh segments a first-fit packing of ``sizes`` fills."""
    count, room = 1, capacity
    for size in sizes:
        if size > room:
            count, room = count + 1, capacity
        room -= size
    return count


class LoopStore(LogStructuredStore):
    """The store with the page-at-a-time emission loop."""

    def _emit_run(self, pids, stream, is_gc):
        segs = self.segments
        pages = self.pages
        sizes = [int(s) for s in pages.size[pids]]
        for i, pid in enumerate(pids.tolist()):
            size = sizes[i]
            seg = self.open_segments.get(stream)
            if seg is None or segs.used_units[seg] + size > segs.capacity:
                extra = None
                if (
                    not is_gc
                    and not self._cleaning
                    and len(self.free_list) < self.reactive_trigger()
                ):
                    extra = _first_fit_segments(sizes[i:], segs.capacity) - 1
                seg = self._open_segment_for(stream, size, is_gc, extra)
            slot = segs.append_slot(seg, pid, size)
            pages.seg[pid] = seg
            pages.slot[pid] = slot
            segs.live_count[seg] += 1
            segs.live_units[seg] += size
            segs.used_units[seg] += size
            segs.up2_sum[seg] += pages.carried_up2[pid]
            if pages.oracle_active:
                segs.freq_sum[seg] += pages.oracle_freq[pid]
            if is_gc:
                self.stats.gc_writes += 1
            else:
                self.stats.user_device_writes += 1


def build_store(cls, policy_name, sort_buffer_segments):
    cfg = StoreConfig(
        n_segments=24,
        segment_units=8,
        fill_factor=0.6,
        clean_trigger=2,
        clean_batch=2,
        sort_buffer_segments=sort_buffer_segments,
    )
    store = cls(cfg, make_policy(policy_name))
    if policy_name.endswith("-opt"):
        store.set_oracle_frequencies(np.linspace(0.001, 0.2, 4 * N_PAGES).tolist())
    StoreObserver(store).attach()
    record_hooks(store)
    record_spans(store)
    store.load_sequential(N_LOADED, [1 + p % MAX_SIZE for p in range(N_LOADED)])
    return store


def _observed(store):
    return store.hook_log, store.span_log


def _apply(store, kind, arg):
    """One op; returns the error it raised, as ``(type, message)``."""
    try:
        if kind == "batch":
            pids, sizes = zip(*arg)
            store.write_batch(np.asarray(pids), np.asarray(sizes))
        elif kind == "trim":
            store.trim(arg)
        elif kind == "begin":
            if store.clean_cursor is None and store.sealed_segments().size:
                store.clean_begin()
        elif kind == "step":
            store.clean_step(arg)
        else:
            store.flush()
    except OutOfSpaceError as exc:
        return type(exc), str(exc)
    return None


def _writes(max_page, max_size):
    return st.lists(
        st.tuples(st.integers(0, max_page), st.integers(1, max_size)),
        min_size=1,
        max_size=60,
    )


ops = st.one_of(
    st.tuples(st.just("batch"), _writes(N_PAGES - 1, MAX_SIZE)),
    # Whole-segment pages: every page rolls, and first-fit leaves no gap.
    st.tuples(st.just("batch"), _writes(N_PAGES - 1, 8)),
    # Every loaded page rewritten at its load size: enough churn that
    # drains stall and cycles run.
    st.tuples(
        st.just("batch"),
        st.permutations(range(N_LOADED)).map(
            lambda ps: [(p, 1 + p % MAX_SIZE) for p in ps]
        ),
    ),
    # A run of new 4-unit pages: the device runs out of space mid-plan.
    st.tuples(
        st.just("batch"),
        st.tuples(st.integers(N_PAGES, 3 * N_PAGES), st.integers(1, 60)).map(
            lambda t: [(p, MAX_SIZE) for p in range(t[0], t[0] + t[1])]
        ),
    ),
    st.tuples(st.just("trim"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("begin"), st.none()),
    st.tuples(st.just("step"), st.integers(1, 12)),
    st.tuples(st.just("flush"), st.none()),
)


@given(
    policy=st.sampled_from(["mdc", "mdc-opt", "multi-log", "multi-log-opt", "greedy"]),
    sort_buffer=st.sampled_from([0, 4]),
    schedule=st.lists(ops, min_size=1, max_size=25),
)
# max_examples comes from the Hypothesis profile (tests/conftest.py).
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_planned_emission_matches_the_loop(policy, sort_buffer, schedule):
    planned = build_store(LogStructuredStore, policy, sort_buffer)
    loop = build_store(LoopStore, policy, sort_buffer)
    for kind, arg in schedule:
        assert _apply(planned, kind, arg) == _apply(loop, kind, arg)
        assert state_digest(planned) == state_digest(loop)
    assert _apply(planned, "flush", None) == _apply(loop, "flush", None)
    assert state_digest(planned) == state_digest(loop)
    planned.check_invariants()
    assert _observed(planned) == _observed(loop)
