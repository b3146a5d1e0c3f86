"""Property-based differential of ``write_batch``, both run engines.

Either engine takes repeated page ids in its stride.  On the buffered
path (``sort_buffer_segments=2``) a repeat inside a run rewrites the
still-buffered version its previous occurrence added; on the direct
path (``0``) it rewrites the slot its previous occurrence just filled,
and one run rolls through as many segments as the free pool allows
(8-unit segments: a 48-write batch rolls several times, also under the
active ``CleanCursor`` the ``relocate`` and ``step`` ops leave behind).
Whatever Hypothesis throws at it — batches drawn from a handful of
pages, sizes that grow a buffered page past the buffer's capacity or
leave a gap at a segment's end, new pages that do not fit,
first-writes (NaN carried estimates), trims between batches, pages
staged by a mid-flight cleaning cycle and rewritten twice in one batch
— the batch execution must leave the store byte-identical to the
scalar ``write`` loop, and the attached observer's hooks must have
been called at the same clocks with the same arguments (seal live
counts and used units, flush sizes, victims, stalls), and the store's
drain, write-stall and cleaning boundaries must have been called at the
same clocks.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.obs import StoreObserver
from repro.policies import make_policy
from repro.store import IN_RELOCATION, LogStructuredStore, StoreConfig
from repro.store.errors import OutOfSpaceError
from repro.testkit.trace import state_digest

N_PAGES = 40
N_LOADED = N_PAGES // 2  # the rest are first-writes when they appear
MAX_SIZE = 4


def _stalls(store):
    """A roll's cleaning opportunity that cleans: the batch path rolls
    through the free pool it planned for without asking."""
    return (
        store.clean_cursor is not None
        or store.free_segment_count < store.reactive_trigger()
    )


#: The store boundaries whose calls the differentials compare — the
#: drain, the write stall and the cleaning cycle — each with when a
#: call counts.
SPANNED = (
    ("flush", None),
    ("_clean_until_replenished", _stalls),
    ("clean_begin", None),
    ("clean_step", None),
)


def record_spans(store):
    """Wrap :data:`SPANNED` as instance attributes of ``store``, each
    counted call logging ``(name, store.clock)`` at entry to
    ``store.span_log``."""
    store.span_log = []
    for name, counts in SPANNED:
        def wrapper(*args, _inner=getattr(store, name), _name=name, _counts=counts,
                    **kwargs):
            if _counts is None or _counts(store):
                store.span_log.append((_name, store.clock))
            return _inner(*args, **kwargs)

        setattr(store, name, wrapper)


#: The observer hooks whose calls the differentials compare: one per
#: store moment a run's batching could move (``on_clean_step`` follows
#: ``clean_step``, which :data:`SPANNED` already logs).
HOOKS = ("on_seal", "on_flush", "on_victims", "on_clean", "on_write_stall")


def record_hooks(store):
    """Wrap :data:`HOOKS` as instance attributes of ``store.obs``, each
    call logging ``(hook, store.clock, args)`` to ``store.hook_log``,
    plus the sealed segment's ``live_count`` and ``used_units`` at
    ``on_seal``."""
    store.hook_log = []
    segs = store.segments
    for name in HOOKS:
        def wrapper(*args, _inner=getattr(store.obs, name), _name=name):
            entry = (_name, store.clock, [np.asarray(a).tolist() for a in args])
            if _name == "on_seal":
                entry += (int(segs.live_count[args[0]]), int(segs.used_units[args[0]]))
            store.hook_log.append(entry)
            return _inner(*args)

        setattr(store.obs, name, wrapper)


def build_store(policy_name, sort_buffer_segments):
    """An observed, span-logged store: the buffered engine when the policy
    takes a sort buffer (``greedy`` never does), the direct one
    otherwise."""
    cfg = StoreConfig(
        n_segments=32,
        segment_units=8,
        fill_factor=0.5,
        clean_trigger=2,
        clean_batch=2,
        sort_buffer_segments=sort_buffer_segments,
    )
    store = LogStructuredStore(cfg, make_policy(policy_name))
    assert (store.buffer is not None) == (
        sort_buffer_segments > 0 and store.policy.uses_sort_buffer
    )
    if policy_name.endswith("-opt"):
        store.set_oracle_frequencies(np.linspace(0.001, 0.2, N_PAGES).tolist())
    StoreObserver(store).attach()
    record_hooks(store)
    record_spans(store)
    store.load_sequential(N_LOADED)
    return store


def _observed(store):
    """Every observer hook call (clock, arguments, a sealed segment's
    live count and used units) and the boundary calls as ``(name,
    clock)``."""
    return store.hook_log, store.span_log


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
    policy=st.sampled_from(["mdc", "mdc-opt", "greedy"]),
    sort_buffer=st.sampled_from([0, 2]),
    schedule=st.lists(ops, min_size=1, max_size=30),
)
# max_examples comes from the Hypothesis profile (tests/conftest.py):
# the default in tier-1, ``nightly`` at depth.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batch_matches_scalar(policy, sort_buffer, schedule):
    scalar_store = build_store(policy, sort_buffer)
    batch_store = build_store(policy, sort_buffer)
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
    assert _observed(scalar_store) == _observed(batch_store)
