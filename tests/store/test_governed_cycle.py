"""A governed step begins a cycle sized to itself.

``IncrementalCleaner.step`` begins a cycle with ``select_victims(...,
deficit=floor - free, page_cap=the step's remaining budget)``.  The
victims are the shortest prefix of the policy's ranking that holds at
least ``clean_batch`` victims, then extends toward the deficit, and
stops before a victim whose live pages would lift the batch past the
cap.  Drains, direct writes and the scalar path pass no cap.
"""

import numpy as np
import pytest

from repro.policies import make_policy
from repro.service import StorePool
from repro.store import IncrementalCleaner, LogStructuredStore, StoreConfig
from repro.testkit.trace import state_digest


def _record_selections(store):
    """Wrap ``select_victims``: per call, its arguments, the victims,
    the store's GC writes so far, and the ranking at that instant
    (ascending priority, reclaimable segments only) with each ranked
    segment's reclaimable units and live pages."""
    policy = store.policy
    select = policy.select_victims
    calls = []

    def recording(candidates, n=None, deficit=0, page_cap=None):
        segs = store.segments
        ids = np.asarray(candidates, dtype=np.int64)
        prio = np.asarray(policy.rank_columns(segs, ids), dtype=float)
        ranked = ids[np.argsort(prio, kind="stable")]
        avail = segs.capacity - segs.live_units
        ranked = ranked[avail[ranked] > 0]
        victims = select(candidates, n, deficit, page_cap=page_cap)
        calls.append(
            {
                "n": store.config.clean_batch if n is None else n,
                "deficit": deficit,
                "cap": page_cap,
                "victims": victims,
                "ranked": ranked.tolist(),
                "avail": avail[ranked].tolist(),
                "live": segs.live_count[ranked].tolist(),
                "units": segs.capacity,
                "gc_writes": store.stats.gc_writes,
            }
        )
        return victims

    policy.select_victims = recording
    return calls


def _governed_run(fill, budget, drain, writes=4000):
    """A buffered ``mdc`` store under uniform writes, cleaned only by
    cleaner steps of ``budget`` pages between write batches; returns
    the recorded selections that carried a cap.  A
    larger ``drain`` (buffer segments) lifts the floor further above the
    reactive trigger, so a step finds a deficit of more segments."""
    cfg = StoreConfig(
        n_segments=64,
        segment_units=16,
        fill_factor=fill,
        clean_trigger=2,
        clean_batch=4,
        sort_buffer_segments=drain,
    )
    store = LogStructuredStore(cfg, make_policy("mdc"))
    store.load_sequential(cfg.user_pages)
    cleaner = IncrementalCleaner(store)
    calls = _record_selections(store)
    rng = np.random.default_rng(5)
    for _ in range(writes // 40):
        store.write_batch(rng.integers(0, cfg.user_pages, size=40))
        while cleaner.needs_cleaning() and cleaner.step(budget):
            pass
    store.check_invariants()
    return [call for call in calls if call["cap"] is not None]


def _check_prefix_rule(call):
    """The victims are the shortest ranking prefix meeting the rule."""
    n, cap, ranked = call["n"], call["cap"], call["ranked"]
    need = max(1, call["deficit"]) * call["units"]
    k = len(call["victims"])
    assert call["victims"] == ranked[:k]
    assert k >= min(n, len(ranked))
    reclaim = sum(call["avail"][:k])
    live = sum(call["live"][:k])
    if k > n:
        # Extended past the batch size: under the cap, and short of the
        # deficit without its last victim.
        assert live <= cap
        assert sum(call["avail"][: k - 1]) < need
    if n <= k < len(ranked):
        # Stopped early: the deficit was met, or the next victim would
        # have lifted the batch past the cap.
        assert reclaim >= need or live + call["live"][k] > cap


LOW_FILL = (0.5, 24, 8)  # a 24-page step, an 8-segment drain
HIGH_FILL = (0.9, 6, 2)  # svc-clean-uniform's fill, a 6-page step


@pytest.mark.parametrize(
    "shape",
    [LOW_FILL, (0.5, 48, 8), (0.5, 64, 4), (0.75, 12, 4), HIGH_FILL],
    ids=[
        "low-fill", "low-fill-wide-step", "low-fill-short-drain",
        "mid-fill", "high-fill",
    ],
)
def test_victims_are_the_shortest_prefix_meeting_the_rule(shape):
    calls = _governed_run(*shape)
    assert len(calls) >= 20
    for call in calls:
        _check_prefix_rule(call)


def test_high_fill_takes_exactly_clean_batch():
    """Where ``clean_batch`` victims already hold more live pages than
    the step may move (``svc-clean-uniform``'s shape), the batch is
    exactly ``clean_batch``: the cap never shrinks it below the batch
    size, and never lets it grow."""
    calls = _governed_run(*HIGH_FILL)
    assert len(calls) >= 100
    for call in calls:
        n = call["n"]
        assert len(call["ranked"]) > n
        assert sum(call["live"][:n]) > call["cap"]
        assert len(call["victims"]) == n


def test_low_fill_extends_past_clean_batch_under_the_cap():
    calls = _governed_run(*LOW_FILL)
    extended = [call for call in calls if len(call["victims"]) > call["n"]]
    assert len(extended) >= len(calls) // 2
    short = 0
    for call in extended:
        k = len(call["victims"])
        assert sum(call["live"][:k]) <= call["cap"]
        short += sum(call["avail"][:k]) < max(1, call["deficit"]) * call["units"]
    # The cap, not the deficit, ended many of them.
    assert short >= 10


def _behind_pool(pages_per_step, gc_budget):
    pool = StorePool(
        1,
        StoreConfig(
            n_segments=64, segment_units=16, fill_factor=0.5,
            clean_trigger=2, clean_batch=2, sort_buffer_segments=4,
        ),
        policy="mdc", unit_bytes=8, gc_budget=gc_budget,
        pages_per_step=pages_per_step,
    )
    kv, cleaner = pool[0], pool.cleaners[0]
    rng = np.random.default_rng(2)
    for r in range(100):
        keys = rng.integers(0, 400, size=60).tolist()
        kv.put_many((("k", key), bytes([r]) * 8) for key in keys)
        if cleaner.behind() and kv.store.clean_cursor is None:
            return pool
    raise AssertionError("the shard never fell behind")


def test_a_loaded_step_is_capped_at_pages_per_step():
    pool = _behind_pool(pages_per_step=5, gc_budget=1000)
    calls = _record_selections(pool[0].store)
    moved = pool.maintain()  # loaded: the behind shard gets one step
    assert 0 < moved <= 5
    assert calls[0]["cap"] == 5


def test_an_idle_step_is_capped_at_the_budget_left():
    pool = _behind_pool(pages_per_step=5, gc_budget=1000)
    calls = _record_selections(pool[0].store)
    moved = pool.maintain(idle=True)
    assert calls[0]["cap"] == 1000
    start = calls[0]["gc_writes"]
    for call in calls:
        assert call["cap"] == 1000 - (call["gc_writes"] - start)
    # One step took the shard to its floor; pages_per_step did not cut it.
    store, cleaner = pool[0].store, pool.cleaners[0]
    assert store.free_segment_count >= cleaner.floor
    assert store.clean_cursor is None
    assert moved == store.stats.gc_writes - start > 0


def _multilog_run(drop_cap):
    cfg = StoreConfig(
        n_segments=48, segment_units=16, fill_factor=0.6,
        clean_trigger=2, clean_batch=2,
    )
    store = LogStructuredStore(cfg, make_policy("multi-log"))
    store.load_sequential(cfg.user_pages)
    rng = np.random.default_rng(11)
    # Warm up first: the cleaner reads its floor off the reactive
    # trigger once, and multi-log's trigger grows with its classes.
    store.write_batch(rng.zipf(1.3, size=1000) % cfg.user_pages)
    select = store.policy.select_victims
    caps = []

    def selecting(candidates, n=None, deficit=0, page_cap=None):
        caps.append(page_cap)
        if drop_cap:
            return select(candidates, n, deficit)
        return select(candidates, n, deficit, page_cap=page_cap)

    store.policy.select_victims = selecting
    cleaner = IncrementalCleaner(store)
    for _ in range(300):
        store.write_batch(rng.zipf(1.3, size=5) % cfg.user_pages)
        cleaner.step(7)
    store.check_invariants()
    return store, caps


def test_multilog_ignores_the_cap():
    (capped, caps), (uncapped, _) = _multilog_run(False), _multilog_run(True)
    assert sum(cap is not None for cap in caps) >= 100
    assert state_digest(capped) == state_digest(uncapped)
