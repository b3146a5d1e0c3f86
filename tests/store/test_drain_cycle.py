"""A buffer drain cleans once.

When a roll inside a Section 5.3 drain finds the free pool below the
reactive trigger, it runs one cycle sized to the rest of the drain:
enough victims to restore ``trigger + R - 1`` free segments, ``R`` being
the rolls the drain's remaining pages need.  During a drain the clock
does not move, so the one ranking is the one the successive per-roll
cycles would each have read.
"""

import numpy as np

from repro.policies import make_policy
from repro.store import IN_BUFFER, LogStructuredStore, StoreConfig


def _steady_store():
    cfg = StoreConfig(
        n_segments=64,
        segment_units=16,
        fill_factor=0.75,
        clean_trigger=3,
        clean_batch=1,
        sort_buffer_segments=6,
    )
    store = LogStructuredStore(cfg, make_policy("mdc"))
    store.load_sequential(cfg.user_pages)
    return store


def _record_selections(store):
    """Wrap ``select_victims``: per call, the victims, the ranking at
    that instant (ascending priority, reclaimable segments only), the
    victims' reclaimable units, and the free segments and drain units
    left (unit pages: one unit per page still ``IN_BUFFER``)."""
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
        free = store.free_segment_count
        rest = int(np.count_nonzero(store.pages.seg == IN_BUFFER))
        victims = select(candidates, n, deficit, page_cap=page_cap)
        calls.append(
            {
                "victims": victims,
                "ranked": ranked.tolist(),
                "avail": avail[victims].tolist(),
                "deficit": deficit,
                "free": free,
                "rest": rest,
            }
        )
        return victims

    policy.select_victims = recording
    return calls


def test_a_stalling_drain_runs_one_minimal_prefix_cycle():
    store = _steady_store()
    cap = store.segments.capacity
    trigger = store.reactive_trigger()
    calls = _record_selections(store)
    flush = store.flush
    per_drain = []

    def counted_flush():
        cycles, before = store.stats.clean_cycles, len(calls)
        flush()
        per_drain.append((store.stats.clean_cycles - cycles, calls[before:]))

    store.flush = counted_flush
    rng = np.random.default_rng(3)
    pids = rng.zipf(1.3, size=40_000) % store.config.user_pages
    store.write_batch(pids)

    stalled = [sel for cycles, sel in per_drain if cycles]
    assert len(stalled) >= 20
    # Exactly one cycle and one ranking per stalling drain.
    assert all(cycles <= 1 for cycles, _ in per_drain)
    assert all(len(sel) == 1 for sel in stalled)
    multi = 0
    for (call,) in stalled:
        # The deficit is the rest of the drain: the rolls its remaining
        # unit pages need, ceil(rest / capacity), minus this one.
        rolls = -(-call["rest"] // cap)
        assert call["deficit"] == trigger + rolls - 1 - call["free"]
        need = max(1, call["deficit"]) * cap
        victims = call["victims"]
        assert victims == call["ranked"][: len(victims)]
        assert sum(call["avail"]) >= need
        if len(victims) > 1:
            multi += 1
            # Minimal: without its last victim the batch falls short.
            assert sum(call["avail"][:-1]) < need
    assert multi >= 10
    store.check_invariants()
