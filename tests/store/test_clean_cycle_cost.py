"""The cleaning cycle's fixed cost, pinned as counts (ISSUE 18).

A cycle ranks once (the selection's own scores explain the decision),
stages its victims in one pass, and builds a failpoint's context only
when something is listening.  Times move with the box; these counts do
not.
"""

import numpy as np
import pytest

from repro.obs import StoreObserver
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig, cycle
from repro.testkit.failpoints import FAILPOINTS

CONFIG = dict(
    n_segments=48, segment_units=16, fill_factor=0.7, clean_trigger=3, clean_batch=4
)


def aged_store(policy, **overrides):
    """A store with sealed segments of mixed emptiness and no cycle
    active: the next ``clean_begin`` has a real choice to make."""
    cfg = StoreConfig(**dict(CONFIG, **overrides))
    store = LogStructuredStore(cfg, make_policy(policy))
    rng = np.random.default_rng(5)
    n = cfg.user_pages
    if policy.endswith("-opt"):
        store.set_oracle_frequencies(rng.random(n))
    store.load_sequential(n)
    store.write_batch(np.minimum(rng.zipf(1.3, 2000) - 1, n - 1))
    assert store.clean_cursor is None and store.stats.clean_cycles > 0
    return store


def count_rankings(policy):
    """Wrap ``policy.rank_columns``; returns the list that collects the
    size of every id set it is evaluated over."""
    sizes = []
    rank_columns = policy.rank_columns

    def counted(segs, ids):
        sizes.append(ids.size)
        return rank_columns(segs, ids)

    policy.rank_columns = counted
    return sizes


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestRankOnce:
    @pytest.mark.parametrize("policy", ["mdc", "cost-benefit"])
    def test_one_evaluation_per_cycle_and_none_over_the_victims(self, policy):
        store = aged_store(policy)
        ranked = count_rankings(store.policy)
        with StoreObserver(store) as observer:
            candidates = store.sealed_segments().size
            store.clean()
        assert ranked == [candidates]
        (decision,) = observer.decisions
        assert len(decision["victims"]) < candidates

    @pytest.mark.parametrize(
        "policy", ["mdc", "mdc-opt", "cost-benefit", "greedy", "age"]
    )
    def test_the_stashed_score_is_the_recomputed_one_bit_for_bit(self, policy):
        store = aged_store(policy)
        segs = store.segments
        victims = store.policy.select_victims(store.sealed_segments())
        ids = np.asarray(victims, dtype=np.int64)
        ranked = count_rankings(store.policy)
        warm = store.policy.decision_columns(segs, ids)
        assert ranked == []
        assert bits(warm["score"]) == bits(store.policy.rank_columns(segs, ids))
        assert ranked == [ids.size]

    def test_cold_calls_recompute(self):
        """No matching stash — other ids, a moved clock, a segment that
        changed since — means the score is ranked afresh."""
        store = aged_store("mdc")
        segs, policy = store.segments, store.policy
        victims = policy.select_victims(store.sealed_segments())
        ids = np.asarray(victims, dtype=np.int64)

        def score(of):
            return bits(policy.decision_columns(segs, of)["score"])

        def fresh(of):
            return bits(policy.rank_columns(segs, of))

        others = np.setdiff1d(store.sealed_segments(), ids)[:3]
        assert score(others) == fresh(others)
        assert score(ids[::-1]) == fresh(ids[::-1])
        assert score(ids[:2]) == fresh(ids[:2])
        # A victim is invalidated at the same clock: its epoch moved.
        page = int(store.pages.live_pages_of(segs, victims[0])[0])
        store._invalidate(page, victims[0])
        assert score(ids) == fresh(ids)
        victims = policy.select_victims(store.sealed_segments())
        ids = np.asarray(victims, dtype=np.int64)
        before = score(ids)
        store.clock += 1000
        assert score(ids) == fresh(ids) != before

    def test_multi_log_explains_its_own_choice_without_a_stash(self):
        store = aged_store("multi-log")
        with StoreObserver(store) as observer:
            store.clean()
        (decision,) = observer.decisions
        assert [row["score"] for row in decision["victims"]] == [
            -row["A"] for row in decision["victims"]
        ]


class TestFailpointContext:
    @pytest.fixture
    def spy(self, monkeypatch):
        """Calls reaching the ``failpoint`` name the cleaning cycle's
        module imported."""
        calls = []
        real = cycle.failpoint

        def failpoint(name, **ctx):
            calls.append((name, ctx))
            real(name, **ctx)

        monkeypatch.setattr(cycle, "failpoint", failpoint)
        return calls

    def test_a_quiet_registry_is_never_reached(self, spy):
        store = aged_store("mdc")
        assert not FAILPOINTS.active
        store.clean()
        store.clean_begin()
        store.clean_step(3)
        store.clean_step(None)
        assert [name for name, _ in spy if name.startswith("store.clean")] == []

    def test_an_armed_failpoint_sees_the_staged_order_as_lists(self, spy):
        store = aged_store("mdc")
        seen = []
        FAILPOINTS.arm("store.clean.pre_relocate", hook=seen.append)
        expected_victims = store.policy.select_victims(store.sealed_segments())
        expected_moved, _ = reference_live_slots(store, expected_victims)
        cursor = store.clean_begin()
        (ctx,) = seen
        assert ctx == {"victims": expected_victims, "moved": expected_moved}
        assert type(ctx["victims"]) is list and type(ctx["moved"]) is list
        assert all(type(x) is int for x in ctx["victims"] + ctx["moved"])
        assert sorted(cursor.pending.tolist()) == sorted(expected_moved)
        assert [name for name, _ in spy] == ["store.clean.pre_relocate"]

    def test_a_traced_step_still_reports_its_position(self, spy):
        store = aged_store("mdc")
        store.clean_begin()
        staged = store.clean_pending
        with FAILPOINTS.tracing():
            store.clean_step(2)
        assert spy == [
            ("store.clean.step", {"pos": 0, "remaining": staged, "budget": 2})
        ]


def reference_live_slots(store, victims):
    """Per victim, per slot, in Python: the relocation order."""
    segs, pages = store.segments, store.pages
    moved, src = [], []
    for victim in victims:
        for slot, pid in enumerate(segs.slot_pages_of(victim).tolist()):
            seg_now, slot_now = pages.location(pid)
            if seg_now == victim and slot_now == slot:
                moved.append(pid)
                src.append(victim)
    return moved, src


class TestOnePassStaging:
    def test_equals_the_per_slot_reference_on_awkward_victims(self):
        """Variable-size pages (unequal ``slot_count``), an all-dead
        victim, and segments on a later life whose tail slots still hold
        an earlier life's ids."""
        store = aged_store("greedy", fill_factor=0.5)
        rng = np.random.default_rng(9)
        n = store.config.user_pages // 2
        for _ in range(25):
            store.write_batch(rng.integers(0, n, 120), rng.integers(1, 4, 120))
        segs, pages = store.segments, store.pages
        sealed = store.sealed_segments()
        dead = int(sealed[np.argmax(segs.live_count[sealed])])
        for pid in pages.live_pages_of(segs, dead):
            store.trim(pid)
        victims = rng.permutation(sealed)
        counts = segs.slot_count[victims]
        assert counts.min() < counts.max()
        assert segs.live_count[dead] == 0 and dead in victims
        stale_tail = [
            int(v)
            for v in victims
            if segs.erase_count[v] > 0
            and segs.slot_page[v, segs.slot_count[v]:].any()
        ]
        assert stale_tail, "no victim on a later life with a shorter slot log"
        moved, src = segs.live_slots(victims, pages)
        assert (moved.tolist(), src.tolist()) == reference_live_slots(
            store, victims.tolist()
        )
        assert moved.size == int(segs.live_count[victims].sum())
        # Narrow blocks too: the widest slot log of a batch sets its width.
        shortest_first = victims[np.argsort(counts, kind="stable")]
        for k in (1, 2, 5):
            batch = shortest_first[:k]
            assert segs.slot_count[batch].max() < segs.capacity
            moved, src = segs.live_slots(batch, pages)
            assert (moved.tolist(), src.tolist()) == reference_live_slots(
                store, batch.tolist()
            )
