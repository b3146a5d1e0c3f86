"""Age, greedy, and cost-benefit victim selection on a live store."""

import numpy as np
import pytest

from repro.policies import make_policy
from repro.store import LogStructuredStore


def loaded_store(cfg, name):
    store = LogStructuredStore(cfg, make_policy(name))
    store.load_sequential(cfg.user_pages)
    return store


def rank(store, segs):
    """The policy's priorities for ``segs`` (lower = cleaned earlier)."""
    return store.policy.rank_columns(
        store.segments, np.asarray(segs, dtype=np.int64)
    )


class TestAge:
    def test_selects_oldest_sealed_segment_first(self, small_config):
        store = loaded_store(small_config, "age")
        # Create some garbage so a cleaning batch can reclaim space.
        for pid in range(small_config.segment_units * 3):
            store.write(pid)
        sealed = store.sealed_segments()
        oldest = min(sealed, key=lambda s: store.segments.seal_time[s])
        victims = store.policy.select_victims(sealed, n=1)
        assert victims[0] == oldest

    def test_returns_empty_when_nothing_reclaimable(self, small_config):
        # Straight after the load every segment is fully live: there is
        # nothing to gain by cleaning, and the policy must say so.
        store = loaded_store(small_config, "age")
        assert store.policy.select_victims(store.sealed_segments()) == []

    def test_extends_batch_until_net_gain(self, small_config):
        store = loaded_store(small_config, "age")
        sealed = store.sealed_segments()
        # Fully live segments reclaim nothing; the batch must extend past
        # n=1 until a whole segment's worth of space is gained.
        for pid in range(small_config.segment_units * 2):
            store.write(pid)
        victims = store.policy.select_victims(store.sealed_segments(), n=1)
        segs = store.segments
        reclaim = sum(segs.available_units(v) for v in victims)
        assert reclaim >= small_config.segment_units


class TestGreedy:
    def test_selects_emptiest_first(self, small_config):
        store = loaded_store(small_config, "greedy")
        target = store.sealed_segments()[3]
        for pid in store.pages.live_pages_of(store.segments, target)[:10]:
            store.write(pid)
        victims = store.policy.select_victims(store.sealed_segments(), n=1)
        assert victims[0] == target


class TestCostBenefit:
    def test_prefers_old_half_empty_over_new_emptier(self, small_config):
        # Synthetic states so the comparison is exact: an aged segment at
        # E=0.5 versus a brand-new one at E=0.75.  Benefit/cost weights
        # age in, so the old one must rank first.
        store = loaded_store(small_config, "cost-benefit")
        segs = store.segments
        store.clock = 10_000
        old_seg, new_seg = store.sealed_segments()[:2]
        capacity = segs.capacity
        segs.seal_time[old_seg] = 100
        segs.live_units[old_seg] = capacity // 2
        segs.seal_time[new_seg] = 9_990
        segs.live_units[new_seg] = capacity // 4
        ranks = rank(store, [old_seg, new_seg])
        assert ranks[0] < ranks[1]

    def test_emptier_wins_at_equal_age(self, small_config):
        store = loaded_store(small_config, "cost-benefit")
        segs = store.segments
        store.clock = 10_000
        a, b = store.sealed_segments()[:2]
        segs.seal_time[a] = segs.seal_time[b] = 100
        segs.live_units[a] = segs.capacity // 2
        segs.live_units[b] = segs.capacity // 4
        ranks = rank(store, [a, b])
        assert ranks[1] < ranks[0]

    def test_paper_variant_is_pathological_under_uniform(self, small_config):
        """The literal (1-E)*age/E formula cleans nearly-full segments,
        so its write amplification explodes — this documents why the
        repo's default cost-benefit uses the Rosenblum form."""
        wamps = {}
        for name in ("cost-benefit", "cost-benefit-paper"):
            store = loaded_store(small_config, name)
            n = small_config.user_pages
            mark = store.stats.snapshot()
            rng_state = 12345
            for i in range(20_000):
                rng_state = (rng_state * 1103515245 + 12345) % (1 << 31)
                store.write(rng_state % n)
            wamps[name] = store.stats.window_since(mark).write_amplification
        assert wamps["cost-benefit-paper"] > 3 * wamps["cost-benefit"]
