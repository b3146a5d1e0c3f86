"""Tail latency and step-granular cleaning governance.

The property the governor exists for rides here: what a foreground
flush waits behind is bounded by pages — measured through the service's
own ``flush_stall_pages`` histogram, the same signal ``repro bench
latency`` gates on.
"""

import dataclasses

import pytest

from repro.obs import PAGES_EDGES, MetricsRegistry
from repro.service.harness import HarnessConfig, build_service, ops_stream
from repro.service.latency import check, latency_config, render, run
from repro.service.pool import StorePool
from repro.service.service import Service
from repro.store import StoreConfig

CFG = StoreConfig(
    n_segments=32,
    segment_units=8,
    fill_factor=0.65,
    clean_trigger=2,
    clean_batch=2,
)


def fill_shard(kv, n_keys, rounds=3, seed=0):
    """Seed ``n_keys`` records, then overwrite random subsets so sealed
    segments end up with *mixed* liveness — victims that actually have
    pages to relocate (sequential refills leave only fully-dead
    segments, which clean for free)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    kv.put_many([(("k", i), b"\0" * 8) for i in range(n_keys)])
    for r in range(rounds):
        picks = rng.integers(0, n_keys, size=n_keys)
        kv.put_many(
            [(("k", int(i)), bytes([r % 255 + 1]) * 8) for i in picks]
        )


class TestIncrementalGovernance:
    def test_incremental_pool_builds_per_shard_cleaners(self):
        pool = StorePool(3, CFG, policy="greedy")
        assert len(pool.cleaners) == 3
        shard = pool.add_shard()
        assert len(pool.cleaners) == 4
        assert pool.cleaners[-1].store is shard.store

    def test_idle_round_restores_free_target(self):
        metrics = MetricsRegistry()
        pool = StorePool(
            2, CFG, policy="greedy",
            pages_per_step=4, free_target=4, gc_budget=256,
            metrics=metrics,
        )
        for kv in pool.shards:
            fill_shard(kv, 120)
        assert any(
            kv.store.free_segment_count < 4 for kv in pool.shards
        )
        guard = 0
        while any(c.needs_cleaning() for c in pool.cleaners) and guard < 200:
            pool.maintain(idle=True)
            guard += 1
        assert all(
            kv.store.free_segment_count >= 4 for kv in pool.shards
        )
        counters = metrics.snapshot().counters
        assert counters.get("gc_governed_steps", 0) > 0
        assert counters.get("gc_governed_pages", 0) > 0
        pool.check_consistency()

    def test_loaded_round_defers_non_urgent_shards(self):
        metrics = MetricsRegistry()
        pool = StorePool(
            1, CFG, policy="greedy",
            pages_per_step=4, free_target=8, gc_budget=256,
            metrics=metrics,
        )
        kv = pool.shards[0]
        fill_shard(kv, 120)
        # Put the shard between trigger and free_target: needy but not
        # urgent.
        cleaner = pool.cleaners[0]
        guard = 0
        while cleaner.behind() and guard < 200:
            cleaner.step()
            guard += 1
        assert cleaner.needs_cleaning()
        moved = pool.maintain()  # loaded round: must defer
        assert moved == 0
        counters = metrics.snapshot().counters
        assert counters.get("gc_deferred_shards", 0) >= 1
        # The idle round then does the deferred work.
        assert pool.maintain(idle=True) > 0

    def test_step_bounded_by_pages_per_step_when_loaded(self):
        pool = StorePool(
            1, CFG, policy="greedy",
            pages_per_step=2, free_target=6, gc_budget=256,
        )
        fill_shard(pool.shards[0], 120)
        store = pool.shards[0].store
        if not pool.cleaners[0].behind():
            # Drive the shard below the reactive trigger so the loaded
            # round has urgent work.
            while (
                store.free_segment_count >= store.config.clean_trigger
                and len(pool.shards[0]) > 0
            ):
                fill_shard(pool.shards[0], 40, rounds=1)
                if pool.cleaners[0].behind():
                    break
        if not pool.cleaners[0].behind():
            pytest.skip("could not drive the shard below trigger")
        moved = pool.maintain()
        assert 0 < moved <= 2

    def test_stats_summary_reports_pending(self):
        pool = StorePool(1, CFG, policy="greedy")
        assert "cleaner_pending" in pool.stats_summary()


class TestServicePlumbing:
    def test_service_plumbs_pages_per_step(self):
        svc = Service(2, CFG, policy="greedy", pages_per_step=8)
        assert [c.pages_per_step for c in svc.pool.cleaners] == [8, 8]
        for i in range(300):
            svc.put(("t", i % 60), b"x" * 8)
            if i % 32 == 31:
                svc.tick()
        svc.flush()
        svc.tick()
        svc.pool.check_consistency()
        svc.close()

    def test_flush_stall_histogram_populated(self):
        svc = Service(1, CFG, policy="greedy", batch_size=16)
        for i in range(400):
            svc.put(("t", i % 60), b"x" * 8)
        svc.flush()
        hist = svc.metrics.histogram("flush_stall_pages", PAGES_EDGES)
        assert hist.count > 0  # stall-free flushes observe 0 too
        svc.close()


def drive(cfg, rounds=None):
    """Run ``cfg``'s seeded op stream through a fresh service; returns
    (flush-stall histogram, pooled reactive write stalls, pool).  With
    ``rounds`` given, every loaded round's page count is appended."""
    svc = build_service(cfg)
    if rounds is not None:
        svc.queue.after_flush = lambda shard: rounds.append(
            svc.pool.maintain()
        )
    for n, (op, tenant, key, size) in enumerate(ops_stream(cfg), 1):
        if op == "put":
            svc.put(key, bytes(size), tenant=tenant)
        else:
            svc.delete(key, tenant=tenant)
        if n % cfg.tick_every == 0:
            svc.tick()
    svc.flush()
    hist = svc.metrics.histogram("flush_stall_pages", PAGES_EDGES)
    write_stalls = sum(
        obs.metrics.counter("write_stalls").value for obs in svc.observers
    )
    svc.close()
    return hist, write_stalls, svc.pool


def loaded_round_bound(pool):
    share_cap = max(1, int(pool.gc_max_share * pool.gc_budget))
    return min(
        pool.gc_budget,
        pool.n_shards * min(pool.pages_per_step, share_cap),
    )


#: Small flushes and rare ticks: cleaning is driven by the loaded rounds
#: fired after each flush, not by the idle tick.
LOADED_CFG = HarnessConfig.quick(
    ops=14_000, batch_size=8, tick_every=4096, clean_batch=2
)


class TestStallBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flush_stall_bounded_when_steps_keep_pace(self, seed):
        """With no inline (reactive) cleaning, all a flush waits behind
        is one loaded round: at most one step per shard."""
        hist, write_stalls, pool = drive(LOADED_CFG.scaled(seed=seed))
        assert write_stalls == 0
        assert hist.total > 0  # loaded rounds did relocate pages
        assert hist.max_observed <= loaded_round_bound(pool)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loaded_round_never_exceeds_one_step_per_shard(self, seed):
        """One-page steps cannot keep pace (writes do stall inline), but
        the governor's own share of every flush stays bounded."""
        rounds = []
        _, write_stalls, pool = drive(
            LOADED_CFG.scaled(seed=seed, pages_per_step=1), rounds
        )
        assert write_stalls > 0
        assert 0 < max(rounds) <= loaded_round_bound(pool) == 4


@pytest.fixture(scope="module")
def latency_report():
    """One seeded run shared by the assertions below (the expensive
    part; ~16k ops)."""
    return run(quick=True, seed=0, ops=16000)


class TestLatencyContrast:
    def test_incremental_p99_strictly_lower(self, latency_report):
        """The incremental cleaner's p99 flush stall sits strictly
        below one step budget on a load that does clean."""
        assert latency_report["gc_governed_pages"] > 0
        assert (
            latency_report["flush_stall_p99_pages"]
            < latency_report["config"]["pages_per_step"]
        )

    def test_report_passes_its_own_gate(self, latency_report):
        assert check(latency_report) == []

    def test_render_mentions_the_gate(self, latency_report):
        text = render(latency_report)
        assert "stall p99" in text and "Wamp" in text
        assert "<= 16 pages" in text

    def test_regression_check_catches_ratio_drift(self, latency_report):
        """Wamp more than ``margin`` above the baseline's is a problem."""
        drifted = dict(
            latency_report,
            wamp_aggregate=latency_report["wamp_aggregate"] * 1.4,
        )
        assert check(drifted, latency_report, 0.25)
        assert check(latency_report, latency_report, 0.25) == []

    def test_baseline_of_another_shape_is_a_problem(self, latency_report):
        """CI used to pass the quick shape (Wamp 0.1088) against the
        200k-op baseline's 0.2025, a ceiling 2.33x what the run
        measures.  Wamp depends on the shape, so that is no comparison
        at any tolerance."""
        full = dict(
            latency_report,
            wamp_aggregate=2 * latency_report["wamp_aggregate"],
            config=dataclasses.asdict(latency_config(quick=False)),
        )
        for tolerance in (None, 0.25, 100.0):
            assert check(latency_report, full, tolerance) == [
                "baseline recorded at another shape: ops 200000 vs 16000, "
                "keys_per_tenant 4096 vs 1024, sample_interval None vs 2048"
            ]

    def test_other_seed_same_shape_is_compared(self, latency_report):
        other = dict(
            latency_report,
            seed=1,
            config=dict(latency_report["config"], seed=1),
        )
        assert check(latency_report, other, 0.25) == []
        other["wamp_aggregate"] = latency_report["wamp_aggregate"] / 1.4
        (problem,) = check(latency_report, other, 0.25)
        assert "exceeds the committed baseline" in problem


class TestGateLogic:
    def _report(self, p99, wamp=1.0):
        return {
            "flush_stall_p99_pages": p99,
            "wamp_aggregate": wamp,
            "config": {"pages_per_step": 16},
        }

    def test_flat_run_is_a_problem(self):
        assert check(self._report(0.0, wamp=0.0))

    def test_p99_over_step_budget_is_a_problem(self):
        assert check(self._report(16.5))

    def test_wamp_overrun_is_a_problem(self):
        assert check(
            self._report(1.0, wamp=1.3), self._report(1.0, wamp=1.0)
        )

    def test_good_report_is_clean(self):
        report = self._report(16.0)
        assert check(report) == []
        assert check(report, report) == []
