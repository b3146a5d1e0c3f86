"""Store pool: per-shard isolation and budgeted cleaning governance."""

import pytest

from repro.obs import MetricsRegistry
from repro.policies import make_policy
from repro.service import StorePool
from repro.store import StoreConfig


def pool_config(**overrides):
    cfg = dict(
        n_segments=24, segment_units=16, fill_factor=0.5,
        clean_trigger=2, clean_batch=2,
    )
    cfg.update(overrides)
    return StoreConfig(**cfg)


def fill_shard(pool, shard, keys=50, size=24, rounds=1):
    """Load then churn one shard so its free pool shrinks."""
    for r in range(rounds):
        pool[shard].put_many(
            [("s%d-k%d" % (shard, k), bytes(size)) for k in range(keys)]
        )


class TestShape:
    def test_policy_instance_rejected(self):
        with pytest.raises(TypeError):
            StorePool(2, pool_config(), policy=make_policy("greedy"))

    def test_shards_are_independent(self):
        pool = StorePool(2, pool_config(), policy="greedy", unit_bytes=8)
        pool[0].put("a", b"x")
        assert len(pool[0]) == 1 and len(pool[1]) == 0
        assert pool[0].store is not pool[1].store
        assert pool[0].store.policy is not pool[1].store.policy

    def test_add_shard(self):
        pool = StorePool(1, pool_config(), policy="greedy")
        shard = pool.add_shard()
        assert pool.n_shards == 2
        assert pool[1] is shard and len(shard) == 0

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            StorePool(0, pool_config())
        with pytest.raises(ValueError):
            StorePool(1, pool_config(), gc_budget=0)


class TestShardBufferAndFloor:
    """The two derived quantities: the buffer a shard gets from its own
    geometry, and the floor its cleaner holds for one drain of it."""

    @pytest.mark.parametrize(
        "n_segments, named, built",
        [
            (15, 0, 0),      # under 16 segments: none
            (16, 0, 1),
            (24, 0, 1),
            (160, 0, 10),    # n // 16: never more RAM than 1/16 of the device
            (256, 0, 16),    # Figure 4's knee ...
            (1024, 0, 16),   # ... and no more where the device affords it
            (24, 5, 5),      # an explicit size is honoured
            (1024, 2, 2),
        ],
    )
    def test_a_shard_gets_the_papers_buffer_from_its_geometry(
        self, n_segments, named, built
    ):
        config = pool_config(
            n_segments=n_segments, sort_buffer_segments=named
        )
        pool = StorePool(1, config, policy="mdc")
        assert pool.config.sort_buffer_segments == built
        shard = pool.add_shard()  # growth builds the same shard
        for kv in (pool[0], shard):
            buffer = kv.store.buffer
            if built == 0:
                assert buffer is None
            else:
                assert buffer.capacity_units == built * config.segment_units
        assert pool.config == config.scaled(sort_buffer_segments=built)

    @pytest.mark.parametrize(
        "policy", ["greedy", "age", "mdc-no-sep-user", "multi-log"]
    )
    def test_a_policy_that_takes_no_buffer_builds_none(self, policy):
        pool = StorePool(1, pool_config(n_segments=256), policy=policy)
        assert pool[0].store.buffer is None

    def test_floor_is_headroom_plus_one_drain(self):
        config = pool_config(n_segments=160)
        trigger = config.clean_trigger
        default = StorePool(2, config, policy="mdc")
        assert [c.floor for c in default.cleaners] == [trigger + 1 + 10] * 2
        assert default[0].store.reactive_trigger() == trigger
        default.add_shard()
        assert default.cleaners[2].floor == trigger + 1 + 10
        named = StorePool(
            1, config.scaled(sort_buffer_segments=3), policy="mdc"
        )
        assert named.cleaners[0].floor == trigger + 1 + 3

    @pytest.mark.parametrize("policy", ["greedy", "age", "mdc-no-sep-user"])
    def test_a_no_buffer_policy_holds_the_floor_it_held_before(self, policy):
        config = pool_config(n_segments=160)
        default = StorePool(1, config, policy=policy)
        assert default.cleaners[0].floor == config.clean_trigger + 1

    def test_idle_rounds_restore_the_floor_and_a_drain_lands_in_it(self):
        """What the floor is for: with it held, the put that drains the
        buffer allocates only segments the idle rounds already freed —
        no inline cycle under it."""
        pool = StorePool(
            1, pool_config(n_segments=64, segment_units=16, clean_batch=4),
            policy="mdc", unit_bytes=8, gc_budget=10_000,
        )
        kv, cleaner = pool[0], pool.cleaners[0]
        store = kv.store
        assert store.buffer.capacity_units == 4 * 16
        assert cleaner.floor == 2 + 1 + 4
        keys = [("k", i) for i in range(440)]
        for r in range(6):
            kv.put_many((key, bytes([r]) * 8) for key in keys[r % 2 :: 2])
        kv.put_many((key, b"z" * 8) for key in keys)
        drains = cycles = 0
        for r in range(40):
            guard = 0
            while cleaner.needs_cleaning() and guard < 100:
                pool.maintain(idle=True)
                guard += 1
            assert store.free_segment_count >= cleaner.floor
            assert store.clean_cursor is None
            before = store.stats.clean_cycles
            flushed = store.stats.user_device_writes
            kv.put_many(
                (keys[(7 * r + 11 * j) % len(keys)], bytes([r + 1]) * 8)
                for j in range(24)
            )
            drains += store.stats.user_device_writes > flushed
            cycles += store.stats.clean_cycles - before
        assert drains >= 10
        assert cycles == 0  # every cycle ran in a governed round
        assert store.stats.gc_writes > 0
        pool.check_consistency()


class TestGovernance:
    """Governed rounds against the derived floor.  A buffered ``mdc``
    shard (8 buffer segments: floor ``2 + 1 + 8`` = 11) leaves a wide
    gap between the reactive trigger and its floor, the "needy but not
    behind" state a loaded round defers."""

    def test_maintain_noop_when_all_shards_healthy(self):
        pool = StorePool(2, pool_config(), policy="greedy", unit_bytes=8)
        assert pool.maintain() == 0

    def test_maintain_tops_up_a_needy_shard(self):
        pool = StorePool(
            2, pool_config(sort_buffer_segments=8), policy="mdc",
            unit_bytes=8, gc_budget=10_000,
        )
        fill_shard(pool, 0, keys=50, size=24, rounds=4)
        cleaner = pool.cleaners[0]
        free_before = pool[0].store.free_segment_count
        assert cleaner.needs_cleaning() and not cleaner.behind()
        assert free_before < cleaner.floor == 11
        assert pool.maintain() == 0  # needy, not behind: loaded defers
        pool.maintain(idle=True)
        assert pool[0].store.free_segment_count >= min(
            cleaner.floor, free_before + 1
        )
        # The healthy shard was never touched.
        assert pool[1].store.stats.gc_writes == 0

    def test_budget_caps_one_round(self):
        metrics = MetricsRegistry()
        pool = StorePool(
            1, pool_config(sort_buffer_segments=8), policy="mdc",
            unit_bytes=8, gc_budget=4, metrics=metrics,
        )
        fill_shard(pool, 0, keys=50, size=24, rounds=4)
        assert pool.cleaners[0].needs_cleaning()
        spent = pool.maintain(idle=True)
        assert spent <= 4
        counters = metrics.snapshot().counters
        assert counters.get("gc_governed_pages", 0) == spent

    def test_repeated_maintain_reaches_target(self):
        pool = StorePool(
            1, pool_config(sort_buffer_segments=8), policy="mdc",
            unit_bytes=8, gc_budget=8,
        )
        fill_shard(pool, 0, keys=50, size=24, rounds=4)
        floor = pool.cleaners[0].floor
        for _ in range(200):
            if pool[0].store.free_segment_count >= floor:
                break
            assert pool.maintain(idle=True) <= 8
        assert pool[0].store.free_segment_count >= floor
        pool.check_consistency()


class TestAggregates:
    def test_summary_and_wamp_spread(self):
        pool = StorePool(2, pool_config(), policy="greedy", unit_bytes=8)
        fill_shard(pool, 0, keys=50, size=24, rounds=8)
        pool[1].put("only", b"x")
        summary = pool.stats_summary()
        assert summary["shards"] == 2.0
        assert summary["keys"] == float(len(pool[0]) + 1)
        assert summary["user_writes"] > 0
        wamps = pool.wamp_per_shard()
        assert len(wamps) == 2
        assert summary["wamp_spread"] == pytest.approx(
            max(wamps) - min(wamps)
        )
        assert len(pool.free_segments()) == 2
