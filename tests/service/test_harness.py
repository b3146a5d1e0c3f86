"""Harness determinism and the op-trace roundtrip."""

import dataclasses

import pytest

from repro.service import (
    HarnessConfig,
    build_service,
    ops_stream,
    read_ops_jsonl,
    replay_ops,
    run_harness,
    shard_config,
    write_ops_jsonl,
)
from repro.service.harness import drive

QUICK = dict(ops=3000, keys_per_tenant=192, tick_every=128, sample_interval=512)


def quick_cfg(**overrides):
    base = dict(QUICK)
    base.update(overrides)
    return HarnessConfig.quick(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HarnessConfig(dist="nope")
        with pytest.raises(ValueError):
            HarnessConfig(n_tenants=10, n_clients=4)
        with pytest.raises(ValueError):
            HarnessConfig(delete_frac=1.0)
        with pytest.raises(ValueError):
            HarnessConfig(ops=0)
        with pytest.raises(ValueError, match="tick_every"):
            HarnessConfig(tick_every=0)

    def test_shard_config_has_cleaning_headroom(self):
        cfg = quick_cfg()
        sc = shard_config(cfg)
        assert sc.n_segments >= 12
        assert sc.fill_factor == cfg.target_fill
        # Sized down when spread over more shards.
        assert shard_config(cfg, n_shards=1).n_segments > sc.n_segments


class TestOpsStream:
    def test_deterministic_and_sized(self):
        cfg = quick_cfg()
        a = list(ops_stream(cfg))
        b = list(ops_stream(cfg))
        assert a == b
        assert len(a) == cfg.ops

    def test_seed_changes_stream(self):
        assert list(ops_stream(quick_cfg(seed=0))) != list(
            ops_stream(quick_cfg(seed=1))
        )

    def test_ops_shape(self):
        cfg = quick_cfg()
        tenants = {"t%d" % i for i in range(cfg.n_tenants)}
        deletes = 0
        for op, tenant, key, size in ops_stream(cfg):
            assert tenant in tenants
            assert 0 <= key < cfg.keys_per_tenant
            if op == "delete":
                deletes += 1
                assert size == 0
            else:
                assert op == "put"
                assert 1 <= size <= cfg.value_bytes
        assert 0 < deletes < cfg.ops * 0.12

    @pytest.mark.parametrize("dist", ["uniform", "zipf-90-10", "hotcold"])
    def test_all_dists_generate(self, dist):
        cfg = quick_cfg(dist=dist, ops=500)
        assert len(list(ops_stream(cfg))) == 500


class TestDeterminism:
    def test_same_seed_byte_identical_metrics(self, tmp_path):
        cfg = quick_cfg()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1 = run_harness(cfg, metrics_out=str(p1))
        r2 = run_harness(cfg, metrics_out=str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        d1, d2 = r1.to_dict(), r2.to_dict()
        # Everything but wall clock is reproducible.
        for volatile in ("elapsed_s", "writes_per_sec"):
            d1.pop(volatile), d2.pop(volatile)
        assert d1 == d2

    def test_replay_matches_generated_run(self, tmp_path):
        cfg = quick_cfg()
        trace = tmp_path / "ops.jsonl"
        n = write_ops_jsonl(cfg, str(trace))
        assert n == cfg.ops
        read_cfg, ops = read_ops_jsonl(str(trace))
        assert read_cfg == cfg
        assert ops == list(ops_stream(cfg))
        p1, p2 = tmp_path / "live.jsonl", tmp_path / "replay.jsonl"
        run_harness(cfg, metrics_out=str(p1))
        replay_ops(read_cfg, ops, metrics_out=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_ops_without_header(self, tmp_path):
        trace = tmp_path / "bare.jsonl"
        trace.write_text(
            '{"op": "put", "tenant": "t0", "key": 3, "size": 8}\n'
            '{"op": "delete", "tenant": "t0", "key": 3, "size": 0}\n'
        )
        cfg, ops = read_ops_jsonl(str(trace))
        assert cfg is None
        assert ops == [("put", "t0", 3, 8), ("delete", "t0", 3, 0)]


class TestResults:
    def test_harness_result_accounting(self):
        cfg = quick_cfg()
        result = run_harness(cfg)
        assert result.ops == cfg.ops == result.puts + result.deletes
        assert result.shards == cfg.n_shards
        assert len(result.wamp_per_shard) == cfg.n_shards
        assert sum(result.ops_per_shard) == cfg.ops
        assert result.batches_flushed > 0
        assert result.keys_live > 0
        assert result.writes_per_sec > 0
        assert "writes/sec" in result.report()

    def test_result_dict_roundtrip(self):
        result = run_harness(quick_cfg(ops=800))
        d = result.to_dict()
        assert d["label"].startswith("service[")
        assert set(d) == set(dataclasses.asdict(result))


#: The harness's own zipf shape with one-unit records (so Equation 2 is
#: exact in pages) and half the keys (so 150k ops reach steady state):
#: 156-segment shards, a 9-segment buffer under ``mdc``.
PAPER_SHAPE = HarnessConfig(
    ops=150_000, keys_per_tenant=2048, value_bytes=32, seed=0
)


@pytest.fixture(scope="module")
def paper_arms():
    """``policy -> pool`` after one seeded run per arm (~1 s each)."""
    pools = {}
    for policy in ("mdc", "mdc-no-sep-user"):
        cfg = PAPER_SHAPE.scaled(policy=policy)
        service = build_service(cfg)
        drive(service, ops_stream(cfg), cfg.tick_every)
        service.close()
        pools[policy] = service.pool
    return pools


class TestPaperShapeAtTheServiceBoundary:
    """The paper's claims one layer up: what Figure 3 says of the raw
    store, asked of the pool the service runs."""

    def test_mdc_is_below_its_ablation(self, paper_arms):
        """Figure 3's ordering (``mdc`` 1.17 vs ``mdc-no-sep-user`` 1.49
        at 80-20).  Measured here: 0.0800 vs 0.1325, -39.6 % (seeds 1-3:
        -40.8, -43.4, -42.7 %); asserted with a 25 % margin."""
        assert paper_arms["mdc"][0].store.buffer is not None
        assert paper_arms["mdc-no-sep-user"][0].store.buffer is None
        wamp = {
            policy: pool.stats_summary()["wamp_aggregate"]
            for policy, pool in paper_arms.items()
        }
        assert 0 < wamp["mdc"] < 0.75 * wamp["mdc-no-sep-user"]

    @pytest.mark.parametrize("policy", ["mdc", "mdc-no-sep-user"])
    def test_pool_wamp_is_the_aggregate_of_its_shards(self, paper_arms, policy):
        pool = paper_arms[policy]
        stats = [kv.store.stats for kv in pool.shards]
        gc = sum(s.gc_writes for s in stats)
        user = sum(s.user_writes for s in stats)
        assert gc > 0
        assert pool.stats_summary()["wamp_aggregate"] == gc / user

    @pytest.mark.parametrize("policy", ["mdc", "mdc-no-sep-user"])
    def test_equation_2_is_exact_on_every_shard(self, paper_arms, policy):
        """``gc_writes == B * (segments_cleaned - cleaned_emptiness_sum)``
        in completed form (a governed cycle may be mid-flight)."""
        for kv in paper_arms[policy].shards:
            store, stats = kv.store, kv.store.stats
            assert stats.segments_cleaned > 0
            moved = stats.gc_writes + store.relocating_units()
            expected = store.segments.capacity * (
                stats.segments_cleaned - stats.cleaned_emptiness_sum
            ) - store.relocating_dead_units()
            assert moved == pytest.approx(expected, rel=1e-9)
            kv.check_consistency()
