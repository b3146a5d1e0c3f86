"""Service front-end: client semantics, elasticity, observability."""

import numpy as np
import pytest

from repro.kvstore import KVError
from repro.obs import Tracer
from repro.obs.export import validate_rows
from repro.service import Service
from repro.store import OutOfSpaceError, StoreConfig


def make_service(n_shards=2, **overrides):
    kwargs = dict(
        policy="greedy", unit_bytes=8, batch_size=16, flush_interval=2,
        max_depth=256, seed=0,
    )
    kwargs.update(overrides)
    kwargs["max_depth"] = max(kwargs["max_depth"], kwargs["batch_size"])
    return Service(
        n_shards,
        StoreConfig(
            n_segments=48, segment_units=16, fill_factor=0.5,
            clean_trigger=2, clean_batch=2,
        ),
        **kwargs,
    )


class TestClientSemantics:
    def test_read_your_writes_before_flush(self):
        svc = make_service(batch_size=1000, flush_interval=1000)
        svc.put("k", b"v", tenant="t0")
        assert svc.get("k", tenant="t0") == b"v"  # still queued
        svc.delete("k", tenant="t0")
        assert svc.get("k", tenant="t0") is None
        assert svc.get("k", tenant="t0", default=b"d") == b"d"

    def test_tenants_are_namespaced(self):
        svc = make_service()
        svc.put("k", b"alpha", tenant="a")
        svc.put("k", b"beta", tenant="b")
        svc.put("k", b"none")  # no tenant
        svc.flush()
        assert svc.get("k", tenant="a") == b"alpha"
        assert svc.get("k", tenant="b") == b"beta"
        assert svc.get("k") == b"none"

    def test_against_dict_model(self):
        svc = make_service()
        model = {}
        rng = np.random.default_rng(3)
        tenants = ["t0", "t1", "t2"]
        for step in range(3000):
            tenant = tenants[int(rng.integers(0, len(tenants)))]
            key = "k%d" % rng.integers(0, 80)
            if rng.random() < 0.15:
                svc.delete(key, tenant=tenant)
                model.pop((tenant, key), None)
            else:
                value = bytes(int(rng.integers(1, 40)))
                svc.put(key, value, tenant=tenant)
                model[(tenant, key)] = value
            if step % 100 == 0:
                svc.tick()
        svc.flush()
        for (tenant, key), value in model.items():
            assert svc.get(key, tenant=tenant) == value
        assert len(svc) == len(model)
        svc.pool.check_consistency()

    def test_routing_is_stable_per_key(self):
        svc = make_service(4)
        for i in range(50):
            key = "k%d" % i
            assert svc.shard_of(key, "t") == svc.shard_of(key, "t")
            assert svc.put(key, b"v", tenant="t") == svc.shard_of(key, "t")


class TestTickAndFlush:
    def test_tick_flushes_aged_ops_and_samples(self):
        svc = make_service(batch_size=1000, flush_interval=2)
        svc.put("k", b"v")
        svc.tick()
        assert svc.queue.depth == 1
        svc.tick()
        assert svc.queue.depth == 0
        assert svc.pool[svc.shard_of("k")].get((None, "k")) == b"v"

    def test_queue_depth_p95(self):
        svc = make_service(batch_size=1000, flush_interval=1000)
        assert svc.queue_depth_p95() == 0
        for i in range(10):
            svc.put("k%d" % i, b"v")
            svc.tick()
        assert svc.queue_depth_p95() >= 1


class TestElasticity:
    def test_scale_to_migrates_only_to_new_shards(self):
        svc = make_service(2, batch_size=64)
        model = {}
        for i in range(300):
            tenant = "t%d" % (i % 3)
            value = b"v%d" % i
            svc.put("k%d" % i, value, tenant=tenant)
            model[(tenant, "k%d" % i)] = value
        svc.flush()
        before = {
            (tenant, key): svc.shard_of(key, tenant)
            for (tenant, key) in model
        }
        moved = svc.scale_to(4)
        changed = 0
        for (tenant, key), value in model.items():
            after = svc.shard_of(key, tenant)
            if after != before[(tenant, key)]:
                assert after >= 2  # only onto the new shards
                changed += 1
            assert svc.get(key, tenant=tenant) == value
        assert moved == changed > 0
        # Old shards hold nothing that routes elsewhere now.
        for src in range(2):
            for skey in svc.pool[src].keys():
                tenant, key = skey
                assert svc.shard_of(key, tenant) == src
        svc.pool.check_consistency()
        counters = svc.metrics.snapshot().counters
        assert counters["rebalances"] == 1
        assert counters["keys_migrated"] == moved

    def test_growth_keeps_pool_queue_and_observers_aligned(self):
        """The queue must not share the pool's shard list: when it did,
        every grown shard was appended twice."""
        svc = make_service(2, batch_size=64)
        model = {}
        for i in range(100):
            svc.put("k%d" % i, b"v%d" % i, tenant="t")
            model["k%d" % i] = b"v%d" % i
        svc.scale_to(4)
        svc.scale_to(5)
        assert svc.pool.n_shards == 5
        assert len(svc.queue.shards) == len(svc.queue._pending) == 5
        assert len(svc.observers) == len(svc.pool.cleaners) == 5
        assert len(svc) == len(model)
        assert svc.pool.stats_summary()["keys"] == float(len(model))
        for key, value in model.items():
            assert svc.get(key, tenant="t") == value
        svc.pool.maintain(idle=True)
        svc.pool.check_consistency()

    def test_scale_to_migrates_records_still_in_a_source_buffer(self):
        """A record buffered on its source shard is a stored record:
        migration reads it from the value map and deletes it with a
        buffer TRIM.  None lost, none duplicated."""
        svc = make_service(2, policy="mdc", batch_size=64)
        assert all(kv.store.buffer is not None for kv in svc.pool.shards)
        model = {}
        for i in range(300):
            tenant = "t%d" % (i % 3)
            svc.put("k%d" % i, b"v%d" % i, tenant=tenant)
            model[(tenant, "k%d" % i)] = b"v%d" % i
        svc.flush()
        buffered = {
            skey
            for kv in svc.pool.shards
            for skey, slot in kv._slot_of.items()
            if slot in kv.store.buffer
        }
        assert buffered
        moved = svc.scale_to(4)
        movers = {
            skey for skey in model if svc.shard_of(skey[1], skey[0]) >= 2
        }
        assert moved == len(movers) and movers & buffered
        held = [skey for kv in svc.pool.shards for skey in kv.keys()]
        assert sorted(held) == sorted(model)  # each key on exactly one shard
        for (tenant, key), value in model.items():
            assert svc.get(key, tenant=tenant) == value
            assert (tenant, key) in svc.pool[svc.shard_of(key, tenant)]
        svc.pool.check_consistency()
        assert len(svc) == len(model)

    def test_scale_to_same_size_is_noop(self):
        svc = make_service(2)
        assert svc.scale_to(2) == 0

    def test_shrink_raises(self):
        svc = make_service(4)
        with pytest.raises(ValueError):
            svc.scale_to(2)

    def test_writes_after_growth_route_with_new_ring(self):
        svc = make_service(1)
        svc.put("a", b"1", tenant="t")
        svc.flush()
        svc.scale_to(3)
        svc.put("b", b"2", tenant="t")
        svc.flush()
        assert svc.get("a", tenant="t") == b"1"
        assert svc.get("b", tenant="t") == b"2"


class TestRefusedFlush:
    """A flush the store refuses (out of space): every op the queue
    acknowledged is either applied or still pending and readable."""

    @pytest.mark.parametrize("trigger", ["size", "tick", "flush_all"])
    def test_acknowledged_ops_survive_and_retry(self, trigger):
        svc = Service(
            1,
            StoreConfig(n_segments=16, segment_units=8, fill_factor=0.5),
            unit_bytes=8,
            batch_size=16 if trigger == "size" else 64,
            flush_interval=1,
            max_depth=64,
        )
        drain = {"size": lambda: None, "tick": svc.tick, "flush_all": svc.flush}
        n = 0
        with pytest.raises(OutOfSpaceError):
            while n < 1000:
                # Counted first: the put whose own flush is refused was
                # acknowledged into the queue all the same.
                n += 1
                svc.put(n - 1, b"x" * 8)
                if n % 16 == 0:
                    drain[trigger]()
        assert all(svc.get(key) == b"x" * 8 for key in range(n))
        pending = svc.queue.depth
        assert pending == svc.queue.shard_depth(0) >= 16
        assert len(svc) == n - pending
        svc.pool.check_consistency()
        # Still full: a retry (the run kept its age) is refused again
        # and loses nothing.
        with pytest.raises(OutOfSpaceError):
            svc.tick()
        assert svc.queue.depth == pending
        # Room made beneath the queue: the same run now goes down.
        for key in range(32):
            svc.pool[0].delete((None, key))
        assert svc.flush() == pending
        assert svc.queue.depth == 0
        assert all(svc.get(key) == b"x" * 8 for key in range(32, n))
        assert len(svc) == n - 32
        svc.pool.check_consistency()

    def test_refused_ops_close_their_spans(self):
        svc = Service(
            1,
            StoreConfig(n_segments=16, segment_units=8, fill_factor=0.5),
            unit_bytes=8,
            batch_size=16,
            max_depth=64,
        )
        tracer = svc.attach_tracer(Tracer())
        n = 0
        with pytest.raises(OutOfSpaceError):
            while n < 1000:
                n += 1
                svc.put(n - 1, b"x" * 8)
        assert tracer._stack == []
        refused = [
            s for s in tracer.collector.spans() if s.attrs.get("refused")
        ]
        assert [s.name for s in refused] == ["queue.flush"]
        # The next op is refused too, and starts a trace of its own
        # instead of hanging under a dead flush.
        with pytest.raises(OutOfSpaceError):
            svc.put(n, b"y" * 8)
        assert tracer._stack == []
        flush, put = tracer.collector.spans()[-2:]
        assert (put.name, put.parent_id) == ("service.put", None)
        assert (flush.name, flush.parent_id) == ("queue.flush", put.span_id)
        assert flush.attrs["refused"] is True


class TestRefusedValue:
    """A value no shard would store is refused at ``put``, before it is
    queued, so the ops acknowledged around it are all applied."""

    @pytest.mark.parametrize(
        "bad",
        ["text", None, 7, memoryview(b"x"), "oversized"],
        ids=["str", "none", "int", "memoryview", "oversized"],
    )
    def test_invalid_value_raises_at_put_and_loses_nothing(self, bad):
        svc = make_service(1, batch_size=1000, flush_interval=1000)
        tracer = svc.attach_tracer(Tracer())
        if bad == "oversized":
            bad = bytes(svc.pool[0].max_value_bytes + 1)
        svc.put("a", b"1", tenant="t")
        with pytest.raises(KVError):
            svc.put("bad", bad, tenant="t")
        assert svc.queue.depth == 1
        assert svc.get("bad", tenant="t") is None
        svc.put("c", b"3", tenant="t")
        svc.delete("z", tenant="t")
        svc.put("d", b"4", tenant="t")
        assert svc.flush() == 4
        assert svc.queue.depth == 0
        assert [svc.get(k, tenant="t") for k in "acd"] == [b"1", b"3", b"4"]
        assert svc.get("bad", tenant="t") is None
        assert svc.metrics.counter("puts").value == 3
        assert tracer._stack == []
        svc.pool.check_consistency()

    def test_a_value_at_the_limit_is_stored(self):
        svc = make_service(1)
        value = b"v" * svc.pool[0].max_value_bytes
        svc.put("k", value)
        svc.flush()
        assert svc.get("k") == value

    def test_a_bytearray_is_copied_at_put(self):
        svc = make_service(1, batch_size=1000, flush_interval=1000)
        value = bytearray(b"abc")
        svc.put("k", value)
        value[0] = ord("z")  # after the ack: reaches neither copy
        assert svc.get("k") == b"abc"
        svc.flush()
        assert svc.get("k") == b"abc"
        assert type(svc.get("k")) is bytes


class TestObservability:
    def test_slo_threshold_is_the_governors_step_budget(self):
        """The flush-stall SLO used to burn above 32 pages whatever
        ``pages_per_step`` was, so at 16 a 17-page stall was good."""
        svc = make_service(pages_per_step=16)
        assert svc.slo.threshold == svc.pool.pages_per_step == 16
        assert svc.queue.on_stall(16) is False
        assert svc.queue.on_stall(17) is True
        assert svc.slo.report()["bad"] == 1

    def test_telemetry_shard_depth_counts_client_ops(self):
        svc = make_service(1, batch_size=1000, flush_interval=1000)
        for value in (b"1", b"2", b"3"):
            svc.put("hot", value)
        svc.put("cold", b"4")
        row = svc.telemetry_row()
        assert row["queue_depth"] == row["shards"][0]["queue_depth"] == 4

    def test_rows_pass_schema_validation(self):
        svc = make_service(2, sample_interval=64)
        for i in range(500):
            svc.put("k%d" % (i % 60), bytes(20), tenant="t0")
            if i % 50 == 0:
                svc.tick()
        svc.flush()
        rows = list(svc.rows({"label": "unit-test"}))
        assert validate_rows(rows) == []
        metas = [r for r in rows if r["type"] == "meta"]
        # One service block plus one block per shard.
        assert len(metas) == 3
        assert metas[0]["run"]["component"] == "service"
        assert metas[1]["run"]["component"] == "shard"
        assert metas[0]["run"]["label"] == "unit-test"

    def test_export_rows_writes_file(self, tmp_path):
        svc = make_service(2)
        svc.put("k", b"v")
        svc.flush()
        path = tmp_path / "metrics.jsonl"
        n = svc.export_rows(str(path))
        assert n > 0 and path.exists()

    def test_service_metrics_track_ops(self):
        svc = make_service(2)
        svc.put("a", b"1")
        svc.put("b", b"2")
        svc.delete("a")
        svc.get("b")
        svc.flush()
        counters = svc.metrics.snapshot().counters
        assert counters["puts"] == 2
        assert counters["deletes"] == 1
        assert counters["gets"] == 1
        assert counters["ops_flushed"] == 3

    def test_close_detaches_observers(self):
        svc = make_service(2)
        svc.put("k", b"v")
        svc.close()
        for kv in svc.pool.shards:
            assert kv.store.obs is None
        assert svc.get("k") == b"v"  # flushed by close
