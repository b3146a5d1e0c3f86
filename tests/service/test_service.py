"""Service front-end: client semantics, observability."""

import numpy as np
import pytest

from repro.kvstore import KVError
from repro.obs import SpanRecorder
from repro.obs.export import validate_rows
from repro.service import RouterError, Service
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


def metrics_row(svc):
    """The service block's metrics row (the shard blocks follow it)."""
    return next(r for r in svc.rows() if r["type"] == "metrics")


def exported_puts(svc):
    """The ``puts`` count where the service exports it: the service
    block's metrics row."""
    return metrics_row(svc)["counters"]["puts"]


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


class TestKeyAliases:
    """``1``, ``1.0`` and ``True`` under one tenant are one record, and
    its stored key is always the form the ring routes."""

    def test_an_alias_updates_reads_and_deletes_the_record(self):
        svc = make_service(2)
        svc.put(1, b"a", tenant="t")
        assert svc.get(True, tenant="t") == b"a"
        svc.flush()
        svc.put(1.0, b"b", tenant="t")
        assert svc.get(True, tenant="t") == b"b"
        svc.put(True, b"c", tenant="t")
        svc.flush()
        assert svc.get(1, tenant="t") == b"c"
        svc.delete(1.0, tenant="t")
        svc.flush()
        assert svc.get(1, tenant="t") is None
        assert len(svc) == 0

    def test_an_alias_never_becomes_the_stored_key(self):
        svc = make_service(2)
        svc.put(1, b"a", tenant="t")
        svc.flush()
        svc.delete(True, tenant="t")  # the record's slot: queued by slot
        svc.flush()
        # No slot now: a put or delete would be queued, and stored,
        # under its own form, which the ring's key rule refuses.
        with pytest.raises(RouterError):
            svc.put(True, b"b", tenant="t")
        with pytest.raises(RouterError):
            svc.delete(1.0, tenant="t")
        assert svc.queue.depth == 0
        assert svc.metrics.counter("deletes").value == 1
        svc.put(1, b"c", tenant="t")
        svc.flush()
        assert [key for kv in svc.pool.shards for key in kv.keys()] == [("t", 1)]
        assert type(next(iter(svc.pool[svc.shard_of(1, "t")].keys()))[1]) is int
        assert svc.get(True, tenant="t") == b"c"


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

    def test_refused_flush_still_applies_its_deletes(self):
        """Deleting keys is how a client relieves a full shard: a flush
        whose puts are refused applies the run's deletes all the same
        and keeps only the puts queued."""
        svc = Service(
            1,
            StoreConfig(
                n_segments=16, segment_units=8, fill_factor=0.5,
                clean_trigger=2, clean_batch=2,
            ),
            policy="greedy",
            unit_bytes=8,
            batch_size=4096,
            flush_interval=10**6,
            max_depth=4096,
        )
        n = 0
        with pytest.raises(OutOfSpaceError):
            while n < 1000:
                n += 1
                svc.put(n - 1, (n - 1).to_bytes(8, "little"))
                svc.flush()
        flushed = svc.metrics.counter("ops_flushed").value
        for key in range(60):
            svc.delete(key)
        with pytest.raises(OutOfSpaceError):
            svc.flush()
        assert not any((None, key) in svc.pool[0] for key in range(60))
        assert all(svc.get(key) is None for key in range(60))
        assert svc.queue.depth == svc.queue.shard_depth(0) == 1
        assert svc.metrics.counter("ops_flushed").value == flushed + 60
        svc.pool.check_consistency()
        # The room the deletes made takes the refused put.
        assert svc.flush() == 1
        assert svc.get(n - 1) == (n - 1).to_bytes(8, "little")
        assert len(svc) == n - 60
        svc.pool.check_consistency()

    def test_refused_ops_close_their_spans(self):
        svc = Service(
            1,
            StoreConfig(n_segments=16, segment_units=8, fill_factor=0.5),
            unit_bytes=8,
            batch_size=16,
            max_depth=64,
        )
        rec = SpanRecorder().install_service(svc)
        n = 0
        with pytest.raises(OutOfSpaceError):
            while n < 1000:
                n += 1
                svc.put(n - 1, b"x" * 8)
        assert rec._stack == [-1]
        rows = rec.rows()
        # The error is marked on every row it passed through, and the
        # refused flush's Service.put row closes too.
        (put_i,) = [
            i for i, r in enumerate(rows) if r["name"] == "Service.put" and "error" in r
        ]
        put = rows[put_i]
        (flush,) = [
            r for r in rows
            if r["parent"] == put_i and r["name"] == "IngestQueue.flush_shard"
        ]
        assert (put["parent"], put["error"]) == (-1, "OutOfSpaceError")
        assert flush["error"] == "OutOfSpaceError"
        assert flush["end"] <= put["end"]
        # The next op is refused too, and starts a trace of its own
        # instead of hanging under a dead flush.
        with pytest.raises(OutOfSpaceError):
            svc.put(n, b"y" * 8)
        assert rec._stack == [-1]
        rows = rec.rows()
        put_i = max(i for i, r in enumerate(rows) if r["name"] == "Service.put")
        assert (rows[put_i]["parent"], rows[put_i]["error"]) == (-1, "OutOfSpaceError")
        (flush,) = [
            r for r in rows
            if r["parent"] == put_i and r["name"] == "IngestQueue.flush_shard"
        ]
        assert flush["error"] == "OutOfSpaceError"


class TestDerivedPuts:
    def test_puts_equal_the_clients_count_across_refusals(self):
        """``puts`` is derived at export (flushed + queued - deletes),
        not counted per put: it must equal what the client was
        acknowledged, with a refused flush still queued and a refused
        value never counted."""
        svc = Service(
            1,
            StoreConfig(n_segments=16, segment_units=8, fill_factor=0.5),
            unit_bytes=8,
            batch_size=16,
            flush_interval=1,
            max_depth=64,
        )
        puts = deletes = 0
        with pytest.raises(OutOfSpaceError):
            while puts < 1000:
                if puts % 10 == 9:
                    svc.delete(puts - 5)
                    deletes += 1
                puts += 1  # acknowledged even when its own flush is refused
                svc.put(puts - 1, b"x" * 8)
        assert svc.queue.depth > 0
        assert exported_puts(svc) == puts
        with pytest.raises(KVError):
            svc.put("bad", "not bytes")
        assert exported_puts(svc) == puts
        assert svc.metrics.counter("deletes").value == deletes
        refused = 0
        for key in range(16):
            # The run is over batch_size, so each delete flushes it:
            # refused (its deletes applied) until they made room.
            deletes += 1
            try:
                svc.delete(key)
            except OutOfSpaceError:
                refused += 1
            assert exported_puts(svc) == puts
        assert refused > 0
        svc.flush()
        assert svc.queue.depth == 0
        assert exported_puts(svc) == puts
        assert svc.metrics.counter("deletes").value == deletes
        svc.pool.check_consistency()


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
        rec = SpanRecorder().install_service(svc)
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
        assert exported_puts(svc) == 3
        assert rec._stack == [-1]
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

    def test_shard_depth_counts_client_ops(self):
        svc = make_service(1, batch_size=1000, flush_interval=1000)
        for value in (b"1", b"2", b"3"):
            svc.put("hot", value)
        svc.put("cold", b"4")
        assert svc.queue.depth == svc.queue.shard_depth(0) == 4

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
        counters = metrics_row(svc)["counters"]
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
