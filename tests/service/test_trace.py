"""The trace plane end to end: span chains through the real service,
SLO wiring, determinism with tracing attached."""

import json

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    SLOTracker,
    SpanRecorder,
    critical_path_report,
    load_rows,
    validate_rows,
)
from repro.obs.trace import load_spans
from repro.service.harness import HarnessConfig, build_service, run_harness

#: Small but real: enough ops over a small page budget that flushes,
#: governance, and cleaning all fire.
CFG = HarnessConfig.quick(
    ops=4_000, keys_per_tenant=512, tick_every=128, seed=3
)

#: High-pressure shape: the default one-segment proactive headroom and
#: rare idle ticks leave shards behind after flushes, so loaded rounds
#: (and the odd inline clean) populate the stall tail.
STALL_CFG = HarnessConfig.quick(
    ops=12_000,
    keys_per_tenant=512,
    tick_every=1024,
    seed=3,
    target_fill=0.70,
    clean_trigger=2,
    clean_batch=8,
    batch_size=64,
    flush_interval=2,
    gc_budget=128,
)


class TestServiceSpans:
    @pytest.fixture(scope="class")
    def spans(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("trace") / "spans.jsonl"
        run_harness(CFG, trace_out=str(trace))
        return load_spans(str(trace)), str(trace)

    def test_span_file_validates_as_the_schema(self, spans):
        rows, path = spans
        all_rows = load_rows(path)
        assert validate_rows(all_rows) == []
        assert all_rows[0]["schema"] == SCHEMA_VERSION
        assert all_rows[0]["run"]["component"] == "trace"

    def test_expected_span_kinds_present(self, spans):
        rows, _ = spans
        names = {r["name"] for r in rows}
        assert {
            "Service.put",
            "Service.delete",
            "Service.tick",
            "ConsistentHashRouter.shard_for",
            "IngestQueue.flush_shard",
            "LogStructuredKVStore.write_slots",
            "StorePool.maintain",
        } <= names

    def test_flush_parents_put_many(self, spans):
        rows, _ = spans
        writes = [r for r in rows if r["name"] == "LogStructuredKVStore.write_slots"]
        assert writes
        for row in writes:
            flush = rows[row["parent"]]
            assert flush["name"] == "IngestQueue.flush_shard"
            assert 0 < row["size"] <= flush["size"]
            assert row["shard"] == flush["shard"]

    def test_flush_spans_carry_queue_attrs(self, spans):
        """A flush row carries its shard (the Chrome lane) and the ops
        it consumed; the ops flushed add up to the ops the clients
        issued."""
        rows, _ = spans
        flushes = [r for r in rows if r["name"] == "IngestQueue.flush_shard"]
        assert {r["shard"] for r in flushes} == set(range(CFG.n_shards))
        assert sum(r["size"] for r in flushes) == CFG.ops

    def test_route_spans_only_on_memo_misses(self, spans):
        rows, _ = spans
        routes = [r for r in rows if r["name"] == "ConsistentHashRouter.shard_for"]
        puts = [r for r in rows if r["name"] == "Service.put"]
        # Memoization: far fewer route lookups than puts.
        assert 0 < len(routes) < len(puts)


class TestDeterminismWithTracing:
    def test_metrics_bytes_unchanged_by_tracer(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        traced = tmp_path / "traced.jsonl"
        run_harness(CFG, metrics_out=str(plain))
        run_harness(
            CFG, metrics_out=str(traced),
            trace_out=str(tmp_path / "spans.jsonl"),
        )
        assert plain.read_bytes() == traced.read_bytes()

    def test_span_identity_deterministic_across_runs(self, tmp_path):
        def identity(path):
            run_harness(CFG, trace_out=str(path), trace_sample=0.5)
            return [
                (r["parent"], r["name"], r["size"], r.get("shard"))
                for r in load_spans(str(path))
            ]

        assert identity(tmp_path / "a.jsonl") == identity(tmp_path / "b.jsonl")

    def test_sample_zero_keeps_header_only(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        run_harness(CFG, trace_out=str(trace), trace_sample=0.0)
        rows = load_rows(str(trace))
        assert rows[0]["type"] == "meta"
        assert load_spans(str(trace)) == []


class TestStallAttribution:
    def test_stall_spans_and_critical_path(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        run_harness(STALL_CFG, trace_out=str(trace))
        rows = load_spans(str(trace))
        names = {r["name"] for r in rows}
        # The shape must actually exercise cleaning under flushes.
        assert "LogStructuredStore.clean_begin" in names
        report = critical_path_report(rows)
        assert report["stalled_flushes"] > 0
        assert report["tail_samples"] > 0
        # The acceptance bar: >= 95% of tail samples attributed.
        assert report["attribution_fraction"] >= 0.95
        assert report["by_cause"]

    def test_a_stalled_flush_reads_it_drained(self, tmp_path):
        """The store's drain is a ``LogStructuredStore.flush`` span
        under the shard's ``write_slots``, and the inline cleaning a
        drain runs into hangs off it: the tail samples' dominant chains
        pass through the drain."""
        trace = tmp_path / "spans.jsonl"
        run_harness(STALL_CFG, trace_out=str(trace))
        rows = load_spans(str(trace))
        drains = [r for r in rows if r["name"] == "LogStructuredStore.flush"]
        assert drains
        for drain in drains:
            assert rows[drain["parent"]]["name"] == "LogStructuredKVStore.write_slots"
        stalls = [
            r for r in rows
            if r["name"] == "LogStructuredStore._clean_until_replenished"
        ]
        assert stalls
        assert all(rows[r["parent"]]["name"] == "LogStructuredStore.flush" for r in stalls)
        samples = critical_path_report(rows)["samples"]
        assert samples
        for sample in samples:
            assert sample["chain"][:2] == [
                "LogStructuredKVStore.write_slots",
                "LogStructuredStore.flush",
            ]

    def test_each_tail_sample_carries_its_stall_in_us(self, tmp_path):
        """A tail sample's ``stall_us`` is its flush span's duration."""
        trace = tmp_path / "spans.jsonl"
        run_harness(STALL_CFG, trace_out=str(trace))
        rows = load_spans(str(trace))
        samples = critical_path_report(rows)["samples"]
        assert samples
        for sample in samples:
            flush = rows[sample["span"]]
            assert flush["name"] == "IngestQueue.flush_shard"
            assert sample["stall_us"] == (flush["end"] - flush["start"]) * 1e6
            assert sample["stall_us"] > 0


class TestSLO:
    def test_slo_tracks_flush_stalls(self):
        service = build_service(STALL_CFG)
        try:
            assert isinstance(service.slo, SLOTracker)
            assert service.queue.on_stall == service.slo.record
        finally:
            service.close()


class TestAttachDetach:
    def test_attach_wires_every_layer_and_detach_unwires(self):
        """``install_service`` wraps each boundary as an instance
        attribute of the object built; ``remove`` deletes every one."""
        service = build_service(CFG)
        layers = [service, service.router, service.queue, service.pool]
        for kv in service.pool.shards:
            layers += [kv, kv.store]
        built = [set(vars(obj)) for obj in layers]
        try:
            rec = SpanRecorder(seed=1).install_service(service)
            wrapped = {
                type(obj).__name__ + "." + name
                for obj, before in zip(layers, built)
                for name in set(vars(obj)) - before
            }
            assert wrapped == {
                "Service.put", "Service.delete", "Service.tick",
                "ConsistentHashRouter.shard_for", "IngestQueue.flush_shard",
                "StorePool.maintain", "LogStructuredKVStore.write_slots",
                "LogStructuredStore.flush",
                "LogStructuredStore._clean_until_replenished",
                "LogStructuredStore.clean_begin",
                "LogStructuredStore.clean_step",
            }
            service.put(1, b"v", tenant="t0")
            service.flush()
            assert rec.rows()
            rec.remove()
            assert [set(vars(obj)) for obj in layers] == built
        finally:
            service.close()
