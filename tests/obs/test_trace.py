"""Causal spans: deterministic IDs, nesting, sampling, exporters, and
the critical-path analyzer — all without running a service."""

import json

import pytest

from repro.cli import main
from repro.obs.export import load_rows, validate_rows
from repro.obs.trace import (
    Span,
    SpanCollector,
    Tracer,
    chrome_trace,
    critical_path_report,
    load_spans,
    write_chrome_trace,
    write_spans,
)


class TestIds:
    def test_ids_deterministic_for_same_seed(self):
        ids = []
        for _ in range(2):
            tracer = Tracer(seed=7)
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            ids.append([(r["trace"], r["span"]) for r in tracer.rows()])
        assert ids[0] == ids[1]

    def test_ids_differ_across_seeds(self):
        def one(seed):
            tracer = Tracer(seed=seed)
            tracer.finish(tracer.start("a"))
            return tracer.rows()[0]["span"]

        assert one(1) != one(2)

    def test_id_shape(self):
        tracer = Tracer(seed=0)
        tracer.finish(tracer.start("a"))
        row = tracer.rows()[0]
        assert len(row["span"]) == 16
        int(row["span"], 16)  # valid hex


class TestNesting:
    def test_stack_nesting_links_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_detached_parent_bypasses_stack(self):
        tracer = Tracer()
        root = tracer.start("root", parent=None)
        with tracer.span("stacked"):
            # Explicit parent: the stacked span is NOT the parent.
            job = tracer.start("job", parent=root)
            assert job.parent_id == root.span_id
            tracer.finish(job)
        tracer.finish(root)
        # Stack is clean afterwards.
        assert tracer._stack == []

    def test_parent_interval_contains_child(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_clock_and_attrs_exported(self):
        tracer = Tracer()
        span = tracer.start("flush", clock=42, shard=3)
        tracer.finish(span, stall_pages=8.0)
        row = tracer.rows()[0]
        assert row["clock"] == 42
        assert row["attrs"] == {"shard": 3, "stall_pages": 8.0}
        assert row["dur_us"] >= 0


class TestSampling:
    def test_sample_zero_keeps_nothing(self):
        tracer = Tracer(sample=0.0)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.rows() == []

    def test_sample_one_keeps_everything(self):
        tracer = Tracer(sample=1.0)
        for _ in range(5):
            with tracer.span("a"):
                pass
        assert len(tracer.rows()) == 5

    def test_children_inherit_root_decision(self):
        tracer = Tracer(seed=3, sample=0.5)
        for _ in range(40):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        rows = tracer.rows()
        kept = {r["span"] for r in rows}
        # Every kept child has its parent kept too — no orphans.
        for row in rows:
            if row["parent"] is not None:
                assert row["parent"] in kept
        # Partial sampling actually dropped and kept some traces.
        roots = [r for r in rows if r["parent"] is None]
        assert 0 < len(roots) < 40

    def test_sampling_deterministic(self):
        def kept(seed):
            tracer = Tracer(seed=seed, sample=0.5)
            out = []
            for i in range(20):
                with tracer.span("r"):
                    pass
                out.append(len(tracer.rows()))
            return out

        assert kept(9) == kept(9)

    def test_bad_sample_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)


class TestCollector:
    def test_ring_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.finish(tracer.start("s%d" % i))
        assert len(tracer.rows()) == 4
        assert tracer.dropped == 6
        assert tracer.rows()[0]["name"] == "s6"

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanCollector(capacity=0)

    def test_unfinished_span_not_collected(self):
        tracer = Tracer()
        tracer.start("open")
        assert tracer.rows() == []


class TestSpanFile:
    def _tracer(self):
        tracer = Tracer(seed=1)
        with tracer.span("queue.flush", clock=10, shard=0):
            with tracer.span("shard.put_many", shard=0):
                pass
        return tracer

    def test_write_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        n = write_spans(str(path), self._tracer())
        assert n == 2
        rows = load_spans(str(path))
        assert [r["name"] for r in rows] == ["shard.put_many", "queue.flush"]

    def test_span_file_schema_validates(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_spans(str(path), self._tracer(), {"policy": "mdc"})
        rows = load_rows(str(path))
        assert validate_rows(rows) == []
        meta = rows[0]
        assert meta["schema"] == 2
        assert meta["run"]["component"] == "trace"
        assert meta["run"]["spans_dropped"] == 0
        assert meta["run"]["ring_capacity"] == 65536

    def test_write_from_plain_rows(self, tmp_path):
        rows = self._tracer().rows()
        path = tmp_path / "spans.jsonl"
        write_spans(str(path), rows)
        assert load_spans(str(path)) == rows

    def test_roundtrip_byte_identical(self, tmp_path):
        rows = self._tracer().rows()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spans(str(a), rows, {"x": 1})
        write_spans(str(b), load_spans(str(a)), {"x": 1})
        assert a.read_bytes() == b.read_bytes()


class TestChromeExport:
    def test_structure_and_lanes(self, tmp_path):
        tracer = Tracer()
        with tracer.span("queue.flush", shard=2):
            with tracer.span("store.clean_step", shard=2):
                pass
        trace = chrome_trace(tracer.rows())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["tid"] == 2
            assert event["dur"] >= 1
            assert isinstance(event["ts"], int)
        cats = {e["cat"] for e in events}
        assert cats == {"queue", "store"}

    def test_events_sorted_by_start(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        events = chrome_trace(tracer.rows())["traceEvents"]
        assert events[0]["name"] == "a"
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        out = tmp_path / "trace.json"
        n = write_chrome_trace(str(out), tracer.rows())
        assert n == 1
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"][0]["name"] == "a"

    def test_non_span_rows_skipped(self):
        rows = [{"type": "meta", "schema": 2, "run": {}}]
        assert chrome_trace(rows)["traceEvents"] == []


def _span_row(span_id, parent, name, start, dur, **attrs):
    row = {
        "type": "span",
        "trace": "t0",
        "span": span_id,
        "parent": parent,
        "name": name,
        "start_us": start,
        "dur_us": dur,
    }
    if attrs:
        row["attrs"] = attrs
    return row


class TestCriticalPath:
    def _flush(self, i, stall, child_name="store.clean_step", child_dur=900):
        """One flush span with a maintain child and (optionally) a
        deeper dominant chain under it."""
        fid = "f%d" % i
        rows = [
            _span_row(fid, None, "queue.flush", i * 10_000, 1_000,
                      shard=0, stall_pages=stall),
            _span_row(fid + "m", fid, "pool.maintain", i * 10_000, 950),
        ]
        if child_name:
            rows.append(
                _span_row(fid + "c", fid + "m", child_name,
                          i * 10_000, child_dur)
            )
        return rows

    def test_attributes_tail_to_dominant_chain(self):
        rows = []
        for i in range(99):
            rows.extend(self._flush(i, stall=0.0))
        rows.extend(self._flush(99, stall=64.0))
        report = critical_path_report(rows)
        assert report["flushes"] == 100
        assert report["stalled_flushes"] == 1
        assert report["tail_samples"] == 1
        assert report["attributed"] == 1
        assert report["attribution_fraction"] == 1.0
        assert report["by_cause"] == {"store.clean_step": 1}
        (sample,) = report["samples"]
        assert sample["chain"] == ["pool.maintain", "store.clean_step"]

    def test_dominant_child_wins_over_shorter(self):
        rows = self._flush(0, stall=32.0, child_name=None)
        # Two children under maintain: the longer one is the cause.
        rows.append(_span_row("f0a", "f0m", "store.clean_begin", 0, 100))
        rows.append(_span_row("f0b", "f0m", "store.clean_step", 0, 800))
        report = critical_path_report(rows)
        assert report["by_cause"] == {"store.clean_step": 1}

    def test_childless_tail_flush_counts_as_self(self):
        rows = [
            _span_row("f0", None, "queue.flush", 0, 500,
                      stall_pages=16.0),
        ]
        report = critical_path_report(rows)
        assert report["tail_samples"] == 1
        assert report["attributed"] == 0
        assert report["attribution_fraction"] == 0.0
        assert report["by_cause"] == {"(self)": 1}

    def test_no_stalls_reports_full_attribution(self):
        rows = []
        for i in range(5):
            rows.extend(self._flush(i, stall=0.0))
        report = critical_path_report(rows)
        assert report["tail_samples"] == 0
        assert report["attribution_fraction"] == 1.0

    def test_threshold_is_tail_quantile_of_nonzero(self):
        rows = []
        for i in range(10):
            rows.extend(self._flush(i, stall=float(i)))
        report = critical_path_report(rows, tail_quantile=0.5)
        # Nonzero stalls are 1..9; nearest-rank p50 is 4 -> stalls >= 4.
        assert report["tail_threshold_pages"] == 4.0
        assert report["tail_samples"] == 6

    def test_min_attribution_fails_a_file_with_nothing_to_attribute(
        self, tmp_path, capsys
    ):
        """0 of 0 tail samples is a fraction of 1.0, so the >= 95 % gate
        passed on a run where no flush stalled — having examined
        nothing.  Without the gate the report is just a report."""
        rows = [{"type": "meta", "schema": 2, "run": {"component": "trace"}}]
        for i in range(5):
            rows.extend(self._flush(i, stall=0.0))
        spans = tmp_path / "spans.jsonl"
        spans.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["obs", "critical", str(spans)]) == 0
        assert "attributed 0/0 tail sample(s)" in capsys.readouterr().out
        assert main(
            ["obs", "critical", str(spans), "--min-attribution", "0.95"]
        ) == 1
        err = capsys.readouterr().err
        assert "examined nothing" in err and "0 tail samples" in err
