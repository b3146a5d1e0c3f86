"""Causal spans recorded from outside: nesting, sampling, the bound,
removal, exporters, and the critical-path analyzer — all without
running a service."""

import json

import pytest

from repro.cli import main
from repro.obs import trace
from repro.obs.export import SCHEMA_VERSION, load_rows, validate_rows
from repro.obs.trace import (
    SpanRecorder,
    chrome_trace,
    critical_path_report,
    load_spans,
    write_chrome_trace,
    write_spans,
)


class Work:
    """Two boundaries to wrap: ``outer`` runs the calls it is handed
    and returns how many, ``leaf`` returns its argument."""

    def outer(self, *calls):
        for call in calls:
            call()
        return len(calls)

    def leaf(self, n=0):
        return n


def recorded(sample=1.0, seed=0):
    """A recorder wrapped around a fresh :class:`Work`."""
    rec, work = SpanRecorder(sample=sample, seed=seed), Work()
    rec.wrap(work, "Work.outer", "ret")
    rec.wrap(work, "Work.leaf", "ret", shard=2)
    return rec, work


class TestNesting:
    def test_stack_nesting_links_parent(self):
        rec, work = recorded()
        work.outer(lambda: work.outer(work.leaf))
        rows = rec.rows()
        assert [(r["name"], r["parent"]) for r in rows] == [
            ("Work.outer", -1),
            ("Work.outer", 0),
            ("Work.leaf", 1),
        ]

    def test_sibling_spans_share_parent(self):
        rec, work = recorded()
        work.outer(work.leaf, work.leaf)
        assert [r["parent"] for r in rec.rows()] == [-1, 0, 0]

    def test_parent_interval_contains_child(self):
        rec, work = recorded()
        work.outer(lambda: work.outer(work.leaf))
        rows = rec.rows()
        for row in rows[1:]:
            parent = rows[row["parent"]]
            assert parent["start"] <= row["start"] <= row["end"] <= parent["end"]

    def test_size_shard_and_error_exported(self):
        rec, work = recorded()
        work.outer(lambda: work.leaf(8))
        with pytest.raises(TypeError):
            work.leaf(1, 2)
        outer, leaf, bad = rec.rows()
        assert (outer["size"], leaf["size"]) == (1, 8)
        assert (leaf["shard"], "shard" in outer) == (2, False)
        assert bad["error"] == "TypeError" and bad["end"] >= bad["start"]
        assert "error" not in leaf


class TestSampling:
    def test_sample_zero_keeps_nothing(self):
        rec, work = recorded(sample=0.0)
        work.outer(work.leaf)
        assert rec.rows() == []

    def test_sample_one_keeps_everything(self):
        rec, work = recorded(sample=1.0)
        for _ in range(5):
            work.leaf()
        assert len(rec.rows()) == 5

    def test_children_inherit_root_decision(self):
        """A sampled-out root leaves no row below it: every kept row's
        parent is kept, and the roots kept carry all their children."""
        rec, work = recorded(seed=3, sample=0.5)
        for _ in range(40):
            work.outer(work.leaf, lambda: work.outer(work.leaf))
        rows = rec.rows()
        roots = [i for i, r in enumerate(rows) if r["parent"] == -1]
        assert 0 < len(roots) < 40
        assert len(rows) == 4 * len(roots)
        for i, row in enumerate(rows):
            assert row["parent"] < i

    def test_sampling_deterministic(self):
        def kept(seed):
            rec, work = recorded(seed=seed, sample=0.5)
            out = []
            for _ in range(20):
                work.leaf()
                out.append(len(rec.rows()))
            return out

        assert kept(9) == kept(9)
        assert kept(9) != kept(10)

    def test_bad_sample_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder(sample=1.5)


class TestCollector:
    def test_ring_drops_oldest_and_counts(self, monkeypatch):
        """The bound evicts the oldest whole root trees and counts them:
        no child is kept without its parent."""
        monkeypatch.setattr(trace, "CAPACITY", 5)
        rec, work = recorded()
        for n in range(4):
            work.outer(*[work.leaf] * n)  # a tree of n + 1 spans
        # 1 + 2 + 3 + 4 spans: the trees of 1, 2 and 3 spans went.
        rows = rec.rows()
        assert [r["parent"] for r in rows] == [-1, 0, 0, 0]
        assert rows[0]["size"] == 3
        assert rec.trees_dropped == 3 and rec.base == 6

    def test_a_tree_past_the_bound_is_dropped_whole(self, monkeypatch):
        monkeypatch.setattr(trace, "CAPACITY", 3)
        rec, work = recorded()
        work.outer(*[work.leaf] * 5)
        work.leaf()
        assert [(r["name"], r["parent"]) for r in rec.rows()] == [("Work.leaf", -1)]
        assert rec.trees_dropped == 1 and rec.base == 4

    def test_unfinished_span_not_collected(self):
        rec, work = recorded()
        seen = []
        work.leaf()
        work.outer(lambda: seen.append(rec.rows()))
        assert [r["name"] for r in seen[0]] == ["Work.leaf"]
        assert len(rec.rows()) == 2


class TestReportedDrops:
    """``repro obs report`` reads a span file's evicted root trees from
    its meta header: on the run line and in the drop footer."""

    def _spans_file(self, tmp_path, monkeypatch, capacity):
        monkeypatch.setattr(trace, "CAPACITY", capacity)
        rec, work = recorded()
        for n in range(4):
            work.outer(*[work.leaf] * n)  # a tree of n + 1 spans
        path = tmp_path / "spans.jsonl"
        write_spans(str(path), rec)
        return path

    def test_evicted_trees_reach_the_run_line_and_footer(
        self, tmp_path, monkeypatch, capsys
    ):
        path = self._spans_file(tmp_path, monkeypatch, 5)
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].endswith(" dropped=3 trees (ring=5) spans=4")
        assert out[2] == (
            "  capture rings dropped 0 decision record(s) and 3 span "
            "tree(s) across all runs; retained rows under-count the run "
            "(grow MAX_DECISIONS or CAPACITY, or lower --trace-sample, "
            "to keep more)"
        )

    def test_a_file_with_no_drops_reads_as_before(
        self, tmp_path, monkeypatch, capsys
    ):
        path = self._spans_file(tmp_path, monkeypatch, 64)
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].endswith(" Wamp=n/a ring=64 spans=10")
        assert "capture rings" not in "\n".join(out)


class TestRemove:
    def test_remove_restores_every_object_as_built(self):
        rec, work = recorded()
        assert set(vars(work)) == {"outer", "leaf"}
        rec.remove()
        assert vars(work) == {} and rec.installed == []
        work.outer(work.leaf)
        assert rec.rows() == []

    def test_remove_keeps_a_wrapper_installed_before(self):
        work = Work()
        outside = lambda *calls: "outside"  # noqa: E731
        work.outer = outside
        rec = SpanRecorder()
        rec.wrap(work, "Work.outer")
        assert work.outer() == "outside" and len(rec.rows()) == 1
        rec.remove()
        assert work.outer is outside


class TestSpanFile:
    def _recorder(self):
        rec, work = recorded()
        work.outer(work.leaf)
        return rec

    def test_write_then_load_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        n = write_spans(str(path), self._recorder())
        assert n == 2
        rows = load_spans(str(path))
        assert [r["name"] for r in rows] == ["Work.outer", "Work.leaf"]

    def test_span_file_schema_validates(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_spans(str(path), self._recorder(), {"policy": "mdc"})
        rows = load_rows(str(path))
        assert validate_rows(rows) == []
        meta = rows[0]
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["run"]["component"] == "trace"
        assert meta["run"]["trees_dropped"] == 0
        assert meta["run"]["ring_capacity"] == 65536

    def test_write_from_plain_rows(self, tmp_path):
        rows = self._recorder().rows()
        path = tmp_path / "spans.jsonl"
        write_spans(str(path), rows)
        assert load_spans(str(path)) == rows

    def test_roundtrip_byte_identical(self, tmp_path):
        rows = self._recorder().rows()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_spans(str(a), rows, {"x": 1})
        write_spans(str(b), load_spans(str(a)), {"x": 1})
        assert a.read_bytes() == b.read_bytes()


def _span_row(parent, name, start, dur, size=0, **extra):
    """A span row with times in microseconds."""
    row = {
        "type": "span",
        "name": name,
        "start": start / 1e6,
        "end": (start + dur) / 1e6,
        "parent": parent,
        "size": size,
    }
    row.update(extra)
    return row


class TestChromeExport:
    def test_structure_and_lanes(self):
        rows = [
            _span_row(-1, "Service.put", 0, 100),
            _span_row(0, "IngestQueue.flush_shard", 10, 80, shard=2),
            _span_row(1, "LogStructuredStore.clean_step", 20, 5, shard=2),
        ]
        trace_obj = chrome_trace(rows)
        assert set(trace_obj) == {"traceEvents", "displayTimeUnit"}
        events = trace_obj["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 1
            assert isinstance(event["ts"], int)
        assert [e["tid"] for e in events] == [0, 3, 3]
        assert [e["args"]["parent"] for e in events] == [-1, 0, 1]
        assert {e["cat"] for e in events} == {
            "Service", "IngestQueue", "LogStructuredStore"
        }

    def test_events_sorted_by_start(self):
        rec, work = recorded()
        work.outer()
        work.leaf()
        events = chrome_trace(rec.rows())["traceEvents"]
        assert events[0]["name"] == "Work.outer"
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        rec, work = recorded()
        work.outer()
        out = tmp_path / "trace.json"
        n = write_chrome_trace(str(out), rec.rows())
        assert n == 1
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"][0]["name"] == "Work.outer"

    def test_non_span_rows_skipped(self):
        rows = [{"type": "meta", "schema": 3, "run": {}}]
        assert chrome_trace(rows)["traceEvents"] == []


FLUSH = "IngestQueue.flush_shard"
STEP = "LogStructuredStore.clean_step"


class TestCriticalPath:
    def _flush(self, base, i, stall, child_name=STEP, child_dur=900):
        """One flush span with a maintain child and (optionally) a
        deeper dominant chain under it relocating ``stall`` pages;
        ``base`` is the flush's row index."""
        rows = [
            _span_row(-1, FLUSH, i * 10_000, 1_000, size=4, shard=0),
            _span_row(base, "StorePool.maintain", i * 10_000, 950),
        ]
        if child_name:
            rows.append(
                _span_row(base + 1, child_name, i * 10_000, child_dur,
                          size=int(stall))
            )
        return rows

    def _flushes(self, stalls):
        rows = []
        for i, stall in enumerate(stalls):
            rows.extend(self._flush(len(rows), i, stall))
        return rows

    def test_attributes_tail_to_dominant_chain(self):
        rows = self._flushes([0.0] * 99 + [64.0])
        report = critical_path_report(rows)
        assert report["flushes"] == 100
        assert report["stalled_flushes"] == 1
        assert report["tail_samples"] == 1
        assert report["attributed"] == 1
        assert report["attribution_fraction"] == 1.0
        assert report["by_cause"] == {STEP: 1}
        (sample,) = report["samples"]
        assert sample["stall_pages"] == 64.0
        assert sample["chain"] == ["StorePool.maintain", STEP]

    def test_dominant_child_wins_over_shorter(self):
        rows = self._flush(0, 0, stall=0.0, child_name=None)
        # Two children under maintain: the longer one is the cause.
        rows.append(_span_row(1, "LogStructuredStore.clean_begin", 0, 100))
        rows.append(_span_row(1, STEP, 0, 800, size=32))
        report = critical_path_report(rows)
        assert report["by_cause"] == {STEP: 1}

    def test_stall_sums_every_step_under_the_flush(self):
        rows = self._flush(0, 0, stall=5.0)
        rows.append(_span_row(1, STEP, 0, 10, size=7))
        rows.append(_span_row(-1, STEP, 20_000, 10, size=100))  # no flush
        (sample,) = critical_path_report(rows)["samples"]
        assert sample["stall_pages"] == 12.0

    def test_childless_tail_flush_counts_as_self(self):
        """A stalled flush whose own code outlasts its longest child is
        not attributed to a child span."""
        rows = [
            _span_row(-1, FLUSH, 0, 1_000),
            _span_row(0, STEP, 100, 300, size=16),
        ]
        report = critical_path_report(rows)
        assert report["tail_samples"] == 1
        assert report["attributed"] == 0
        assert report["attribution_fraction"] == 0.0
        assert report["by_cause"] == {"(self)": 1}
        assert report["samples"][0]["chain"] == [STEP]
        rows[1]["end"] = rows[1]["start"] + 500e-6  # now the child's 500 >= 500
        assert critical_path_report(rows)["by_cause"] == {STEP: 1}

    def test_no_stalls_reports_full_attribution(self):
        report = critical_path_report(self._flushes([0.0] * 5))
        assert report["tail_samples"] == 0
        assert report["attribution_fraction"] == 1.0

    def test_threshold_is_tail_quantile_of_nonzero(self):
        rows = self._flushes([float(i) for i in range(10)])
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
        rows = [{"type": "meta", "schema": 3, "run": {"component": "trace"}}]
        rows.extend(self._flushes([0.0] * 5))
        spans = tmp_path / "spans.jsonl"
        spans.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert main(["obs", "report", str(spans)]) == 0
        assert "attributed 0/0 tail sample(s)" in capsys.readouterr().out
        assert main(
            ["obs", "report", str(spans), "--min-attribution", "0.95"]
        ) == 1
        err = capsys.readouterr().err
        assert "examined nothing" in err and "0 tail samples" in err
