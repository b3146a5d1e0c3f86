"""The observability CLI over a run's files: serve --out/--trace-sample,
obs chrome, and obs report's flush-stall attribution."""

import json

from repro.cli import main

QUICK = [
    "--quick", "--ops", "2500", "--keys-per-tenant", "192",
    "--tick-every", "128",
]


def _traced_run(tmp_path, capsys):
    """A traced run's directory: ``(spans, metrics)`` paths."""
    assert main(["serve", *QUICK, "--out", str(tmp_path), "--trace-sample", "1"]) == 0
    capsys.readouterr()
    return tmp_path / "spans.jsonl", tmp_path / "metrics.jsonl"


class TestServeTraceFlags:
    def test_serve_writes_both_files_and_reports(self, tmp_path, capsys):
        assert main(
            ["serve", *QUICK, "--out", str(tmp_path), "--trace-sample", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "observability rows written to" in out
        assert "causal spans written to" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics.jsonl", "spans.jsonl",
        ]

    def test_span_and_metrics_files_validate(self, tmp_path, capsys):
        for path in _traced_run(tmp_path, capsys):
            assert main(["obs", "validate", str(path)]) == 0
            assert "schema valid" in capsys.readouterr().out

    def test_trace_sample_flag_thins_spans(self, tmp_path, capsys):
        assert main(
            ["serve", *QUICK, "--out", str(tmp_path), "--trace-sample", "0.0"]
        ) == 0
        lines = (tmp_path / "spans.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1  # meta header only


class TestObsChrome:
    def test_chrome_export_default_path(self, tmp_path, capsys):
        spans, _ = _traced_run(tmp_path, capsys)
        assert main(["obs", "chrome", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "Perfetto" in out
        exported = tmp_path / "spans.trace.json"
        trace = json.loads(exported.read_text())
        assert trace["traceEvents"]
        assert all(e["ph"] == "X" for e in trace["traceEvents"])

    def test_chrome_export_explicit_out(self, tmp_path, capsys):
        spans, _ = _traced_run(tmp_path, capsys)
        out_path = tmp_path / "t.json"
        assert main(
            ["obs", "chrome", str(spans), "--out", str(out_path)]
        ) == 0
        assert json.loads(out_path.read_text())["displayTimeUnit"] == "ms"

    def test_chrome_on_spanless_file_errors(self, tmp_path, capsys):
        _, metrics = _traced_run(tmp_path, capsys)
        assert main(["obs", "chrome", str(metrics)]) == 1
        assert "no span rows" in capsys.readouterr().err


def _stalled_flush_rows(child_end):
    """A span file's rows: one flush stalled behind 9 GC pages, whose
    one child ends at ``child_end`` (the flush runs 10 us)."""
    return [
        {"type": "meta", "schema": 3, "run": {"component": "trace"}},
        {"type": "span", "parent": -1, "name": "IngestQueue.flush_shard",
         "start": 0.0, "end": 1e-5, "size": 4},
        {"type": "span", "parent": 0,
         "name": "LogStructuredStore.clean_step",
         "start": 1e-6, "end": child_end, "size": 9},
    ]


def _write(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


class TestObsCritical:
    """The flush-stall section of ``repro obs report``."""

    def test_critical_report_renders(self, tmp_path, capsys):
        spans, _ = _traced_run(tmp_path, capsys)
        assert main(["obs", "report", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "flush(es)" in out
        assert "attributed" in out

    def test_report_prints_each_tail_sample_in_pages_and_us(
        self, tmp_path, capsys
    ):
        spans = _write(tmp_path / "spans.jsonl", _stalled_flush_rows(9e-6))
        assert main(["obs", "report", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "1 flush(es), 1 stalled" in out
        assert "attributed 1/1 tail sample(s)" in out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("  span ")]
        assert "9.0 pages" in line and "10.0 us" in line
        assert line.endswith("-> LogStructuredStore.clean_step")

    def test_min_attribution_gate_can_fail(self, tmp_path, capsys):
        # A fabricated stalled flush whose own code outlasts its one
        # child: attribution 0.0.
        spans = _write(tmp_path / "spans.jsonl", _stalled_flush_rows(2e-6))
        assert main(
            ["obs", "report", str(spans), "--min-attribution", "0.95"]
        ) == 1
        assert "below required" in capsys.readouterr().err


class TestObsReport:
    def test_one_report_over_a_runs_files(self, tmp_path, capsys):
        """Each row decides its section: run lines from the meta and
        metrics rows of both files, the convergence table from the
        shards' samples, the attribution from the spans."""
        spans, metrics = _traced_run(tmp_path, capsys)
        assert main(["obs", "report", str(metrics), str(spans)]) == 0
        out = capsys.readouterr().out
        assert "%s: schema 3, 5 runs" % metrics in out
        assert "%s: schema 3, 1 runs" % spans in out
        assert "service (4 shards, mdc)" in out
        assert "convergence of shard 0/4 (mdc):" in out
        assert "convergence of service" not in out  # no samples, no table
        assert "flush stalls:" in out

    def test_metrics_alone_has_no_stall_section(self, tmp_path, capsys):
        _, metrics = _traced_run(tmp_path, capsys)
        assert main(["obs", "report", str(metrics)]) == 0
        assert "flush stalls:" not in capsys.readouterr().out
        # ...but a gate over it examined nothing, so it fails.
        assert main(
            ["obs", "report", str(metrics), "--min-attribution", "0.95"]
        ) == 1
        assert "0 tail samples" in capsys.readouterr().err

    def test_span_parents_stay_within_their_file(self, tmp_path, capsys):
        """Two span files read as one span set: each file's parent
        indexes are its own, so the second file's flush owns its step."""
        spans = _write(tmp_path / "spans.jsonl", _stalled_flush_rows(9e-6))
        assert main(["obs", "report", str(spans), str(spans)]) == 0
        out = capsys.readouterr().out
        assert "4 span(s), 2 flush(es), 2 stalled" in out
        assert "attributed 2/2 tail sample(s)" in out

    def test_a_v1_file_reads_as_v1(self, tmp_path, capsys):
        """Validation refuses an old version; the report still names
        what the file declares."""
        path = _write(
            tmp_path / "v1.jsonl",
            [{"type": "meta", "schema": 1, "run": {"policy": "mdc"}}],
        )
        assert main(["obs", "validate", str(path)]) == 1
        assert "schema 1, expected 3" in capsys.readouterr().err
        assert main(["obs", "report", str(path)]) == 0
        assert "%s: schema 1, 1 runs" % path in capsys.readouterr().out

    def test_unreadable_file_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "missing.jsonl")]) == 1
        assert "obs error" in capsys.readouterr().err
