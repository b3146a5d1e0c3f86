"""The observability CLI surface added with the trace plane:
serve --trace-out/--telemetry-out, obs chrome/critical/tail --follow,
and repro top."""

import json

from repro.cli import main

QUICK = [
    "--quick", "--ops", "2500", "--keys-per-tenant", "192",
    "--tick-every", "128",
]


def _traced_run(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    telemetry = tmp_path / "telemetry.jsonl"
    assert main(
        ["serve", *QUICK, "--trace-out", str(spans),
         "--telemetry-out", str(telemetry)]
    ) == 0
    capsys.readouterr()
    return spans, telemetry


class TestServeTraceFlags:
    def test_serve_writes_both_files_and_reports(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        telemetry = tmp_path / "telemetry.jsonl"
        assert main(
            ["serve", *QUICK, "--trace-out", str(spans),
             "--telemetry-out", str(telemetry)]
        ) == 0
        out = capsys.readouterr().out
        assert "causal spans written to" in out
        assert "telemetry rows written to" in out
        assert spans.exists() and telemetry.exists()

    def test_span_and_telemetry_files_validate(self, tmp_path, capsys):
        spans, telemetry = _traced_run(tmp_path, capsys)
        for path in (spans, telemetry):
            assert main(["obs", "validate", str(path)]) == 0
            assert "schema valid" in capsys.readouterr().out

    def test_trace_sample_flag_thins_spans(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(
            ["serve", *QUICK, "--trace-out", str(spans),
             "--trace-sample", "0.0"]
        ) == 0
        lines = spans.read_text().strip().splitlines()
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
        _, telemetry = _traced_run(tmp_path, capsys)
        assert main(["obs", "chrome", str(telemetry)]) == 1
        assert "no span rows" in capsys.readouterr().err


class TestObsCritical:
    def test_critical_report_renders(self, tmp_path, capsys):
        spans, _ = _traced_run(tmp_path, capsys)
        assert main(["obs", "critical", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "flush(es)" in out
        assert "attributed" in out

    def test_critical_json_mode(self, tmp_path, capsys):
        spans, _ = _traced_run(tmp_path, capsys)
        assert main(["obs", "critical", str(spans), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flushes"] > 0
        assert 0.0 <= report["attribution_fraction"] <= 1.0

    def test_min_attribution_gate_can_fail(self, tmp_path, capsys):
        # A fabricated stalled flush whose own code outlasts its one
        # child: attribution 0.0.
        spans = tmp_path / "spans.jsonl"
        rows = [
            {"type": "meta", "schema": 2, "run": {"component": "trace"}},
            {"type": "span", "parent": -1, "name": "IngestQueue.flush_shard",
             "start": 0.0, "end": 1e-5, "size": 4},
            {"type": "span", "parent": 0,
             "name": "LogStructuredStore.clean_step",
             "start": 1e-6, "end": 2e-6, "size": 9},
        ]
        spans.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(
            ["obs", "critical", str(spans), "--min-attribution", "0.95"]
        ) == 1
        assert "below required" in capsys.readouterr().err


class TestObsTailFollow:
    def test_follow_stops_on_idle_timeout(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        rows = [
            {"type": "meta", "schema": 2, "run": {}},
            {"type": "event", "seq": 1, "clock": 5, "kind": "clean_cycle"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(
            ["obs", "tail", str(path), "--follow", "--idle-timeout", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "clean_cycle" in out


class TestTopCommand:
    def test_top_renders_frames_from_telemetry(self, tmp_path, capsys):
        _, telemetry = _traced_run(tmp_path, capsys)
        assert main(
            ["top", str(telemetry), "--frames", "1", "--no-clear",
             "--idle-timeout", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "SLO" in out

    def test_top_on_empty_file_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(
            ["top", str(empty), "--idle-timeout", "0.05"]
        ) == 1
        assert "no telemetry rows" in capsys.readouterr().err
