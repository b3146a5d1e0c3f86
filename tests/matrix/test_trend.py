"""Trend dashboard: family grouping, delta annotation, drift scan."""

import json

from repro.matrix.trend import (
    detect_trend_regressions,
    group_by_family,
    load_trend,
    render_family_table,
    render_trend,
)


def micro_entry(sha, rate):
    return {
        "sha": sha,
        "benchmark": "store-micro",
        "workloads": {
            "uniform": {"batch": {"writes_per_sec": rate}},
            "hotcold": {"batch": {"writes_per_sec": rate * 1.2}},
            "zipfian": {"batch": {"writes_per_sec": rate * 1.4}},
        },
    }


def latency_entry(sha, p99):
    return {
        "sha": sha,
        "benchmark": "latency",
        "config": {"pages_per_step": 16},
        "flush_stall_p99_pages": p99,
        "wamp_aggregate": 0.2,
    }


class TestRendering:
    def test_groups_by_family(self):
        history = [micro_entry("a", 1.0), latency_entry("b", 0.1)]
        families = group_by_family(history)
        assert set(families) == {"store-micro", "latency"}

    def test_table_is_sha_keyed_with_deltas(self):
        history = [micro_entry("aaa", 100_000), micro_entry("bbb", 110_000)]
        lines = render_family_table("store-micro", history)
        assert any("`aaa`" in line for line in lines)
        # Second row carries the +10% delta vs the first.
        assert any("`bbb`" in line and "+10.0%" in line for line in lines)

    def test_last_clips_oldest_entries(self):
        history = [micro_entry("sha%d" % i, 1000.0 + i) for i in range(20)]
        lines = render_family_table("store-micro", history, last=5)
        assert not any("`sha0`" in line for line in lines)
        assert any("`sha19`" in line for line in lines)

    def test_empty_history_renders_placeholder(self):
        assert "No benchmark history" in render_trend([])[0]

    def test_unknown_family_still_lists_shas(self):
        lines = render_trend([{"sha": "zzz", "benchmark": "mystery"}])
        assert any("mystery" in line for line in lines)
        assert any("`zzz`" in line for line in lines)


class TestDriftScan:
    def baseline(self, tmp_path, rate):
        (tmp_path / "BENCH_store.json").write_text(
            json.dumps(
                {
                    "benchmark": "store-micro",
                    "workloads": {
                        "uniform": {"batch": {"writes_per_sec": rate}}
                    },
                }
            )
        )

    def test_latest_below_floor_warns(self, tmp_path):
        self.baseline(tmp_path, 100_000.0)
        history = [micro_entry("old", 100_000), micro_entry("new", 50_000)]
        warnings = detect_trend_regressions(history, root=str(tmp_path))
        assert len(warnings) == 1
        assert "store-micro uniform" in warnings[0]
        assert "new" in warnings[0]

    def test_within_tolerance_is_quiet(self, tmp_path):
        self.baseline(tmp_path, 100_000.0)
        history = [micro_entry("new", 90_000)]
        assert detect_trend_regressions(history, root=str(tmp_path)) == []

    def test_latency_stall_drift_warns(self, tmp_path):
        (tmp_path / "BENCH_latency.json").write_text(
            json.dumps({"benchmark": "latency", "wamp_aggregate": 0.2})
        )
        history = [latency_entry("new", 20.0)]
        warnings = detect_trend_regressions(history, root=str(tmp_path))
        assert len(warnings) == 1 and "p99 flush stall" in warnings[0]
        history = [latency_entry("new", 16.0)]
        assert detect_trend_regressions(history, root=str(tmp_path)) == []

    def test_rows_older_than_the_row_format_are_skipped(self, tmp_path):
        """A pre-registry row (flat ``batch_writes_per_sec``) renders
        ``-`` and is not scanned, rather than crashing the report."""
        self.baseline(tmp_path, 100_000.0)
        old = {
            "sha": "old",
            "benchmark": "store-micro",
            "workloads": {"uniform": {"batch_writes_per_sec": 1.0}},
        }
        assert detect_trend_regressions([old], root=str(tmp_path)) == []
        assert any(
            "`old` | -" in line
            for line in render_family_table("store-micro", [old])
        )

    def test_wrong_family_baseline_warns(self, tmp_path):
        (tmp_path / "BENCH_store.json").write_text(
            json.dumps({"benchmark": "latency"})
        )
        (warning,) = detect_trend_regressions(
            [micro_entry("new", 1.0)], root=str(tmp_path)
        )
        assert "baseline unusable" in warning

    def test_no_baseline_files_is_quiet(self, tmp_path):
        history = [micro_entry("new", 1.0), latency_entry("new", 99.0)]
        assert detect_trend_regressions(history, root=str(tmp_path)) == []


class TestLoadTrend:
    def test_reads_jsonl_and_scans(self, tmp_path):
        path = tmp_path / "history.jsonl"
        with open(path, "w") as fh:
            for entry in (micro_entry("aaa", 1000.0),):
                fh.write(json.dumps(entry) + "\n")
        lines, warnings = load_trend(str(path), root=str(tmp_path))
        assert any("store-micro" in line for line in lines)
        assert warnings == []


class TestCli:
    def test_bench_report_renders_dashboard(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(micro_entry("abc", 12345.0)) + "\n")
        out_md = tmp_path / "trend.md"
        rc = main(
            [
                "bench", "report",
                "--history", str(path),
                "--out", str(out_md),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "`abc`" in captured
        assert out_md.exists()

    def test_bench_report_missing_history_errors(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["bench", "report", "--history", str(tmp_path / "absent.jsonl")]
        )
        assert rc == 1
        assert "no trajectory" in capsys.readouterr().err
