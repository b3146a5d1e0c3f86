"""JSONL export, schema validation, and aggregation."""

import json

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    MetricsWriter,
    aggregate_convergence,
    load_rows,
    summarize_rows,
    validate_rows,
)


def _meta(**run):
    return {"type": "meta", "schema": SCHEMA_VERSION, "run": run}


def _sample(clock, wamp=0.5):
    return {
        "type": "sample",
        "clock": clock,
        "user_writes": clock,
        "device_writes_multiple": 1.0,
        "wamp_cum": wamp,
        "wamp_win": wamp,
        "device_wamp_win": wamp,
        "mean_cleaned_emptiness_win": 0.4,
        "fill": 0.8,
        "free_segments": 4,
        "live_pages": 100,
        "emptiness_hist": [1, 2, 3],
        "temperature_cv": 0.1,
        "wear_cv": 0.05,
    }


def _decision(clock):
    return {
        "type": "decision",
        "clock": clock,
        "policy": "greedy",
        "candidates": 10,
        "victims": [{"seg": 1, "A": 5.0, "C": 3.0, "up2": 7.0, "score": 5.0}],
    }


def _metrics():
    return {"type": "metrics", "counters": {}, "gauges": {}, "histograms": {}}


def _valid_rows():
    return [
        _meta(policy="greedy"),
        _sample(100),
        _sample(200, wamp=0.25),
        _decision(150),
        _metrics(),
    ]


class TestWriterAndLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = _valid_rows()
        assert MetricsWriter(str(path)).write_rows(rows) == len(rows)
        assert load_rows(str(path)) == rows

    def test_writer_truncates_once_then_appends(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"stale": true}\n')
        writer = MetricsWriter(str(path))
        writer.write_rows([_meta(run=1)])
        writer.write_rows([_meta(run=2)])
        rows = load_rows(str(path))
        assert [r["run"] for r in rows] == [{"run": 1}, {"run": 2}]
        assert writer.rows_written == 2


class TestValidation:
    def test_valid_stream_passes(self):
        assert validate_rows(_valid_rows(), require_decisions=True) == []

    def test_rows_before_meta_rejected(self):
        errors = validate_rows([_sample(1)])
        assert any("before any meta" in e for e in errors)

    def test_wrong_schema_version_rejected(self):
        rows = _valid_rows()
        rows[0]["schema"] = SCHEMA_VERSION + 1
        assert any("schema" in e for e in validate_rows(rows))

    def test_missing_sample_key_rejected(self):
        rows = _valid_rows()
        del rows[1]["wamp_win"]
        assert any("wamp_win" in e for e in validate_rows(rows))

    def test_event_rows_rejected(self):
        """Event rows only restated the metrics row; no block of this
        schema holds one."""
        rows = _valid_rows() + [
            {"type": "event", "seq": 1, "clock": 1, "kind": "clean_cycle"}
        ]
        assert validate_rows(rows) == ["row 5: unknown type 'event'"]

    def test_empty_victims_rejected(self):
        rows = _valid_rows()
        rows[3]["victims"] = []
        assert any("victims" in e for e in validate_rows(rows))

    def test_require_decisions_per_run(self):
        rows = [
            _meta(policy="greedy"),
            _sample(100),
            _meta(policy="mdc"),
            _sample(100),
            _decision(150),
        ]
        assert validate_rows(rows) == []
        errors = validate_rows(rows, require_decisions=True)
        assert any("no decision records" in e for e in errors)

    def test_validate_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        MetricsWriter(str(path)).write_rows(_valid_rows())
        assert validate_rows(load_rows(str(path)), require_decisions=True) == []


class TestAggregation:
    def test_convergence_splits_runs(self):
        rows = (
            [_meta(policy="greedy")]
            + [_sample(c, wamp=0.5) for c in (100, 200)]
            + [_meta(policy="mdc")]
            + [_sample(c, wamp=0.2) for c in (100, 200, 300)]
        )
        series = aggregate_convergence(rows)
        assert len(series) == 2
        assert series[0]["run"] == {"policy": "greedy"}
        assert series[0]["clock"] == [100, 200]
        assert series[1]["wamp_win"] == [0.2, 0.2, 0.2]
        # JSON-serializable as produced (what convergence.json needs).
        json.dumps(series)

    def test_summarize(self):
        summary = summarize_rows(_valid_rows())
        assert summary["schemas"] == [SCHEMA_VERSION]
        assert summary["runs"] == 1
        run = summary["per_run"][0]
        assert run["samples"] == 2
        assert run["decisions"] == 1
        assert run["final_clock"] == 200
        assert run["final_wamp_win"] == 0.25

    def test_summarize_reports_the_schema_the_file_declares(self):
        """An older file is summarized as what it declares, not as the
        writer's current version (validation refuses it); a file mixing
        blocks names both."""
        old = _valid_rows()
        old[0]["schema"] = SCHEMA_VERSION - 1
        assert validate_rows(old) != []
        assert summarize_rows(old)["schemas"] == [SCHEMA_VERSION - 1]
        assert summarize_rows(old + _valid_rows())["schemas"] == [
            SCHEMA_VERSION - 1,
            SCHEMA_VERSION,
        ]

    def test_summarize_surfaces_ring_drops(self):
        dropped = _metrics()
        dropped["decisions_dropped"] = 2
        rows = (
            [_meta(policy="greedy"), _sample(100), dropped]
            + [_meta(policy="mdc"), _sample(100), _metrics()]
        )
        summary = summarize_rows(rows)
        assert summary["per_run"][0]["decisions_dropped"] == 2
        assert summary["per_run"][1]["decisions_dropped"] == 0
        assert summary["decisions_dropped"] == 2

    def test_summarize_without_drop_keys_defaults_to_zero(self):
        summary = summarize_rows(_valid_rows())
        assert summary["decisions_dropped"] == 0
        assert summary["per_run"][0]["decisions_dropped"] == 0


class TestSimulationExport:
    def test_run_simulation_observe_writes_valid_file(self, tmp_path):
        from repro.bench import make_workload, run_simulation
        from repro.store import StoreConfig

        config = StoreConfig(
            n_segments=64, segment_units=16, fill_factor=0.75,
            clean_trigger=3, clean_batch=4,
        )
        workload = make_workload("zipf-80-20", config.user_pages, seed=1)
        path = tmp_path / "run.jsonl"
        result = run_simulation(
            config, "mdc", workload, write_multiplier=6.0, observe=str(path)
        )
        assert result.window.user_writes > 0
        rows = load_rows(str(path))
        assert validate_rows(rows, require_decisions=True) == []
        meta = rows[0]["run"]
        assert meta["policy"] == "mdc"
        assert meta["wamp"] == pytest.approx(
            result.window.write_amplification
        )

    def test_shared_writer_merges_runs_into_one_file(self, tmp_path):
        from repro.bench import make_workload, run_simulation
        from repro.obs import MetricsWriter
        from repro.store import StoreConfig

        config = StoreConfig(
            n_segments=32, segment_units=8, fill_factor=0.75,
            clean_trigger=2, clean_batch=2,
        )
        path = tmp_path / "merged.jsonl"
        writer = MetricsWriter(str(path))
        for policy in ("greedy", "mdc"):
            workload = make_workload("uniform", config.user_pages, seed=0)
            run_simulation(
                config, policy, workload, write_multiplier=4.0,
                observe=writer,
            )
        rows = load_rows(str(path))
        metas = [r for r in rows if r["type"] == "meta"]
        assert [m["run"]["policy"] for m in metas] == ["greedy", "mdc"]
        assert validate_rows(rows) == []
