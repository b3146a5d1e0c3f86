"""Schema v2: span rows, v1 back-compat, ring capacity."""

from repro.obs.export import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    summarize_rows,
    validate_rows,
)


def _meta(schema=SCHEMA_VERSION, **run):
    return {"type": "meta", "schema": schema, "run": run}


def _span(**over):
    row = {
        "type": "span",
        "name": "IngestQueue.flush_shard",
        "start": 0.0001,
        "end": 0.00015,
        "parent": -1,
        "size": 12,
    }
    row.update(over)
    return row


class TestVersioning:
    def test_current_version_is_two(self):
        assert SCHEMA_VERSION == 2
        assert SUPPORTED_SCHEMAS == (1, 2)

    def test_v1_meta_still_validates(self):
        rows = [
            _meta(schema=1, policy="mdc"),
            {"type": "metrics", "counters": {}, "gauges": {}, "histograms": {}},
        ]
        assert validate_rows(rows) == []

    def test_unsupported_schema_rejected(self):
        (problem,) = validate_rows([_meta(schema=3)])
        assert "expected one of 1, 2" in problem


class TestSpanRows:
    def test_valid_span_row(self):
        assert validate_rows([_meta(), _span()]) == []

    def test_span_missing_keys(self):
        row = _span()
        del row["end"]
        (problem,) = validate_rows([_meta(), row])
        assert "missing keys end" in problem

    def test_span_timestamps_must_be_seconds(self):
        (problem,) = validate_rows([_meta(), _span(start="1.5")])
        assert "must be seconds" in problem

    def test_span_duration_must_be_nonnegative(self):
        (problem,) = validate_rows([_meta(), _span(end=0.00005)])
        assert "non-negative" in problem

    def test_span_parent_must_be_an_index(self):
        (problem,) = validate_rows([_meta(), _span(parent=None)])
        assert "span row index" in problem

    def test_span_before_meta_rejected(self):
        (problem,) = validate_rows([_span(), _meta()])
        assert "before any meta header" in problem


class TestTelemetryRows:
    def test_telemetry_rows_are_not_a_row_type(self):
        """The per-tick telemetry stream is gone; its rows no longer
        validate."""
        (problem,) = validate_rows([_meta(), {"type": "telemetry"}])
        assert "unknown type 'telemetry'" in problem


class TestSummarizeV2:
    def test_span_counts_surface(self):
        rows = [_meta(), _span(), _span(parent=0)]
        assert summarize_rows(rows)["per_run"][0]["spans"] == 2

    def test_ring_capacity_from_metrics_row(self):
        rows = [
            _meta(),
            {
                "type": "metrics",
                "counters": {},
                "gauges": {},
                "histograms": {},
                "events_dropped": 7,
                "ring_capacity": 512,
            },
        ]
        run = summarize_rows(rows)["per_run"][0]
        assert run["ring_capacity"] == 512
        assert run["events_dropped"] == 7

    def test_ring_capacity_falls_back_to_run_meta(self):
        rows = [_meta(ring_capacity=64), _span()]
        assert summarize_rows(rows)["per_run"][0]["ring_capacity"] == 64
