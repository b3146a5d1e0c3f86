"""The one schema: its version, span rows, a span ring's capacity."""

from repro.obs.export import (
    SCHEMA_VERSION,
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
    def test_current_version_is_three(self):
        assert SCHEMA_VERSION == 3

    def test_unsupported_schema_rejected(self):
        """Only the current version validates.  An older block is
        refused by its header alone: its rows (a v2 file's ``event``
        rows) are not checked against this schema."""
        for schema in (1, 2, 4):
            rows = [
                _meta(schema=schema),
                {"type": "event", "seq": 1, "clock": 1, "kind": "clean_cycle"},
            ]
            (problem,) = validate_rows(rows)
            assert problem == "row 0: schema %d, expected 3" % schema


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

    def test_ring_capacity_falls_back_to_run_meta(self):
        rows = [_meta(ring_capacity=64), _span()]
        assert summarize_rows(rows)["per_run"][0]["ring_capacity"] == 64
