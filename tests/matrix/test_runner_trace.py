"""The matrix runner's span artifact: spans.jsonl beside report.md."""

from repro.matrix.config import parse_config
from repro.matrix.runner import run_matrix
from repro.obs.export import load_rows, validate_rows
from repro.obs.trace import load_spans

TINY = {
    "n_segments": 64,
    "segment_units": 8,
    "fill": 0.5,
    "clean_trigger": 2,
    "clean_batch": 2,
    "write_multiplier": 2.0,
}


def tiny_config(policies=("age", "greedy")):
    return parse_config(
        {
            "name": "tiny",
            "experiments": [
                {
                    "name": "grid",
                    "kind": "sim",
                    "matrix": {"policy": list(policies)},
                    "params": dict(TINY),
                }
            ],
        }
    )


class TestMatrixSpans:
    def test_run_writes_validating_span_file(self, tmp_path):
        run = run_matrix(
            tiny_config(), out_dir=str(tmp_path / "out"), workers=1
        )
        assert run.ok
        path = tmp_path / "out" / "spans.jsonl"
        assert path.exists()
        rows = load_rows(str(path))
        assert validate_rows(rows) == []
        assert rows[0]["run"]["matrix"] == "tiny"
        spans = load_spans(str(path))
        jobs = [r for r in spans if r["name"] == "sweep.job"]
        assert len(jobs) == 2
        (root,) = [r for r in spans if r["name"] == "sweep.run"]
        assert all(j["parent"] == root["span"] for j in jobs)

    def test_trace_false_skips_span_file(self, tmp_path):
        run_matrix(
            tiny_config(("age",)), out_dir=str(tmp_path / "out"),
            workers=1, trace=False,
        )
        assert not (tmp_path / "out" / "spans.jsonl").exists()
