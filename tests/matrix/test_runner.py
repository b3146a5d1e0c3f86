"""End-to-end matrix runs on a tiny grid: execution, resume, obs merge."""

import json

import pytest

from repro.matrix.config import parse_config
from repro.matrix.runner import run_matrix
from repro.sweep.spec import SweepError

#: A geometry small enough that one cell simulates in well under a
#: second: 64x8 segments at half fill, two writes per user page.
TINY = {
    "n_segments": 64,
    "segment_units": 8,
    "fill": 0.5,
    "clean_trigger": 2,
    "clean_batch": 2,
    "write_multiplier": 2.0,
}


def tiny_config(obs=False, samples=1, policies=("age",), checks=()):
    return parse_config(
        {
            "name": "tiny",
            "experiments": [
                {
                    "name": "grid",
                    "kind": "sim",
                    "matrix": {"policy": list(policies)},
                    "params": dict(TINY),
                    "samples": samples,
                    "obs": obs,
                    "checks": list(checks),
                }
            ],
            "results": [{"type": "table", "experiment": "grid"}],
        }
    )


class TestRunMatrix:
    def test_runs_cells_and_writes_artifacts(self, tmp_path):
        cfg = tiny_config(policies=("age", "greedy"))
        run = run_matrix(
            cfg, out_dir=str(tmp_path / "out"), workers=1
        )
        assert run.ok
        assert run.stats.executed == 2 and run.stats.skipped == 0
        assert len(run.results["grid"]) == 2
        assert not any(c.resumed for c in run.results["grid"])
        report = (tmp_path / "out" / "report.md").read_text()
        assert "# Matrix run: tiny" in report
        gates = json.loads((tmp_path / "out" / "gates.json").read_text())
        assert gates["cells"] == 2 and gates["executed"] == 2

    def test_resume_skips_completed_cells(self, tmp_path):
        cfg = tiny_config()
        out = str(tmp_path / "out")
        first = run_matrix(cfg, out_dir=out, workers=1)
        second = run_matrix(
            cfg, out_dir=out, resume=True, workers=1
        )
        assert second.stats.executed == 0
        assert second.stats.skipped == first.stats.total
        assert all(c.resumed for c in second.results["grid"])
        # Resumed results replay the journaled payloads bit-for-bit.
        assert [c.result for c in second.results["grid"]] == [
            c.result for c in first.results["grid"]
        ]

    def test_existing_manifest_without_resume_rejected(self, tmp_path):
        cfg = tiny_config()
        out = str(tmp_path / "out")
        run_matrix(cfg, out_dir=out, workers=1)
        with pytest.raises(SweepError, match="--resume"):
            run_matrix(cfg, out_dir=out, workers=1)

    def test_changed_grid_cannot_reuse_manifest(self, tmp_path):
        out = str(tmp_path / "out")
        run_matrix(tiny_config(), out_dir=out, workers=1)
        other = tiny_config(policies=("greedy",))
        with pytest.raises(SweepError):
            run_matrix(other, out_dir=out, resume=True, workers=1)

    def test_obs_cells_merge_and_validate(self, tmp_path):
        cfg = tiny_config(obs=True)
        run = run_matrix(
            cfg, out_dir=str(tmp_path / "out"), workers=1
        )
        assert run.ok and not run.obs_problems
        merged = tmp_path / "out" / "metrics-grid.jsonl"
        assert merged.exists()
        rows = merged.read_text().strip().splitlines()
        assert rows  # meta header + samples at minimum

    def test_gates_feed_run_verdict(self, tmp_path):
        cfg = tiny_config(
            checks=[{"type": "metric", "metric": "wamp", "max": 0.0001}]
        )
        run = run_matrix(
            cfg, out_dir=str(tmp_path / "out"), workers=1
        )
        assert not run.ok
        (verdict,) = run.verdicts
        assert not verdict.passed


class TestCli:
    def test_bench_run_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "tiny.yml"
        config.write_text(
            "name: cli-tiny\n"
            "experiments:\n"
            "  - name: grid\n"
            "    matrix:\n"
            "      policy: [age]\n"
            "    params:\n"
            "      n_segments: 64\n"
            "      segment_units: 8\n"
            "      fill: 0.5\n"
            "      clean_trigger: 2\n"
            "      clean_batch: 2\n"
            "      write_multiplier: 2.0\n"
            "    checks:\n"
            "      - type: metric\n"
            "        metric: wamp\n"
            "        min: 0.0\n"
        )
        out = tmp_path / "run"
        rc = main(
            [
                "bench", "run", str(config),
                "--out", str(out), "--workers", "1",
            ]
        )
        assert rc == 0
        assert (out / "report.md").exists()
        assert "gate(s) passed" in capsys.readouterr().out

    def test_bench_run_failing_gate_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "tiny.yml"
        config.write_text(
            "name: cli-fail\n"
            "experiments:\n"
            "  - name: grid\n"
            "    matrix:\n"
            "      policy: [age]\n"
            "    params:\n"
            "      n_segments: 64\n"
            "      segment_units: 8\n"
            "      fill: 0.5\n"
            "      clean_trigger: 2\n"
            "      clean_batch: 2\n"
            "      write_multiplier: 2.0\n"
            "    checks:\n"
            "      - type: metric\n"
            "        metric: wamp\n"
            "        max: 0.000001\n"
        )
        rc = main(
            [
                "bench", "run", str(config),
                "--out", str(tmp_path / "run"), "--workers", "1",
            ]
        )
        assert rc == 1
        assert "gate FAILED" in capsys.readouterr().err

    def test_bench_run_bad_config_is_actionable(self, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "bad.yml"
        config.write_text("name: x\nexperiments: []\n")
        rc = main(["bench", "run", str(config)])
        assert rc == 1
        assert "matrix config error" in capsys.readouterr().err
