"""Sweep aggregation equals the serial path; summaries are written."""

import json
import os

import pytest

from repro.bench.experiments import demo_experiment, fig4_experiment
from repro.bench.sweep import SUMMARY_NAME, SWEEP_GRIDS, parallel_experiment
from repro.cli import main
from tests.sweep.test_surface import SUMMARY_KEYS


class TestSerialEquivalence:
    def test_demo_sweep_matches_serial_byte_for_byte(self):
        serial = demo_experiment()
        swept = parallel_experiment(demo_experiment, workers=2)
        assert swept.output.rendered == serial.rendered
        assert swept.output.data == serial.data

    def test_kwargs_forward_to_both_paths(self):
        kwargs = dict(skews=(70,), policies=("age", "greedy"), seed=5)
        serial = demo_experiment(**kwargs)
        swept = parallel_experiment(demo_experiment, workers=2, **kwargs)
        assert swept.output.rendered == serial.rendered

    def test_real_experiment_grid_matches_serial(self):
        """fig4 at reduced size: the actual paper pipeline, swept."""
        kwargs = dict(buffer_sizes=(0, 4), write_multiplier=1.0)
        serial = fig4_experiment(**kwargs)
        swept = parallel_experiment(fig4_experiment, workers=2, **kwargs)
        assert swept.output.rendered == serial.rendered
        assert swept.output.data["wamp"] == serial.data["wamp"]


class TestArtifacts:
    def test_summary_and_rendered_output_are_written(self, tmp_path):
        report = parallel_experiment(
            demo_experiment, workers=2, out_dir=tmp_path
        )
        summary = json.loads((tmp_path / SUMMARY_NAME).read_text())
        assert summary["experiment"] == "demo_experiment"
        assert summary["jobs"] == 4
        assert summary["executed"] == 4
        assert summary["workers"] == min(2, os.cpu_count() or 1)
        assert set(summary) == SUMMARY_KEYS
        assert (tmp_path / "demo.txt").read_text().rstrip("\n") == (
            report.output.rendered
        )

    def test_in_memory_sweep_writes_nothing(self, tmp_path):
        parallel_experiment(demo_experiment, workers=1)
        assert list(tmp_path.iterdir()) == []


class TestNamedSweeps:
    def test_demo_grid_by_name(self, tmp_path, capsys):
        argv = ["sweep", "demo", "--workers", "2", "--out", str(tmp_path),
                "--quick"]
        assert main(argv) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / SUMMARY_NAME).read_text())
        assert summary["experiment"] == "demo"
        serial = demo_experiment(write_multiplier=1.0)  # quick = 4.0 / 4
        assert (tmp_path / "demo.txt").read_text().rstrip("\n") == (
            serial.rendered
        )

    def test_unknown_grid_raises(self):
        """Figure 6's TPC-C traces are not spec-serializable, so it is
        no sweep grid."""
        assert "fig6" not in SWEEP_GRIDS
        with pytest.raises(SystemExit):
            main(["sweep", "fig6"])

