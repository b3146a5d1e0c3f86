"""Observability through the sweep (``repro sweep --metrics-out``).

A job observed in a worker returns its rows with its result; the parent
writes them where and in the order the serial run writes them.
"""

from repro.bench.experiments import demo_experiment
from repro.bench.runner import observed_runner
from repro.bench.sweep import execute_job, expand_grid, parallel_experiment
from repro.obs import load_rows, validate_file, write_jsonl


class TestObsJobRunner:
    def test_runs_job_and_writes_metrics(self, tmp_path):
        spec = expand_grid(demo_experiment)[0]
        payload, rows = execute_job(
            spec.to_dict(), observe=True, sample_interval=50
        )
        assert payload["policy"] == spec.policy
        path = str(tmp_path / "job.jsonl")
        write_jsonl(path, rows)
        assert validate_file(path, require_decisions=True) == []

    def test_is_picklable(self):
        """Rows cross the pool's process boundary with the result."""
        import pickle

        spec = expand_grid(demo_experiment)[0]
        outcome = execute_job(spec.to_dict(), observe=True)
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    def test_observability_does_not_change_results(self):
        spec = expand_grid(demo_experiment)[0]
        plain, no_rows = execute_job(spec.to_dict())
        observed, rows = execute_job(spec.to_dict(), observe=True)
        assert plain == observed
        assert no_rows is None and rows


class TestParallelExperimentObs:
    def test_sweep_merges_metrics_in_spec_order(self, tmp_path):
        """The pooled sweep writes the serial run's rows, byte for byte."""
        serial = tmp_path / "serial.jsonl"
        demo_experiment(runner=observed_runner(str(serial), sample_interval=50))
        swept = tmp_path / "swept.jsonl"
        parallel_experiment(
            demo_experiment, workers=2, metrics_out=str(swept),
            sample_interval=50,
        )
        assert validate_file(str(swept), require_decisions=True) == []
        assert swept.read_bytes() == serial.read_bytes()
        metas = [r for r in load_rows(str(swept)) if r["type"] == "meta"]
        assert [m["run"]["policy"] for m in metas] == [
            s.policy for s in expand_grid(demo_experiment)
        ]

    def test_resumed_jobs_write_no_rows(self, tmp_path):
        parallel_experiment(demo_experiment, workers=1, out_dir=tmp_path)
        metrics = tmp_path / "metrics.jsonl"
        report = parallel_experiment(
            demo_experiment, workers=1, out_dir=tmp_path, resume=True,
            metrics_out=str(metrics),
        )
        assert report.stats.executed == 0
        assert not metrics.exists()

    def test_obs_output_identical_to_serial(self, tmp_path):
        serial = demo_experiment()
        swept = parallel_experiment(
            demo_experiment, workers=2, out_dir=tmp_path,
            metrics_out=str(tmp_path / "metrics.jsonl"),
        )
        assert swept.output.rendered == serial.rendered
