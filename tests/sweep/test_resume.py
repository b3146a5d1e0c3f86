"""Checkpointed resume: interrupted sweeps finish with identical output.

The interruption is simulated by truncating a finished sweep's manifest
to its first k job records (plus a torn, half-written trailing line —
what a SIGKILL mid-append leaves behind) and resuming from the copy.
"""

import json

import pytest

from repro.bench.experiments import demo_experiment
from repro.sweep import (
    MANIFEST_NAME,
    Manifest,
    SweepError,
    parallel_experiment,
)

K = 2  # jobs "finished" before the simulated kill


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One uninterrupted sweep of the demo grid (4 jobs)."""
    out_dir = tmp_path_factory.mktemp("full")
    report = parallel_experiment(demo_experiment, workers=2, out_dir=out_dir)
    return report, out_dir


class TestResume:
    def make_interrupted_dir(self, full_dir, target_dir, torn=True):
        """Copy header + first K job lines, optionally add a torn tail."""
        lines = (full_dir / MANIFEST_NAME).read_text().splitlines()
        kept = lines[: 1 + K]  # header + K jobs
        text = "\n".join(kept) + "\n"
        if torn:
            text += lines[1 + K][: len(lines[1 + K]) // 2]
        target_dir.mkdir(exist_ok=True)
        (target_dir / MANIFEST_NAME).write_text(text)

    def test_resume_skips_finished_jobs_and_matches_byte_for_byte(
        self, full_run, tmp_path
    ):
        report, full_dir = full_run
        self.make_interrupted_dir(full_dir, tmp_path / "resume")
        resumed = parallel_experiment(
            demo_experiment, workers=2, out_dir=tmp_path / "resume", resume=True
        )
        assert resumed.stats.skipped == K
        assert resumed.stats.executed == report.stats.total - K
        assert resumed.output.rendered == report.output.rendered
        assert resumed.output.data == report.output.data

    def test_fully_journaled_sweep_resumes_without_executing(
        self, full_run, tmp_path
    ):
        report, full_dir = full_run
        target = tmp_path / "complete"
        target.mkdir()
        (target / MANIFEST_NAME).write_text(
            (full_dir / MANIFEST_NAME).read_text()
        )
        resumed = parallel_experiment(
            demo_experiment, workers=2, out_dir=target, resume=True
        )
        assert resumed.stats.executed == 0
        assert resumed.stats.skipped == report.stats.total
        assert resumed.output.rendered == report.output.rendered

    def test_existing_manifest_without_resume_flag_is_refused(self, full_run):
        _, full_dir = full_run
        with pytest.raises(SweepError, match="resume"):
            parallel_experiment(demo_experiment, workers=1, out_dir=full_dir)

    def test_resuming_a_different_grid_is_refused(self, full_run, tmp_path):
        _, full_dir = full_run
        self.make_interrupted_dir(full_dir, tmp_path / "other", torn=False)
        with pytest.raises(SweepError, match="different|grid"):
            parallel_experiment(
                demo_experiment,
                workers=1,
                out_dir=tmp_path / "other",
                resume=True,
                seed=1,  # different seeds = a different grid
            )

    def test_changed_job_specs_are_not_served_stale_results(
        self, full_run, tmp_path
    ):
        """Even with a matching header, jobs are matched by spec digest."""
        report, full_dir = full_run
        target = tmp_path / "stale"
        target.mkdir()
        lines = (full_dir / MANIFEST_NAME).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        # Corrupt one job's digest: it no longer matches any current job.
        records[1]["digest"] = "0" * 16
        (target / MANIFEST_NAME).write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
        resumed = parallel_experiment(
            demo_experiment, workers=1, out_dir=target, resume=True
        )
        assert resumed.stats.executed == 1  # the no-longer-covered job reran
        assert resumed.output.rendered == report.output.rendered

    def test_manifest_with_clock_records_still_resumes(
        self, full_run, tmp_path
    ):
        """Older manifests carry a per-job ``elapsed`` and a ``run``
        record per invocation; loading ignores both."""
        report, full_dir = full_run
        target = tmp_path / "older"
        target.mkdir()
        lines = (full_dir / MANIFEST_NAME).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for record in records[1:]:
            record["elapsed"] = 0.5
        records.append({"kind": "run", "workers_requested": 2, "wall_s": 1.0})
        (target / MANIFEST_NAME).write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
        resumed = parallel_experiment(
            demo_experiment, workers=1, out_dir=target, resume=True
        )
        assert resumed.stats.executed == 0
        assert resumed.stats.skipped == report.stats.total
        assert resumed.output.rendered == report.output.rendered


class TestManifestFile:
    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text(
            '{"kind": "sweep", "version": 1, "experiment": "x", '
            '"grid_digest": "abc"}\n'
            "{corrupt not json\n"
            '{"kind": "job", "digest": "d1", "label": "l", "elapsed": 0.1, '
            '"attempts": 1, "result": {}}\n'
        )
        with pytest.raises(SweepError, match="corrupt"):
            Manifest(path).load()

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text(
            '{"kind": "job", "digest": "d1", "label": "l", "elapsed": 0.1, '
            '"attempts": 1, "result": {}}\n'
            '{"kind": "job", "digest": "d2", "la'
        )
        completed = Manifest(path).load()
        assert set(completed) == {"d1"}

    def test_unknown_record_kind_raises(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text('{"kind": "mystery"}\n{"kind": "job", "digest": "d"}\n')
        with pytest.raises(SweepError, match="unknown record kind"):
            Manifest(path).load()

    def test_records_survive_close_and_reload(self, tmp_path):
        manifest = Manifest(tmp_path / MANIFEST_NAME)
        manifest.ensure_header("exp", "digest123")
        manifest.record(
            digest="j1", label="greedy", result={"wamp": 1.0}, attempts=2
        )
        manifest.close()
        reloaded = Manifest(tmp_path / MANIFEST_NAME)
        completed = reloaded.load()
        assert completed["j1"]["result"] == {"wamp": 1.0}
        assert completed["j1"]["attempts"] == 2
        # Header round-trips: same grid fine, different grid refused.
        reloaded.ensure_header("exp", "digest123")
        with pytest.raises(SweepError):
            reloaded.ensure_header("exp", "otherdigest")
