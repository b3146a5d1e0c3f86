"""Executor: parallel correctness, deterministic seeding, retry paths.

The misbehaving job runners live at module level (with state markers on
disk) so they survive the trip into worker processes.
"""

import functools
import os
import pathlib

import pytest

from repro.store import StoreConfig
from repro.sweep import (
    JobSpec,
    execute_job,
    run_sweep,
    spec_from_call,
)
from repro.workloads import HotColdWorkload

TINY = StoreConfig(
    n_segments=64, segment_units=8, fill_factor=0.75,
    clean_trigger=2, clean_batch=2,
)


def tiny_specs(policies=("greedy", "age", "mdc"), seed=0):
    return [
        spec_from_call(
            TINY,
            policy,
            HotColdWorkload.from_skew(TINY.user_pages, 80, seed=seed),
            write_multiplier=2.0,
        )
        for policy in policies
    ]


def _marker(marker_dir, spec_dict):
    digest = JobSpec.from_dict(spec_dict).digest()
    return pathlib.Path(marker_dir) / digest


def _flaky_runner(marker_dir, spec_dict):
    """Raises on each job's first attempt, succeeds on the second."""
    marker = _marker(marker_dir, spec_dict)
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("injected first-attempt failure")
    return execute_job(spec_dict)


def _always_failing_runner(spec_dict):
    raise ValueError("injected permanent failure")


def _crash_once_runner(marker_dir, spec_dict):
    """Hard-kills the worker process on each job's first attempt."""
    marker = _marker(marker_dir, spec_dict)
    if not marker.exists():
        marker.write_text("attempted")
        os._exit(3)
    return execute_job(spec_dict)


class TestExecution:
    def test_inline_and_parallel_results_are_identical(self):
        specs = tiny_specs()
        inline, inline_stats = run_sweep(specs, workers=1)
        parallel, parallel_stats = run_sweep(specs, workers=2)
        assert inline == parallel
        assert inline_stats.executed == parallel_stats.executed == len(specs)
        assert not inline_stats.failed and not parallel_stats.failed

    def test_same_spec_is_bit_reproducible(self):
        spec = tiny_specs(policies=("mdc",))[0]
        assert execute_job(spec.to_dict()) == execute_job(spec.to_dict())

    def test_different_seeds_change_results(self):
        a, _ = run_sweep(tiny_specs(policies=("greedy",), seed=0), workers=1)
        b, _ = run_sweep(tiny_specs(policies=("greedy",), seed=1), workers=1)
        (ra,), (rb,) = a.values(), b.values()
        assert ra["window"] != rb["window"]

    def test_duplicate_specs_collapse_to_one_job(self):
        specs = tiny_specs(policies=("greedy",)) * 3
        results, stats = run_sweep(specs, workers=1)
        assert stats.total == stats.executed == 1
        assert len(results) == 1

    def test_progress_events_cover_every_job(self):
        events = []
        specs = tiny_specs()
        run_sweep(specs, workers=2, progress=events.append)
        assert len(events) == len(specs)
        assert {e.status for e in events} == {"done"}
        assert events[-1].done == len(specs)
        assert all(e.total == len(specs) for e in events)


class TestRetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_worker_is_retried_and_recovers(self, tmp_path, workers):
        specs = tiny_specs()
        events = []
        results, stats = run_sweep(
            specs,
            workers=workers,
            retries=1,
            job_runner=functools.partial(_flaky_runner, str(tmp_path)),
            progress=events.append,
        )
        assert not stats.failed
        assert stats.executed == len(specs)
        clean, _ = run_sweep(specs, workers=1)
        assert results == clean
        assert sum(1 for e in events if e.status == "retry") == len(specs)

    def test_exhausted_retries_report_failure(self):
        specs = tiny_specs(policies=("greedy", "age"))
        results, stats = run_sweep(
            specs, workers=1, retries=2, job_runner=_always_failing_runner
        )
        assert results == {}
        assert len(stats.failed) == len(specs)
        for failure in stats.failed:
            assert failure.attempts == 3  # 1 initial + 2 retries
            assert "injected permanent failure" in failure.error

    def test_crashed_worker_process_is_retried(self, tmp_path):
        specs = tiny_specs(policies=("greedy", "mdc"))
        results, stats = run_sweep(
            specs,
            workers=2,
            retries=1,
            job_runner=functools.partial(_crash_once_runner, str(tmp_path)),
        )
        assert not stats.failed
        clean, _ = run_sweep(specs, workers=1)
        assert results == clean

    def test_crash_without_retries_reports_exitcode(self, tmp_path):
        specs = tiny_specs(policies=("greedy",))
        results, stats = run_sweep(
            specs,
            workers=2,
            retries=0,
            job_runner=functools.partial(_crash_once_runner, str(tmp_path)),
        )
        assert results == {}
        assert len(stats.failed) == 1
        assert "worker died" in stats.failed[0].error


class TestWorkerClamp:
    """The executor clamps the pool to ``min(request, jobs, cpus)`` —
    oversubscribing a CPU-bound sweep only adds scheduling overhead —
    but any request > 1 still gets worker *processes* (possibly a pool
    of one): the crash tests above depend on per-process
    isolation even on a single-CPU box."""

    def test_pool_clamps_to_jobs_and_cpus(self):
        from repro.sweep.executor import default_workers

        specs = tiny_specs(policies=("greedy",))
        _, stats = run_sweep(specs, workers=64)
        assert stats.workers_requested == 64
        assert stats.workers == min(64, len(specs), default_workers())
        assert stats.pool_mode != "inline"  # clamped, but still a pool
        assert stats.executed == 1

    def test_nonpositive_request_runs_inline(self):
        specs = tiny_specs(policies=("greedy",))
        _, stats = run_sweep(specs, workers=0)
        assert stats.workers == 1
        assert stats.pool_mode == "inline"
        assert stats.executed == 1

    def test_parallel_experiment_records_request_and_effective(self):
        from repro.sweep.executor import default_workers
        from repro.sweep.report import parallel_experiment

        from repro.bench.experiments import demo_experiment

        report = parallel_experiment(demo_experiment, workers=64)
        stats = report.stats
        assert stats.workers_requested == 64
        assert stats.workers == min(64, stats.total, default_workers())
        assert stats.workers <= (os.cpu_count() or 1)
        assert report.summary["workers"] == stats.workers
        assert report.summary["workers_requested"] == 64
        assert report.summary["pool_mode"] == stats.pool_mode
        assert report.summary["cpu_count"] == os.cpu_count()


class TestPoolDeterminism:
    """Sweep outputs must be byte-identical no matter how the pool is
    shaped: inline, fork workers, or spawn workers (spawn re-imports
    everything, so it would expose any state smuggled through fork)."""

    def test_results_identical_across_pool_modes(self):
        import json

        specs = tiny_specs()
        inline, inline_stats = run_sweep(specs, workers=1)
        fork, fork_stats = run_sweep(specs, workers=2, start_method="fork")
        spawn, spawn_stats = run_sweep(specs, workers=2, start_method="spawn")
        canon = lambda r: json.dumps(r, sort_keys=True)
        assert canon(inline) == canon(fork) == canon(spawn)
        assert inline_stats.pool_mode == "inline"
        assert fork_stats.pool_mode == "fork"
        assert spawn_stats.pool_mode == "spawn"

    def test_clean_pool_recycles_no_worker(self):
        specs = tiny_specs()
        _, stats = run_sweep(specs, workers=2)
        assert stats.worker_recycles == 0


class TestWorkerRecycle:
    def test_crash_recycles_worker_and_resumes_manifest(self, tmp_path):
        from repro.sweep.manifest import Manifest

        specs = tiny_specs()
        manifest = Manifest(tmp_path / "manifest.jsonl")
        manifest.ensure_header("recycle-test", "deadbeef")
        results, stats = run_sweep(
            specs,
            workers=2,
            retries=1,
            manifest=manifest,
            job_runner=functools.partial(_crash_once_runner, str(tmp_path)),
        )
        manifest.close()
        assert not stats.failed
        assert stats.worker_recycles >= len(specs)  # one kill per job
        clean, _ = run_sweep(specs, workers=1)
        assert results == clean

        # The manifest journaled every job; a fresh sweep over it
        # resumes instead of re-running.
        resumed = Manifest(tmp_path / "manifest.jsonl")
        assert len(resumed.completed()) == len(specs)
        again, again_stats = run_sweep(specs, workers=2, manifest=resumed)
        resumed.close()
        assert again == results
        assert again_stats.skipped == len(specs)
        assert again_stats.executed == 0
