"""Executor: pooled correctness, deterministic seeding, the pool clamp,
the failure contract, and workers that outlive a killed sweep."""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.bench.experiments import ExperimentOutput
from repro.bench.runner import run_simulation
from repro.bench.sweep import (
    Manifest,
    SweepError,
    execute_job,
    expand_grid,
    parallel_experiment,
    run_sweep,
    spec_from_call,
)
from repro.bench.tables import format_series
from repro.policies import registry
from repro.policies.greedy import GreedyPolicy
from repro.store import StoreConfig
from repro.workloads import HotColdWorkload

TINY = StoreConfig(
    n_segments=64, segment_units=8, fill_factor=0.75,
    clean_trigger=2, clean_batch=2,
)

#: A policy name no registry holds: its job raises inside the worker,
#: whatever the pool's start method.
UNKNOWN = "no-such-policy"


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


def mixed_grid(policies=("greedy", UNKNOWN, "mdc"), runner=None):
    """A hand-made grid: one tiny hot-cold job per policy."""
    run = runner or run_simulation
    wamps = [
        run(
            TINY,
            policy,
            HotColdWorkload.from_skew(TINY.user_pages, 80, seed=0),
            write_multiplier=2.0,
        ).wamp
        for policy in policies
    ]
    rendered = format_series("policy", list(policies), {"wamp": wamps})
    return ExperimentOutput("mixed", rendered, {"wamp": wamps})


def pool_size(workers, jobs):
    return max(1, min(workers, jobs, os.cpu_count() or 1))


class TestExecution:
    def test_inline_and_parallel_results_are_identical(self):
        specs = tiny_specs()
        inline, _, inline_stats = run_sweep(specs, workers=1)
        parallel, _, parallel_stats = run_sweep(specs, workers=2)
        assert inline == parallel
        assert inline_stats.executed == parallel_stats.executed == len(specs)

    def test_same_spec_is_bit_reproducible(self):
        spec = tiny_specs(policies=("mdc",))[0]
        assert execute_job(spec.to_dict()) == execute_job(spec.to_dict())

    def test_different_seeds_change_results(self):
        a, _, _ = run_sweep(tiny_specs(policies=("greedy",), seed=0), workers=1)
        b, _, _ = run_sweep(tiny_specs(policies=("greedy",), seed=1), workers=1)
        (ra,), (rb,) = a.values(), b.values()
        assert ra["window"] != rb["window"]

    def test_duplicate_specs_collapse_to_one_job(self):
        specs = tiny_specs(policies=("greedy",)) * 3
        results, _, stats = run_sweep(specs, workers=1)
        assert stats.total == stats.executed == 1
        assert len(results) == 1


class TestWorkerClamp:
    """The pool is ``min(request, pending jobs, cpus)`` processes —
    oversubscribing a CPU-bound sweep only adds scheduling overhead —
    and at one the jobs run inline."""

    def test_pool_clamps_to_jobs_and_cpus(self):
        specs = tiny_specs(policies=("greedy",))
        _, _, stats = run_sweep(specs, workers=64)
        assert stats.workers == pool_size(64, len(specs)) == 1
        assert stats.executed == 1

    def test_nonpositive_request_runs_inline(self):
        specs = tiny_specs(policies=("greedy",))
        _, _, stats = run_sweep(specs, workers=0)
        assert stats.workers == 1
        assert stats.executed == 1

    def test_parallel_experiment_records_effective_size(self):
        from repro.bench.experiments import demo_experiment

        report = parallel_experiment(demo_experiment, workers=64)
        stats = report.stats
        assert stats.workers == pool_size(64, stats.total)
        assert report.summary["workers"] == stats.workers
        assert report.summary["cpu_count"] == os.cpu_count()


class TestFailure:
    """A failing job stops the sweep with a :class:`SweepError` naming
    it; every job that finished is journaled, so ``resume`` continues
    from them once the cause is fixed."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_job_is_named_and_resume_finishes(
        self, tmp_path, monkeypatch, workers
    ):
        good_first, bad, good_last = expand_grid(mixed_grid)
        with pytest.raises(SweepError) as info:
            parallel_experiment(mixed_grid, workers=workers, out_dir=tmp_path)
        assert bad.label in str(info.value)
        assert bad.digest() in str(info.value)

        # Inline, the sweep stops at the bad job.  Pooled, all three
        # jobs fit the pool's call queue (workers + 1 deep), so none is
        # cancelled: both good ones finish and are journaled.
        finished = {good_first.digest()}
        if pool_size(workers, 3) > 1:
            finished.add(good_last.digest())
        assert set(Manifest.in_dir(tmp_path).load()) == finished

        monkeypatch.setitem(registry._FACTORIES, UNKNOWN, GreedyPolicy)
        resumed = parallel_experiment(
            mixed_grid, workers=workers, out_dir=tmp_path, resume=True
        )
        assert resumed.stats.skipped == len(finished)
        assert resumed.stats.executed == 3 - len(finished)
        assert resumed.output.rendered == mixed_grid().rendered
        assert (tmp_path / "mixed.txt").read_text() == (
            mixed_grid().rendered + "\n"
        )

    def test_dead_worker_stops_the_sweep_naming_its_job(self, monkeypatch):
        if pool_size(2, 3) < 2:
            pytest.skip("needs two CPUs for a pool")
        crash, *rest = tiny_specs(policies=("crash-worker", "greedy", "mdc"))

        def die(**kwargs):
            os._exit(3)

        # Under fork the worker dies inside the factory and breaks the
        # pool; under other start methods the name is unknown there and
        # the job raises.  Either way the sweep names the job.
        monkeypatch.setitem(registry._FACTORIES, "crash-worker", die)
        with pytest.raises(SweepError) as info:
            run_sweep([crash] + rest, workers=2)
        assert crash.label in str(info.value)


def _children(pid):
    """PIDs whose parent is ``pid``, read from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestKilledSweep:
    def test_workers_exit_after_the_sweep_is_killed(self, tmp_path):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs two CPUs for a pool")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "run"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "fig4", "--quick",
             "--workers", "2", "--out", str(out)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            manifest = out / "manifest.jsonl"
            deadline = time.monotonic() + 60
            while '"kind": "job"' not in (
                manifest.read_text() if manifest.exists() else ""
            ):
                assert proc.poll() is None, "the sweep ended before a job"
                assert time.monotonic() < deadline, "no job journaled"
                time.sleep(0.05)
            workers = _children(proc.pid)
            assert workers, "the sweep runs no worker process"
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
