"""Sweep aggregation, live progress, and machine-readable summaries.

The pipeline is *discover → execute → replay*:

1. :func:`repro.sweep.spec.expand_grid` records the experiment's
   simulation calls as job specs;
2. :func:`repro.sweep.executor.run_sweep` runs them (in parallel, with
   retries and a resumable manifest);
3. the experiment function runs once more with a **replaying** runner
   that serves each simulation call from the stored results.

Step 3 reuses the experiment's own aggregation code — analytic columns,
rendering, everything — so a swept run's ``ExperimentOutput`` is
byte-identical to the serial one, whether or not the sweep was
interrupted and resumed along the way.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import sys
from typing import Any, Callable, Dict, Optional, Union

from repro.bench.experiments import ExperimentOutput
from repro.sweep.executor import (
    ObsJobRunner,
    ProgressEvent,
    SweepStats,
    default_workers,
    execute_job,
    run_sweep,
)
from repro.sweep.manifest import Manifest
from repro.sweep.spec import (
    SWEEP_GRIDS,
    SweepError,
    expand_grid,
    grid_digest,
    result_from_dict,
    spec_from_call,
)

#: File name of the machine-readable summary inside an output dir.
SUMMARY_NAME = "summary.json"

#: Merged observability rows of every job, in spec order.
METRICS_NAME = "metrics.jsonl"

#: Aggregated per-job convergence curves (clock vs windowed Wamp).
CONVERGENCE_NAME = "convergence.json"


class ProgressPrinter:
    """Single-line live progress: ``[12/42] 28% mdc/... eta 26.3s``.

    Writes carriage-return-terminated lines to ``stream`` (stderr by
    default) so the line updates in place; :meth:`close` finishes it
    with a newline.  Disable by passing ``progress=None`` to the
    functions below.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._wrote = False

    def __call__(self, event: ProgressEvent) -> None:
        finished = event.done + event.skipped + event.failed
        pct = 100.0 * finished / event.total if event.total else 100.0
        eta = " eta %.1fs" % event.eta if event.eta is not None else ""
        failed = " failed=%d" % event.failed if event.failed else ""
        skipped = " resumed=%d" % event.skipped if event.skipped else ""
        line = "[%d/%d] %3.0f%% %-40s elapsed %.1fs%s%s%s" % (
            finished,
            event.total,
            pct,
            event.label[:40],
            event.elapsed,
            eta,
            skipped,
            failed,
        )
        self.stream.write("\r" + line)
        self.stream.flush()
        self._wrote = True

    def close(self) -> None:
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()
            self._wrote = False


@dataclasses.dataclass
class SweepReport:
    """Everything one sweep run produced."""

    output: ExperimentOutput
    stats: SweepStats
    summary: Dict[str, Any]
    out_dir: Optional[pathlib.Path] = None


def _replay_runner(results: Dict[str, Dict]) -> Callable:
    """A runner serving ``run_simulation`` calls from stored results."""

    def runner(config, policy, workload, **run_kwargs):
        spec = spec_from_call(config, policy, workload, **run_kwargs)
        digest = spec.digest()
        try:
            return result_from_dict(results[digest])
        except KeyError:
            raise SweepError(
                "no stored result for job %s (%s); the manifest does not "
                "cover this grid" % (digest, spec.label)
            )

    return runner


def build_summary(
    name: str,
    kwargs: Dict[str, Any],
    stats: SweepStats,
    digest: str,
) -> Dict[str, Any]:
    """The machine-readable sweep summary (written as summary.json)."""
    return {
        "experiment": name,
        "args": {k: v for k, v in kwargs.items() if k != "runner"},
        "grid_digest": digest,
        "jobs": stats.total,
        "executed": stats.executed,
        "skipped": stats.skipped,
        "failed": len(stats.failed),
        "workers": stats.workers,
        "workers_requested": stats.workers_requested,
        "pool_mode": stats.pool_mode,
        "cpu_count": os.cpu_count(),
        "worker_recycles": stats.worker_recycles,
    }


def _merge_job_metrics(specs, out_path: pathlib.Path, job_runner) -> int:
    """Merge per-job observability files into one ``metrics.jsonl``.

    Jobs run in separate processes, so each writes its own
    ``metrics/<digest>.jsonl``; this concatenates them in spec order
    (stable across worker counts and scheduling) and aggregates the
    convergence curves.  Returns the number of jobs that produced rows
    (resumed jobs did not re-run and have none).
    """
    from repro.obs import MetricsWriter, aggregate_convergence, load_rows

    writer = MetricsWriter(str(out_path / METRICS_NAME))
    merged = 0
    all_rows = []
    seen = set()
    for spec in specs:
        digest = spec.digest()
        if digest in seen:
            continue
        seen.add(digest)
        job_path = job_runner.job_metrics_path(digest)
        if not os.path.exists(job_path):
            continue
        rows = load_rows(job_path)
        if rows:
            writer.write_rows(rows)
            all_rows.extend(rows)
            merged += 1
    (out_path / CONVERGENCE_NAME).write_text(
        json.dumps(aggregate_convergence(all_rows), indent=2, sort_keys=True)
        + "\n"
    )
    return merged


def parallel_experiment(
    experiment: Callable[..., ExperimentOutput],
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, pathlib.Path]] = None,
    resume: bool = False,
    retries: int = 1,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    name: Optional[str] = None,
    obs: bool = False,
    sample_interval: Optional[int] = None,
    start_method: Optional[str] = None,
    **kwargs,
) -> SweepReport:
    """Run any experiment function through the sweep engine.

    Args:
        experiment: A function from :mod:`repro.bench.experiments` (or
            anything with the same ``runner`` contract).
        workers: Worker processes; defaults to the CPU count.  The
            executor clamps the pool to ``min(workers, jobs, cpus)`` —
            oversubscribing a CPU-bound sweep only adds scheduling
            overhead.  Both the requested and effective counts land in
            the summary.
        out_dir: Where the manifest, rendered output, and summary.json
            land.  ``None`` keeps everything in memory (no resume).
        resume: Allow continuing from an existing manifest.  Without it
            an existing manifest is an error, so two sweeps cannot
            silently interleave in one directory.
        retries / progress: Passed to
            :func:`repro.sweep.executor.run_sweep`.
        obs: Record each job's observability rows (time series, cleaning
            decisions, events).  Requires ``out_dir``; the per-job files
            land in ``out_dir/metrics/`` and are merged, in spec order,
            into ``out_dir/metrics.jsonl``, with the convergence curves
            aggregated into ``out_dir/convergence.json``.  Observability
            never enters job digests, so obs and non-obs sweeps share
            manifests — but jobs *resumed* from a manifest were not
            re-run and contribute no rows.
        sample_interval: Clock ticks between time-series samples
            (default: a quarter of the store's user pages).
        start_method: Multiprocessing start method of the worker pool
            (``"fork"``, ``"spawn"``, ``"forkserver"``; None = platform
            default).  Results are identical across methods.
        kwargs: Forwarded to the experiment function (grid parameters).

    Returns:
        A :class:`SweepReport`; ``report.output`` is byte-identical to
        ``experiment(**kwargs)`` run serially.
    """
    if obs and out_dir is None:
        raise SweepError(
            "observability (obs=True / --obs) needs an output directory "
            "to write metrics.jsonl into; pass out_dir (--out)"
        )
    if workers is None:
        workers = default_workers()
    run_name = name or getattr(experiment, "__name__", "experiment")

    specs = expand_grid(experiment, **kwargs)
    digest = grid_digest(specs)

    manifest = None
    out_path: Optional[pathlib.Path] = None
    if out_dir is not None:
        out_path = pathlib.Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        manifest = Manifest.in_dir(out_path)
        if manifest.exists() and not resume:
            raise SweepError(
                "%s already has a manifest; pass resume=True (--resume) to "
                "continue it or use a fresh output directory" % (out_path,)
            )
        manifest.ensure_header(run_name, digest)

    job_runner: Callable[[Dict], Dict] = execute_job
    if obs:
        metrics_dir = out_path / "metrics"
        metrics_dir.mkdir(parents=True, exist_ok=True)
        job_runner = ObsJobRunner(str(metrics_dir), sample_interval)

    try:
        results, stats = run_sweep(
            specs,
            workers=workers,
            manifest=manifest,
            retries=retries,
            job_runner=job_runner,
            progress=progress,
            start_method=start_method,
        )
    finally:
        if manifest is not None:
            manifest.close()
        if isinstance(progress, ProgressPrinter):
            progress.close()

    if stats.failed:
        details = "; ".join(
            "%s after %d attempts: %s" % (f.label, f.attempts, f.error)
            for f in stats.failed[:5]
        )
        raise SweepError(
            "%d/%d jobs failed (%s); completed jobs are journaled — fix "
            "the cause and re-run with resume" % (
                len(stats.failed), stats.total, details,
            )
        )

    output = experiment(runner=_replay_runner(results), **kwargs)
    summary = build_summary(run_name, kwargs, stats, digest)

    if obs:
        merged = _merge_job_metrics(specs, out_path, job_runner)
        summary["obs"] = {
            "metrics_file": METRICS_NAME,
            "convergence_file": CONVERGENCE_NAME,
            "jobs_with_metrics": merged,
        }

    if out_path is not None:
        (out_path / SUMMARY_NAME).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        (out_path / ("%s.txt" % output.name)).write_text(output.rendered + "\n")

    return SweepReport(
        output=output, stats=stats, summary=summary, out_dir=out_path
    )


def run_named_sweep(
    grid: str,
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, pathlib.Path]] = None,
    resume: bool = False,
    quick: bool = False,
    seed: int = 0,
    dist: Optional[str] = None,
    retries: int = 1,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    obs: bool = False,
    sample_interval: Optional[int] = None,
    start_method: Optional[str] = None,
) -> SweepReport:
    """Run one of the registered experiment grids (``repro sweep``)."""
    try:
        grid_def = SWEEP_GRIDS[grid]
    except KeyError:
        raise SweepError(
            "unknown grid %r (have: %s)" % (grid, ", ".join(sorted(SWEEP_GRIDS)))
        )
    experiment, kwargs, run_name = grid_def.resolve(
        quick=quick, seed=seed, dist=dist
    )
    return parallel_experiment(
        experiment,
        workers=workers,
        out_dir=out_dir,
        resume=resume,
        retries=retries,
        progress=progress,
        name=run_name,
        obs=obs,
        sample_interval=sample_interval,
        start_method=start_method,
        **kwargs,
    )
