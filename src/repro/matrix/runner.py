"""Matrix execution: config → cells → sweep executor → gates → report.

:func:`run_matrix` is the engine behind ``repro bench run``.  It reuses
the sweep layer wholesale — :func:`repro.sweep.executor.run_sweep` for
process isolation/timeouts/retries, :class:`repro.sweep.manifest.Manifest`
for the fsynced resume journal — so a matrix run interrupted mid-CI
continues with ``--resume`` exactly where it died, and a re-run of an
unchanged config replays entirely from the manifest.

After execution it:

* merges per-cell metrics files (obs experiments) into one
  ``metrics-<experiment>.jsonl`` per experiment, in cell order, and
  schema-validates the merge — an implicit gate, because a matrix that
  claims observability but emits malformed rows should fail CI;
* evaluates the declarative ``checks:`` into gate verdicts;
* renders ``report.md`` and writes machine-readable ``gates.json``.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
from typing import Callable, Dict, List, Optional

from repro.bench.registry import write_report
from repro.matrix.cells import (
    CellResult,
    CellSpec,
    MatrixJobRunner,
    cells_for_experiment,
    matrix_digest,
)
from repro.matrix.config import MatrixConfig, default_out_dir
from repro.matrix.gates import GateResult, blocking_failures, evaluate_checks
from repro.matrix.report import render_report
from repro.sweep.executor import (
    ProgressEvent,
    SweepStats,
    default_workers,
    run_sweep,
)
from repro.sweep.manifest import Manifest
from repro.sweep.spec import JobSpec, SweepError

#: File names inside a matrix output directory.
REPORT_NAME = "report.md"
GATES_NAME = "gates.json"


@dataclasses.dataclass
class MatrixRunReport:
    """Everything one matrix run produced."""

    config: MatrixConfig
    out_dir: str
    digest: str
    sha: str
    results: Dict[str, List[CellResult]]
    verdicts: List[GateResult]
    stats: SweepStats
    obs_problems: List[str]
    report_path: str
    gates_path: str
    markdown: str

    @property
    def resumed(self) -> int:
        return sum(
            1 for cells in self.results.values() for c in cells if c.resumed
        )

    @property
    def ok(self) -> bool:
        """True when nothing blocks: no failed cells, no malformed
        observability, no blocking gate failures."""
        return (
            not self.stats.failed
            and not self.obs_problems
            and not blocking_failures(self.verdicts)
        )


def git_sha() -> str:
    """Short commit id for the report header: the working tree's HEAD,
    or ``GITHUB_SHA`` under CI, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    sha = os.environ.get("GITHUB_SHA", "")
    return sha[:12] if sha else "unknown"


def _merge_experiment_metrics(
    out_path: pathlib.Path,
    experiment: str,
    cells: List[CellResult],
    runner: MatrixJobRunner,
) -> Optional[str]:
    """Concatenate executed sim cells' per-cell metrics files, in cell
    order, into ``metrics-<experiment>.jsonl``.  Returns the merged
    path, or None when no cell produced rows."""
    merged_path = out_path / ("metrics-%s.jsonl" % experiment)
    wrote = False
    with open(merged_path, "w", encoding="utf-8") as out:
        for cell in cells:
            if cell.resumed or not cell.spec.obs:
                continue
            inner_digest = JobSpec.from_dict(cell.spec.payload).digest()
            part = runner.job_metrics_path(inner_digest)
            if part is None or not os.path.exists(part):
                continue
            with open(part, encoding="utf-8") as fh:
                out.write(fh.read())
            wrote = True
    if not wrote:
        merged_path.unlink()
        return None
    return str(merged_path)


def _validate_metrics(path: str, experiment: str) -> List[str]:
    from repro.obs.export import load_rows, validate_rows

    return [
        "%s: %s" % (experiment, problem)
        for problem in validate_rows(load_rows(path))
    ]


def run_matrix(
    config: MatrixConfig,
    out_dir: Optional[str] = None,
    resume: bool = False,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    sample_interval: Optional[int] = None,
    trace: bool = True,
) -> MatrixRunReport:
    """Execute a parsed config end to end; returns the run report.

    With ``trace`` on (the default) the run also writes
    ``spans.jsonl`` to the output directory: a ``sweep.run`` root span
    plus one ``sweep.job`` span per executed cell, from the parent's
    dispatch clock.  Span files carry wall times and live beside — never
    inside — the deterministic metrics merges.

    Raises :class:`~repro.sweep.spec.SweepError` when the output
    directory already holds a manifest and ``resume`` is off, or when
    the manifest belongs to a different matrix — identical semantics to
    ``repro sweep``.
    """
    exp_cells: Dict[str, List[CellSpec]] = {
        exp.name: cells_for_experiment(exp) for exp in config.experiments
    }
    all_cells: List[CellSpec] = [
        c for cells in exp_cells.values() for c in cells
    ]
    digest = matrix_digest(all_cells)

    out_path = pathlib.Path(out_dir or default_out_dir(config))
    out_path.mkdir(parents=True, exist_ok=True)
    manifest = Manifest.in_dir(out_path)
    if manifest.exists() and not resume:
        raise SweepError(
            "%s already has a manifest; pass --resume to continue it or "
            "use a fresh output directory (--out)" % (out_path,)
        )
    manifest.ensure_header(config.name, digest)
    pre_done = set(manifest.completed())

    any_obs = any(exp.obs for exp in config.experiments)
    metrics_dir = None
    if any_obs:
        metrics_dir = out_path / "job_metrics"
        metrics_dir.mkdir(parents=True, exist_ok=True)
    runner = MatrixJobRunner(
        metrics_dir=None if metrics_dir is None else str(metrics_dir),
        sample_interval=sample_interval,
    )

    if workers is None:
        workers = default_workers()
    # Same oversubscription clamp as parallel_experiment: more workers
    # than CPUs only adds scheduling churn.
    workers = min(max(1, workers), default_workers())

    tracer = None
    if trace:
        from repro.obs.trace import Tracer

        tracer = Tracer(seed=0)
    try:
        results_by_digest, stats = run_sweep(
            all_cells,
            workers=workers,
            manifest=manifest,
            timeout=timeout,
            retries=retries,
            job_runner=runner,
            progress=progress,
            tracer=tracer,
        )
    finally:
        manifest.close()

    if tracer is not None:
        from repro.obs.trace import write_spans

        write_spans(
            str(out_path / "spans.jsonl"),
            tracer,
            {"component": "trace", "matrix": config.name, "digest": digest},
        )

    results: Dict[str, List[CellResult]] = {}
    for exp in config.experiments:
        collected = []
        for cell in exp_cells[exp.name]:
            payload = results_by_digest.get(cell.digest())
            if payload is None:
                continue  # failed cell; accounted in stats.failed
            collected.append(
                CellResult(
                    spec=cell,
                    result=payload["result"],
                    resumed=cell.digest() in pre_done,
                )
            )
        results[exp.name] = collected

    obs_problems: List[str] = []
    metrics_paths: Dict[str, str] = {}
    for exp in config.experiments:
        if not exp.obs:
            continue
        merged = _merge_experiment_metrics(
            out_path, exp.name, results[exp.name], runner
        )
        if merged is not None:
            metrics_paths[exp.name] = merged
            obs_problems.extend(_validate_metrics(merged, exp.name))

    verdicts = evaluate_checks(config, results)
    sha = git_sha()

    markdown = render_report(
        config,
        results,
        verdicts,
        sha=sha,
        matrix_digest=digest,
        resumed=sum(
            1 for cells in results.values() for c in cells if c.resumed
        ),
        metrics_paths=metrics_paths,
    )
    if stats.failed:
        markdown += "\n## Failed cells\n\n" + "\n".join(
            "- `%s` after %d attempt(s): %s"
            % (f.label, f.attempts, f.error)
            for f in stats.failed
        ) + "\n"
    if obs_problems:
        markdown += "\n## Observability schema problems\n\n" + "\n".join(
            "- %s" % p for p in obs_problems
        ) + "\n"
    report_path = str(out_path / REPORT_NAME)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(markdown)

    gates_path = str(out_path / GATES_NAME)
    write_report(
        {
            "name": config.name,
            "sha": sha,
            "matrix_digest": digest,
            "cells": stats.total,
            "executed": stats.executed,
            "resumed": stats.skipped,
            "failed": [dataclasses.asdict(f) for f in stats.failed],
            "obs_problems": obs_problems,
            "gates": [v.to_dict() for v in verdicts],
        },
        gates_path,
    )

    return MatrixRunReport(
        config=config,
        out_dir=str(out_path),
        digest=digest,
        sha=sha,
        results=results,
        verdicts=verdicts,
        stats=stats,
        obs_problems=obs_problems,
        report_path=report_path,
        gates_path=gates_path,
        markdown=markdown,
    )
