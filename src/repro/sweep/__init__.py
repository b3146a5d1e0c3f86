"""Parallel experiment orchestration with checkpointed resume.

The paper's tables and figures are parameter grids (policy ×
distribution × fill factor) of mutually independent simulations; this
package fans them out over worker processes and journals every finished
job so an interrupted sweep resumes where it stopped.

Layers (see DESIGN.md):

* :mod:`repro.sweep.spec` — serializable :class:`JobSpec`, grid
  expansion from the existing experiment functions, named CLI grids;
* :mod:`repro.sweep.executor` — process-per-job worker pool with
  deterministic per-job seeding and crash retry;
* :mod:`repro.sweep.manifest` — JSONL journal keyed by spec digest;
* :mod:`repro.sweep.report` — replay-based aggregation (byte-identical
  to serial output), live progress, JSON summaries.

Entry points: ``repro sweep <grid>`` on the command line, or
:func:`parallel_experiment` / :func:`run_named_sweep` from code.
"""

from repro.sweep.executor import (
    FailedJob,
    ProgressEvent,
    SweepStats,
    default_workers,
    execute_job,
    run_sweep,
)
from repro.sweep.manifest import MANIFEST_NAME, Manifest
from repro.sweep.report import (
    SUMMARY_NAME,
    ProgressPrinter,
    SweepReport,
    build_summary,
    parallel_experiment,
    run_named_sweep,
)
from repro.sweep.spec import (
    SWEEP_DISTS,
    SWEEP_GRIDS,
    GridDef,
    JobSpec,
    SweepError,
    expand_grid,
    grid_digest,
    result_from_dict,
    result_to_dict,
    run_job,
    spec_from_call,
    sweep_grid_names,
    workload_from_spec,
    workload_to_spec,
)

__all__ = [
    "FailedJob",
    "GridDef",
    "JobSpec",
    "MANIFEST_NAME",
    "Manifest",
    "ProgressEvent",
    "ProgressPrinter",
    "SUMMARY_NAME",
    "SWEEP_DISTS",
    "SWEEP_GRIDS",
    "SweepError",
    "SweepReport",
    "SweepStats",
    "build_summary",
    "default_workers",
    "execute_job",
    "expand_grid",
    "grid_digest",
    "parallel_experiment",
    "result_from_dict",
    "result_to_dict",
    "run_job",
    "run_named_sweep",
    "run_sweep",
    "spec_from_call",
    "sweep_grid_names",
    "workload_from_spec",
    "workload_to_spec",
]
