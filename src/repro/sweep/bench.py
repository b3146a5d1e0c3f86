"""Sweep-pool identity benchmark (``repro bench sweep``, matrix kind
``sweep``).

Runs one named grid through the sweep engine twice — serial
(``workers=1``, inline) and pooled (``workers=4`` by default) — and
checks the aggregated experiment outputs are byte-identical:
parallelism must never change results.  Beside the verdict the report
carries the pool accounting (workers requested and effective, pool
mode, worker recycles) and the box's CPU count, which say what the pooled
run actually was.  The same dict is what a ``kind: sweep`` matrix cell
returns, gated by the ``sweep-identical`` check.  The kind's parameters
and defaults are declared in :mod:`repro.bench.registry`.

The report carries no clock: how fast the pool is on a given box is
what ``repro sweep`` prints for a human (EXPERIMENTS.md has a dated
measurement), not a gate.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.sweep.report import run_named_sweep


def run(
    grid: str, dist: Optional[str], quick: bool, workers: int, seed: int = 0
) -> Dict:
    """Run ``grid`` serial and pooled; returns the report dict (``dist``
    only applies to the fig5 grid)."""
    dist = dist if grid == "fig5" else None
    outputs = {}
    summaries = {}
    for n in (1, workers):
        swept = run_named_sweep(
            grid,
            workers=n,
            quick=quick,
            seed=seed,
            dist=dist,
            progress=None,
        )
        outputs[n] = swept.output.rendered
        summaries[n] = swept.summary
    serial, pool = summaries[1], summaries[workers]
    return {
        "benchmark": "sweep-pool-identity",
        "grid": serial["experiment"],
        "quick": quick,
        "seed": seed,
        "jobs": serial["jobs"],
        "cpu_count": os.cpu_count(),
        "outputs_identical": outputs[1] == outputs[workers],
        "pool": {
            "workers_requested": pool["workers_requested"],
            "workers_effective": pool["workers_effective"],
            "pool_mode": pool["pool_mode"],
            "worker_recycles": pool["worker_recycles"],
        },
    }


def check(
    report: Dict,
    baseline: Optional[Dict] = None,
    tolerance: Optional[float] = None,
) -> List[str]:
    """The identity gate; returns violations (empty = pass).  It is
    absolute, so neither a committed baseline nor a tolerance enters."""
    if report.get("outputs_identical"):
        return []
    return [
        "pooled sweep output differs from the serial run — "
        "parallelism changed results"
    ]


def render(report: Dict) -> str:
    """One-paragraph human summary."""
    pool = report["pool"]
    return (
        "sweep-pool identity on %s (%d jobs, %s CPUs):\n"
        "  pool: %d/%d workers (%s), %d recycle(s)\n"
        "  outputs identical: %s"
        % (
            report["grid"],
            report["jobs"],
            report["cpu_count"],
            pool["workers_effective"],
            pool["workers_requested"],
            pool["pool_mode"],
            pool["worker_recycles"],
            report["outputs_identical"],
        )
    )
