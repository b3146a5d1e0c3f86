"""Sweep-pool scaling benchmark (``repro bench sweep``, matrix kind
``sweep``).

Times one named grid through the sweep engine twice — serial
(``workers=1``, inline) and pooled (``workers=4`` by default) — checks
the aggregated experiment outputs are byte-identical, and reports the
pool's phase overheads (worker spawn, spec dispatch, result drain) next
to the wall clocks.  ``BENCH_sweep.json`` at the repo root is the
committed snapshot, each run's :func:`headline` joins
``benchmarks/history.jsonl`` so the orchestration-scaling trajectory is
tracked across changes, and the same dict is what a ``kind: sweep``
matrix cell returns, gated by the ``sweep-scaling`` check.  The kind's
parameters and defaults are declared in :mod:`repro.bench.registry`.

The speedup bound is hardware-conditional, because the recorded numbers
must gate meaningfully on both a 4-core CI runner and a 1-core dev
container:

* with >= 4 effective workers on >= 4 CPUs, the pool must beat serial
  by at least 2.0x;
* when the executor clamp shrinks the pool to a single worker (1-core
  box), the pool must stay within 5% of serial (>= 0.95x) — the bound
  that catches per-job process overhead creeping back in;
* in between (2-3 effective workers) the pool must at least not lose
  to serial (>= 1.0x).

``outputs_identical`` is unconditional: parallelism must never change
results.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.bench.registry import subset
from repro.sweep.report import run_named_sweep

#: Pool-vs-serial floors, keyed by the hardware tier (see module doc).
MIN_SPEEDUP_AT_4 = 2.0
MIN_SPEEDUP_SMALL = 1.0
MIN_SPEEDUP_POOL_OF_1 = 0.95


def run(
    grid: str, dist: Optional[str], quick: bool, workers: int, seed: int = 0
) -> Dict:
    """Time ``grid`` serial vs pooled; returns the report dict (``dist``
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
    identical = outputs[1] == outputs[workers]
    speedup = (
        round(serial["wall_clock_s"] / pool["wall_clock_s"], 3)
        if pool["wall_clock_s"]
        else None
    )
    report = {
        "benchmark": "sweep-pool-scaling",
        "grid": serial["experiment"],
        "quick": quick,
        "seed": seed,
        "jobs": serial["jobs"],
        "cpu_count": os.cpu_count(),
        "outputs_identical": identical,
        "serial": {
            "workers": 1,
            "wall_clock_s": serial["wall_clock_s"],
            "job_wall_s": serial["job_wall_s"],
        },
        "pool": {
            "workers_requested": pool["workers_requested"],
            "workers_effective": pool["workers_effective"],
            "pool_mode": pool["pool_mode"],
            "wall_clock_s": pool["wall_clock_s"],
            "job_wall_s": pool["job_wall_s"],
            "overhead_s": dict(pool["pool_overhead_s"]),
            "worker_recycles": pool["worker_recycles"],
        },
        "speedup_pool_vs_serial": speedup,
    }
    # Recorded for the reader; :func:`check` recomputes it from the
    # hardware fields rather than trusting the file.
    report["speedup_floor"] = _floor_for(report)
    return report


def speedup_floor(workers_effective: int, cpu_count: int) -> float:
    """The gate's minimum pool-vs-serial speedup for this hardware."""
    if workers_effective >= 4 and cpu_count >= 4:
        return MIN_SPEEDUP_AT_4
    if workers_effective <= 1:
        return MIN_SPEEDUP_POOL_OF_1
    return MIN_SPEEDUP_SMALL


def _floor_for(report: Dict) -> float:
    return speedup_floor(
        int(report["pool"]["workers_effective"]),
        int(report["cpu_count"] or 1),
    )


def check(
    report: Dict,
    baseline: Optional[Dict] = None,
    tolerance: Optional[float] = None,
) -> List[str]:
    """The scaling gate; returns violations (empty = pass).  The floors
    are absolute, so neither a committed baseline nor a tolerance
    enters."""
    problems: List[str] = []
    if not report.get("outputs_identical"):
        problems.append(
            "pooled sweep output differs from the serial run — "
            "parallelism changed results"
        )
    speedup = report.get("speedup_pool_vs_serial")
    floor = _floor_for(report)
    if speedup is None or speedup < floor:
        problems.append(
            "pool speedup %s below the %.2fx floor for %d effective "
            "worker(s) on %d CPU(s)"
            % (
                "%.3fx" % speedup if speedup is not None else "n/a",
                floor,
                report["pool"]["workers_effective"],
                report["cpu_count"] or 1,
            )
        )
    return problems


def headline(report: Dict) -> Dict:
    """The history row: the speedup, the floor tier that applied to it
    and the hardware that selected the tier."""
    return subset(report, (
        "benchmark", "seed", "quick", "grid", "jobs", "cpu_count",
        "outputs_identical", "pool.workers_requested",
        "pool.workers_effective", "speedup_pool_vs_serial", "speedup_floor",
    ))


def render(report: Dict) -> str:
    """One-paragraph human summary."""
    pool = report["pool"]
    overhead = pool["overhead_s"]
    return (
        "sweep-pool scaling on %s (%d jobs, %s CPUs):\n"
        "  serial  (inline):      %8.2fs wall\n"
        "  pool    (%d/%d %s):  %8.2fs wall  -> %.2fx\n"
        "  pool overhead: spawn %.3fs, dispatch %.3fs, drain %.3fs, "
        "%d recycle(s)\n"
        "  outputs identical: %s"
        % (
            report["grid"],
            report["jobs"],
            report["cpu_count"],
            report["serial"]["wall_clock_s"],
            pool["workers_effective"],
            pool["workers_requested"],
            pool["pool_mode"],
            pool["wall_clock_s"],
            report["speedup_pool_vs_serial"] or 0.0,
            overhead["spawn"],
            overhead["dispatch"],
            overhead["drain"],
            pool["worker_recycles"],
            report["outputs_identical"],
        )
    )
