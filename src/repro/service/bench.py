"""The service scaling benchmark behind ``repro bench service``.

Runs the same deterministic client load three ways — the serial
single-shard baseline (per-key scalar puts, no batching) and the full
batched service at each requested shard count — and reports, per
configuration:

* aggregate writes/sec (wall clock, reported here and in the history
  trajectory only — never in obs exports);
* per-shard Wamp and the Wamp *spread* (max - min), the fairness
  signal for the pool's budgeted cleaning;
* the ingest queue-depth p95, the batching/backpressure signal.

``BENCH_service.json`` is the committed snapshot of this report (see
EXPERIMENTS.md); each run's :func:`headline` joins
``benchmarks/history.jsonl`` next to the micro-benchmark trajectory.
The kind's parameters and defaults are declared in
:mod:`repro.bench.registry`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.bench.registry import subset
from repro.service.harness import (
    HarnessConfig,
    run_harness,
    run_serial_baseline,
)


def run(
    shards: Sequence[int], ops: Optional[int], quick: bool, seed: int = 0
) -> Dict:
    """Run the serial baseline plus one harness run per shard count
    (``ops`` ``None``: the run shape's own op count)."""
    cfg = HarnessConfig.quick(seed=seed) if quick else HarnessConfig(seed=seed)
    if ops is not None:
        cfg = cfg.scaled(ops=ops)
    serial = run_serial_baseline(cfg.scaled(n_shards=1))
    results: Dict[str, Dict] = {}
    for n in shards:
        result = run_harness(cfg.scaled(n_shards=n))
        results[str(n)] = result.to_dict()
    return {
        "benchmark": "service",
        "quick": quick,
        "seed": seed,
        "config": dataclasses.asdict(cfg),
        "serial": serial.to_dict(),
        "shards": results,
    }


def render(report: Dict) -> str:
    """Human-readable table of a service bench report."""
    lines = [
        "service scaling benchmark (ops=%d, dist=%s, seed=%d)"
        % (
            report["config"]["ops"],
            report["config"]["dist"],
            report["seed"],
        ),
        "  %-18s %12s %9s %10s %10s %10s"
        % ("configuration", "writes/sec", "speedup", "Wamp", "spread", "q p95"),
    ]
    serial = report["serial"]
    base = serial["writes_per_sec"]

    def row(label: str, r: Dict) -> str:
        return "  %-18s %12.0f %8.2fx %10.4f %10.4f %10d" % (
            label,
            r["writes_per_sec"],
            r["writes_per_sec"] / base if base else float("inf"),
            r["wamp_aggregate"],
            r["wamp_spread"],
            r["queue_depth_p95"],
        )

    lines.append(row("serial 1 shard", serial))
    for n in sorted(report["shards"], key=int):
        lines.append(row("service %s shard(s)" % n, report["shards"][n]))
    return "\n".join(lines)


def check(
    report: Dict,
    baseline: Optional[Dict] = None,
    tolerance: Optional[float] = None,
) -> List[str]:
    """Acceptance check: every batched service configuration must at
    least match the serial single-shard baseline's throughput *of the
    same run* (so neither a committed baseline nor a tolerance enters)."""
    problems = []
    base = report["serial"]["writes_per_sec"]
    for n, r in report["shards"].items():
        if r["writes_per_sec"] < base:
            problems.append(
                "service with %s shard(s) ran at %.0f writes/sec, below the "
                "serial baseline's %.0f" % (n, r["writes_per_sec"], base)
            )
    return problems


def headline(report: Dict) -> Dict:
    """The history row: each configuration's aggregate writes/sec and
    fairness numbers, plus the best batched rate."""
    row = subset(report, (
        "benchmark", "seed", "quick", "config.ops",
        "serial.writes_per_sec",
        "shards.*.writes_per_sec",
        "shards.*.wamp_spread",
        "shards.*.queue_depth_p95",
    ))
    row["best_writes_per_sec"] = max(
        (r["writes_per_sec"] for r in report["shards"].values()), default=None
    )
    return row
