"""The tail-latency benchmark behind ``repro bench latency``.

Drives one deterministic client load through the service and reports
what foreground writes waited behind:

* ``flush_stall_pages`` — the deterministic stall signal: GC pages
  relocated anywhere in the pool while one client-facing flush ran
  (inline reactive cleaning plus loaded-round governance).  Stall-free
  flushes observe 0, so its percentiles read over the whole flush
  population.  This histogram's p99 is the gate: it must stay at or
  below one cleaner step budget (``pages_per_step``).
* aggregate Wamp — the trade-off axis: bounded stalls must not be
  bought with write amplification more than ``WAMP_SLACK`` above the
  committed baseline's.

The run shape leans on the stall deliberately: high target fill and a
chunky ``clean_batch`` make each cleaning cycle relocate a lot of live
data, which is exactly the work the step-granular governor has to keep
out of the flush path.

The report carries no clock, so it is a pure function of the run shape
and the seed (put latencies in time are ``write_p50_us`` /
``write_tail_us`` of ``benchmarks/stack``).  ``BENCH_latency.json`` is
the committed report at the default shape (see EXPERIMENTS.md), and
``tests/service/test_latency.py`` pins that re-running that shape passes
:func:`check` against the file and reproduces it byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional

from repro.obs import PAGES_EDGES
from repro.service.harness import (
    HarnessConfig,
    build_service,
    drive,
    ops_stream,
)

#: How far aggregate Wamp may sit above the committed baseline's before
#: the gate fails the trade.
WAMP_SLACK = 0.25


def latency_config(quick: bool = False, seed: int = 0) -> HarnessConfig:
    """The benchmark's run shape.

    High fill and a chunky ``clean_batch`` maximize the live data each
    cleaning cycle moves; small frequent flushes give the stall
    histogram a dense population of foreground waits to rank.
    """
    base = HarnessConfig.quick(seed=seed) if quick else HarnessConfig(seed=seed)
    return base.scaled(
        target_fill=0.70,
        clean_trigger=2,
        clean_batch=8,
        batch_size=64,
        flush_interval=2,
        tick_every=128,
        # The floor rule of repro.store.cleaner (one segment above the
        # trigger plus one drain of the shard's buffer) is what lets
        # idle rounds absorb a whole drain's segment consumption, so
        # loaded rounds have nothing urgent to do inside the flush path.
        gc_budget=128,
        pages_per_step=16,
    )


def run(ops: Optional[int], quick: bool, seed: int = 0) -> Dict:
    """Drive the seeded load once; returns the stall histogram and the
    pool's closing counters (``ops`` ``None``: the run shape's own op
    count)."""
    cfg = latency_config(quick=quick, seed=seed)
    if ops is not None:
        cfg = cfg.scaled(ops=ops)
    service = build_service(cfg)
    puts, deletes = drive(service, ops_stream(cfg), cfg.tick_every)

    metrics = service.metrics
    stall_hist = metrics.histogram("flush_stall_pages", PAGES_EDGES)
    # Store-level reactive stalls, pooled across shards.
    reactive_stalls = 0
    reactive_pages = 0
    for observer in service.observers:
        counters = observer.metrics.snapshot().counters
        reactive_stalls += counters.get("write_stalls", 0)
        if "write_stall_pages" in observer.metrics.names():
            hist = observer.metrics.histogram("write_stall_pages")
            reactive_pages += int(hist.total)
    summary = service.pool.stats_summary()
    counters = metrics.snapshot().counters
    report = {
        "benchmark": "latency",
        "quick": quick,
        "seed": seed,
        "config": dataclasses.asdict(cfg),
        "ops": puts + deletes,
        "wamp_aggregate": summary["wamp_aggregate"],
        "flush_count": stall_hist.count,
        "flush_stall_mean_pages": round(stall_hist.mean, 4),
        "flush_stall_p99_pages": round(stall_hist.percentile(0.99), 4),
        "flush_stall_p999_pages": round(stall_hist.percentile(0.999), 4),
        "flush_stall_max_pages": stall_hist.max_observed,
        "reactive_write_stalls": reactive_stalls,
        "reactive_stall_pages": reactive_pages,
        "gc_governed_pages": counters.get("gc_governed_pages", 0),
        "gc_deferred_shards": counters.get("gc_deferred_shards", 0),
        "gc_governed_steps": counters.get("gc_governed_steps", 0),
        # Burn-rate view over the same flush-stall stream.
        "slo": service.slo.report(),
    }
    service.close()
    return report


def render(report: Dict) -> str:
    """Human-readable stall summary."""
    cfg = report["config"]
    return "\n".join(
        [
            "tail-latency benchmark (ops=%d, dist=%s, fill=%.2f, seed=%d)"
            % (cfg["ops"], cfg["dist"], cfg["target_fill"], report["seed"]),
            "  %10s %10s %10s %9s %9s"
            % ("stall p99", "p999", "max", "stalls", "Wamp"),
            "  %10.1f %10.1f %10.0f %9d %9.4f"
            % (
                report["flush_stall_p99_pages"],
                report["flush_stall_p999_pages"],
                report["flush_stall_max_pages"],
                report["reactive_write_stalls"],
                report["wamp_aggregate"],
            ),
            "  p99 flush stall gate: <= %d pages (one cleaner step)"
            % cfg["pages_per_step"],
        ]
    )


def check(report: Dict, baseline: Optional[Dict] = None) -> List[str]:
    """Acceptance checks: cleaning ran, and the p99 flush stall fits
    inside one cleaner step budget; against a committed ``baseline``,
    aggregate Wamp must also not exceed the baseline's by more than
    :data:`WAMP_SLACK` (relative).  Wamp depends on the run shape, so a
    baseline recorded at another one (any ``config`` key but ``seed``
    differs) is a problem, not a comparison."""
    problems = []
    wamp = report["wamp_aggregate"]
    if wamp <= 0:
        problems.append(
            "run relocated no pages (Wamp %.4f) — the benchmark shape is "
            "not exercising cleaning" % wamp
        )
    p99 = report["flush_stall_p99_pages"]
    step = report["config"]["pages_per_step"]
    if p99 > step:
        problems.append(
            "p99 flush stall %.1f pages exceeds one cleaner step budget "
            "of %d pages" % (p99, step)
        )
    if baseline is not None:
        cfg, base_cfg = report["config"], baseline["config"]
        moved = [
            "%s %s vs %s" % (key, base_cfg.get(key), cfg.get(key))
            for key in {**cfg, **base_cfg}
            if key != "seed" and base_cfg.get(key) != cfg.get(key)
        ]
        if moved:
            problems.append(
                "baseline recorded at another shape: " + ", ".join(moved)
            )
            return problems
        base_wamp = baseline["wamp_aggregate"]
        if wamp > base_wamp * (1.0 + WAMP_SLACK):
            problems.append(
                "Wamp %.4f exceeds the committed baseline %.4f by more "
                "than %.0f%% — bounded stalls are being bought with extra "
                "GC writes" % (wamp, base_wamp, 100 * WAMP_SLACK)
            )
    return problems


def write_report(report: Dict, path: str) -> None:
    """Write a report as ``BENCH_latency.json`` is written (indented,
    keys sorted), creating the directory if need be."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    """Load a committed report; a file holding anything else (another
    benchmark family's report, a non-object) is a ``ValueError``."""
    with open(path) as fh:
        report = json.load(fh)
    found = report.get("benchmark") if isinstance(report, dict) else None
    if found != "latency":
        raise ValueError(
            "%s holds a %r report, not a 'latency' report" % (path, found)
        )
    return report
