"""Write-engine microbenchmark: the scalar vs vectorized write paths.

``repro bench micro`` drives fixed-seed uniform / hot-cold / Zipfian
update streams through both :meth:`~repro.store.LogStructuredStore.write`
(one page at a time) and :meth:`~repro.store.LogStructuredStore.write_batch`
(the vectorized run engine) on the fig5 quick grid, and reports

* writes/sec for each path (the headline: batch over scalar),
* cleaning cycles/sec and the p50/p95 cleaning-cycle latency,

as both a human-readable table and a JSON report (``BENCH_store.json``)
committed to the repository so the performance trajectory is tracked
across changes.  :func:`check` compares a fresh run against a committed
baseline and fails on regression — the CI perf-smoke gate.  The kind's
parameters and defaults are declared in :mod:`repro.bench.registry`.

Timing protocol: each (workload, path) cell runs ``trials`` times and
keeps the fastest wall clock — the minimum is the estimator least
sensitive to scheduler noise, which on shared CI boxes dwarfs the
run-to-run variance of the simulator itself.  The two paths replay the
identical update stream from the identical seed, so they do identical
simulation work (the differential tests pin the final states to be
byte-identical) and the ratio isolates interpreter overhead.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.registry import subset
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig

#: The fig5 quick grid — the geometry the policy-comparison experiment
#: runs at, so micro numbers predict experiment wall clock.
MICRO_GRID = dict(
    n_segments=512,
    segment_units=64,
    fill_factor=0.8,
    clean_trigger=4,
    clean_batch=8,
)

#: Client batch size for the vectorized path (one ``write_batch`` call
#: per this many updates).
BATCH_SIZE = 4096


def micro_workload(name: str, n_pages: int, n_writes: int, seed: int) -> np.ndarray:
    """The fixed-seed update stream for one workload family."""
    rng = np.random.default_rng(seed + 0x5EED)
    if name == "uniform":
        pids = rng.integers(0, n_pages, size=n_writes)
    elif name == "hotcold":
        # 90% of updates to the hottest 10% of pages.
        hot = max(1, n_pages // 10)
        coin = rng.random(n_writes) < 0.9
        pids = np.where(
            coin,
            rng.integers(0, hot, size=n_writes),
            rng.integers(hot, n_pages, size=n_writes),
        )
    elif name == "zipfian":
        ranks = rng.zipf(1.2, size=n_writes)
        pids = np.minimum(ranks - 1, n_pages - 1)
    else:
        raise ValueError("unknown micro workload %r" % (name,))
    return np.ascontiguousarray(pids, dtype=np.int64)


def build_store(policy: str, seed: int) -> LogStructuredStore:
    config = StoreConfig(seed=seed, **MICRO_GRID)
    store = LogStructuredStore(config, make_policy(policy))
    store.load_sequential(config.user_pages)
    return store


def _timed_pass(
    store: LogStructuredStore, pids: np.ndarray, batch: bool
) -> Dict[str, float]:
    """Apply the update stream, timing the whole pass and every cleaning
    cycle inside it."""
    cycle_times: List[float] = []
    orig_clean = store.clean

    def timed_clean(n_victims=None):
        t0 = time.perf_counter()
        reclaimed = orig_clean(n_victims)
        cycle_times.append(time.perf_counter() - t0)
        return reclaimed

    store.clean = timed_clean  # instance attribute shadows the method
    try:
        t0 = time.perf_counter()
        if batch:
            for start in range(0, pids.size, BATCH_SIZE):
                store.write_batch(pids[start : start + BATCH_SIZE])
        else:
            write = store.write
            for pid in pids.tolist():
                write(pid)
        wall = time.perf_counter() - t0
    finally:
        del store.clean
    cycles = np.asarray(cycle_times, dtype=np.float64)
    out = {
        "wall_s": wall,
        "writes_per_sec": pids.size / wall,
        "clean_cycles": int(cycles.size),
        "clean_cycles_per_sec": cycles.size / wall,
    }
    if cycles.size:
        out["cycle_p50_ms"] = float(np.percentile(cycles, 50) * 1e3)
        out["cycle_p95_ms"] = float(np.percentile(cycles, 95) * 1e3)
    else:
        out["cycle_p50_ms"] = 0.0
        out["cycle_p95_ms"] = 0.0
    return out


def _best_of_paired(
    trials: int,
    scalar_factory: Callable[[], Dict[str, float]],
    batch_factory: Callable[[], Dict[str, float]],
) -> "tuple[Dict[str, float], Dict[str, float]]":
    """Fastest wall clock per path, with the two paths' trials
    interleaved so slow drift of the host (frequency scaling, a noisy
    neighbour) hits both paths alike instead of biasing the ratio."""
    best_scalar: Optional[Dict[str, float]] = None
    best_batch: Optional[Dict[str, float]] = None
    for _ in range(trials):
        scalar = scalar_factory()
        if best_scalar is None or scalar["wall_s"] < best_scalar["wall_s"]:
            best_scalar = scalar
        batch = batch_factory()
        if best_batch is None or batch["wall_s"] < best_batch["wall_s"]:
            best_batch = batch
    return best_scalar, best_batch


def run(
    writes: int,
    trials: int,
    policy: str,
    workloads: Sequence[str],
    seed: int = 0,
) -> Dict:
    """Run the full scalar-vs-batch grid; returns the report dict."""
    report: Dict = {
        "benchmark": "store-micro",
        "grid": dict(MICRO_GRID),
        "policy": policy,
        "writes": writes,
        "trials": trials,
        "seed": seed,
        "batch_size": BATCH_SIZE,
        "workloads": {},
    }
    n_pages = StoreConfig(seed=seed, **MICRO_GRID).user_pages
    for name in workloads:
        pids = micro_workload(name, n_pages, writes, seed)

        def scalar_pass():
            return _timed_pass(build_store(policy, seed), pids, batch=False)

        def batch_pass():
            return _timed_pass(build_store(policy, seed), pids, batch=True)

        scalar, batch = _best_of_paired(trials, scalar_pass, batch_pass)
        report["workloads"][name] = {
            "scalar": scalar,
            "batch": batch,
            "speedup": batch["writes_per_sec"] / scalar["writes_per_sec"],
        }
    return report


def render(report: Dict) -> str:
    """The human-readable table for one report."""
    lines = [
        "store micro-benchmark (policy=%s, %d writes, best of %d):"
        % (report["policy"], report["writes"], report["trials"]),
        "%-10s %12s %12s %8s %12s %10s %10s"
        % (
            "workload", "scalar w/s", "batch w/s", "speedup",
            "cleans/s", "p50 ms", "p95 ms",
        ),
    ]
    for name, cell in report["workloads"].items():
        batch = cell["batch"]
        lines.append(
            "%-10s %12.0f %12.0f %7.2fx %12.1f %10.3f %10.3f"
            % (
                name,
                cell["scalar"]["writes_per_sec"],
                batch["writes_per_sec"],
                cell["speedup"],
                batch["clean_cycles_per_sec"],
                batch["cycle_p50_ms"],
                batch["cycle_p95_ms"],
            )
        )
    return "\n".join(lines)


#: Default fractional drop in batch writes/sec that :func:`check`
#: tolerates.  Absolute rates vary across machines; the tolerance
#: absorbs that for same-class runners, and the CI label escape hatch
#: covers intentional changes or slower hardware.
RATE_TOLERANCE = 0.30


def check(
    report: Dict, baseline: Optional[Dict], tolerance: Optional[float] = None
) -> List[str]:
    """Regression check: batch writes/sec per workload vs the committed
    baseline.  Returns the list of violations (empty = pass); with no
    baseline there is nothing to compare.

    Workloads only one side ran are skipped, but a baseline with no
    workload in common gates nothing and is itself a violation.
    """
    if baseline is None:
        return []
    if tolerance is None:
        tolerance = RATE_TOLERANCE
    shared = [n for n in baseline["workloads"] if n in report["workloads"]]
    if not shared:
        return ["the baseline covers no workload of this run"]
    problems: List[str] = []
    for name in shared:
        base_rate = baseline["workloads"][name]["batch"]["writes_per_sec"]
        cur_rate = report["workloads"][name]["batch"]["writes_per_sec"]
        if cur_rate < base_rate * (1.0 - tolerance):
            problems.append(
                "%s: batch %.0f writes/s is more than %.0f%% below the "
                "baseline %.0f writes/s"
                % (name, cur_rate, tolerance * 100.0, base_rate)
            )
    return problems


def headline(report: Dict) -> Dict:
    """The history row: each workload's headline rates (batch/scalar
    writes per second and the speedup)."""
    return subset(report, (
        "benchmark", "policy", "writes", "trials", "seed",
        "workloads.*.batch.writes_per_sec",
        "workloads.*.batch.cycle_p95_ms",
        "workloads.*.scalar.writes_per_sec",
        "workloads.*.speedup",
    ))
