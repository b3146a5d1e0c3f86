"""Hot-path profiling harness (``repro bench profile``).

Answers "where does simulation time actually go?" with three separately
profiled phases, one per hot path the perf work targets:

* ``write_batch`` — the vectorized write engine end to end (including
  the cleaning cycles it triggers), driven by a fixed-seed update
  stream;
* ``clean_step``  — incremental cleaning cycles in isolation
  (``clean_begin`` + bounded ``clean_step`` drains), with the re-dirtying
  writes between cycles excluded from the profile;
* ``rank_columns`` — the policy's victim scoring over all sealed
  segments, repeated enough times to register.

Each phase yields a ranked-by-cumulative-time function table.  The JSON
artifact (``benchmarks/results/PROFILE_store.json``) is committed so the
profile that motivated an optimization stays reviewable next to the
benchmark numbers it moved; the top-N table prints for humans.

The profiler observes but does not gate: regressions are caught by the
benchmark baselines (``BENCH_store.json`` and friends), not by profile
shape.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench.micro import (
    BATCH_SIZE,
    MICRO_GRID,
    build_store,
    micro_workload,
)
from repro.store import SEALED, StoreConfig
from repro.store.errors import StoreError
from repro.store.kernels import kernel_info

#: Pages relocated per clean_step call in the incremental phase — the
#: preemptible-cleaner default order of magnitude.
_STEP_PAGES = 256

#: Incremental cycles profiled in the clean_step phase.
_CLEAN_CYCLES = 40

#: rank_columns invocations profiled (one call is microseconds).
_RANK_ITERATIONS = 2_000


def _ranked_functions(profiler: cProfile.Profile, top: int) -> List[Dict]:
    """The profile's functions ranked by cumulative time, top N."""
    stats = pstats.Stats(profiler)
    rows: List[Dict] = []
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": "%s:%d(%s)" % (os.path.basename(filename), line, func),
                "ncalls": int(nc),
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    rows.sort(key=lambda r: (-r["cumtime_s"], r["function"]))
    return rows[:top]


def run(
    writes: int, policy: str, workload: str, top: int, seed: int = 0
) -> Dict:
    """Profile the three hot paths; returns the report dict."""
    config = StoreConfig(seed=seed, **MICRO_GRID)
    pids = micro_workload(workload, config.user_pages, writes, seed)
    phases: Dict[str, Dict] = {}

    # -- phase 1: the vectorized write path, end to end ----------------
    store = build_store(policy, seed)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    for start in range(0, pids.size, BATCH_SIZE):
        store.write_batch(pids[start : start + BATCH_SIZE])
    profiler.disable()
    phases["write_batch"] = {
        "wall_s": round(time.perf_counter() - t0, 6),
        "writes": int(pids.size),
        "top": _ranked_functions(profiler, top),
    }

    # -- phase 2: incremental cleaning in isolation --------------------
    # The store arrives at steady state from phase 1; each profiled
    # cycle is clean_begin + bounded clean_step drains, and the writes
    # that re-dirty the store between cycles stay outside the profile.
    chunk = pids[: max(BATCH_SIZE, pids.size // 8)]
    profiler = cProfile.Profile()
    cycles = 0
    profiled = 0.0
    for _ in range(_CLEAN_CYCLES):
        if not (store.segments.state == SEALED).any():
            break
        t0 = time.perf_counter()
        try:
            profiler.enable()
            store.clean_begin()
            while store.clean_pending:
                store.clean_step(_STEP_PAGES)
            profiler.disable()
        except StoreError:
            profiler.disable()
            break
        profiled += time.perf_counter() - t0
        cycles += 1
        store.write_batch(chunk)  # re-dirty, unprofiled
    phases["clean_step"] = {
        "wall_s": round(profiled, 6),
        "cycles": cycles,
        "step_pages": _STEP_PAGES,
        "top": _ranked_functions(profiler, top),
    }

    # -- phase 3: victim scoring -----------------------------------------
    segs = store.segments
    sealed_ids = np.flatnonzero(segs.state == SEALED).astype(np.int64)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    for _ in range(_RANK_ITERATIONS):
        store.policy.rank_columns(segs, sealed_ids)
    profiler.disable()
    phases["rank_columns"] = {
        "wall_s": round(time.perf_counter() - t0, 6),
        "iterations": _RANK_ITERATIONS,
        "candidates": int(sealed_ids.size),
        "top": _ranked_functions(profiler, top),
    }

    return {
        "benchmark": "store-profile",
        "grid": dict(MICRO_GRID),
        "policy": policy,
        "workload": workload,
        "writes": writes,
        "seed": seed,
        "batch_size": BATCH_SIZE,
        "kernel": kernel_info(),
        "phases": phases,
    }


def render(report: Dict) -> str:
    """The top-N tables, one block per phase."""
    lines = [
        "hot-path profile (policy=%s, workload=%s, %d writes, kernel=%s):"
        % (
            report["policy"],
            report["workload"],
            report["writes"],
            report["kernel"]["active"],
        )
    ]
    for phase, cell in report["phases"].items():
        lines.append("")
        lines.append("%s (%.3fs):" % (phase, cell["wall_s"]))
        lines.append(
            "  %9s %10s %10s  %s" % ("ncalls", "tottime", "cumtime", "function")
        )
        for row in cell["top"]:
            lines.append(
                "  %9d %9.3fs %9.3fs  %s"
                % (
                    row["ncalls"],
                    row["tottime_s"],
                    row["cumtime_s"],
                    row["function"],
                )
            )
    return "\n".join(lines)


def check(
    report: Dict, baseline: Optional[Dict], tolerance: Optional[float] = None
) -> List[str]:
    """The profiler observes but does not gate."""
    return []


def headline(report: Dict) -> None:
    """Profiles keep no trajectory; the artifact is the record."""
    return None
