"""The benchmark registry: every bench kind is declared once, here.

A :class:`Benchmark` states everything the rest of the program needs to
know about one kind — the YAML/CLI parameters and their defaults, what
``--quick`` changes, the history family its rows are filed under, the
matrix gate it answers to, where its committed report lives, and which
headline numbers the trend dashboard shows.  The matrix
(:mod:`repro.matrix`) and the CLI (``repro bench <kind>``) are written
against this record and name no kind themselves, so a new kind is one
:func:`register` call plus a module with four functions:

``run(seed, **params) -> report``
    Run the benchmark; ``report["benchmark"]`` is the family name.
``render(report) -> str``
    The human-readable summary.
``check(report, baseline, tolerance) -> problems``
    The kind's acceptance gate.  ``baseline`` is a committed report of
    the same family or ``None``; ``tolerance`` ``None`` means the
    kind's own default.  An empty list is a pass.
``headline(report) -> row``
    The ``benchmarks/history.jsonl`` row (``None``: the kind keeps no
    trajectory).  A row is a report-shaped subset (:func:`subset`) —
    the fields ``check`` reads sit at the same paths — so the trend's
    drift scan is the same ``check`` applied to the latest row.

The functions are looked up in ``module`` on first use; importing this
file, or building the CLI parser from it, imports no harness.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


class BaselineMismatch(ValueError):
    """A baseline file holds another benchmark family's report."""


@dataclasses.dataclass(frozen=True)
class Benchmark:
    """The declaration of one bench kind (see the module docstring)."""

    kind: str
    #: ``report["benchmark"]`` and the history family.
    family: str
    #: Module providing ``run`` / ``render`` / ``check`` / ``headline``.
    module: str
    help: str
    #: Parameter name -> default: the ``params:`` / ``matrix:`` keys a
    #: config may set and the ``repro bench <kind>`` flags.
    params: Mapping[str, Any]
    #: Parameter overrides ``--quick`` applies.
    quick: Mapping[str, Any]
    #: The committed report: the default ``--out`` and the file the
    #: trend's drift scan compares the latest row with.
    baseline: str
    #: Trend columns: (label, dotted path into a history row).  The
    #: first is the number a gate verdict reports as ``observed``.
    columns: Tuple[Tuple[str, str], ...] = ()
    #: The ``checks: - type:`` name that runs ``check`` in a matrix.
    gate: Optional[str] = None
    #: Whether that gate is meaningless without a ``file:`` baseline.
    gate_needs_file: bool = False

    def __getattr__(self, name: str):
        if name in ("render", "check", "headline"):
            return getattr(importlib.import_module(self.module), name)
        raise AttributeError(name)

    def run(self, seed: int = 0, **overrides: Any) -> Dict:
        """Run with ``params`` defaults under ``overrides``."""
        run = getattr(importlib.import_module(self.module), "run")
        return run(seed=seed, **{**self.params, **overrides})

    def load_baseline(self, path: str) -> Dict:
        """Load a committed report, refusing another family's."""
        baseline = load_report(path)
        found = baseline.get("benchmark") if isinstance(baseline, dict) else None
        if found != self.family:
            raise BaselineMismatch(
                "%s holds a %r report, but kind %r compares against %r "
                "reports" % (path, found, self.kind, self.family)
            )
        return baseline


def subset(report: Mapping, paths: Sequence[str]) -> Dict:
    """``report`` cut down to the dotted ``paths``, nesting kept; a
    ``*`` component takes every key at its level."""
    row: Dict = {}
    for path in paths:
        _copy(report, row, path.split("."))
    return row


def _copy(src: Mapping, dst: Dict, parts: List[str]) -> None:
    for key in src if parts[0] == "*" else parts[:1]:
        if parts[1:]:
            _copy(src[key], dst.setdefault(key, {}), parts[1:])
        else:
            dst[key] = src[key]


def write_report(report: Dict, path: str) -> None:
    """Write a benchmark report, or another JSON artifact in the same
    form (indented, keys sorted, as ``BENCH_*.json``)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


#: kind -> declaration, in display order.
REGISTRY: Dict[str, Benchmark] = {}


def register(bench: Benchmark) -> Benchmark:
    REGISTRY[bench.kind] = bench
    return bench


register(Benchmark(
    kind="micro",
    family="store-micro",
    module="repro.bench.micro",
    help="scalar vs vectorized write engine on the fig5 quick grid",
    params={
        "writes": 200_000,
        "trials": 3,
        "policy": "greedy",
        "workloads": ("uniform", "hotcold", "zipfian"),
    },
    quick={"writes": 60_000},
    baseline="BENCH_store.json",
    columns=(
        ("uniform w/s", "workloads.uniform.batch.writes_per_sec"),
        ("hotcold w/s", "workloads.hotcold.batch.writes_per_sec"),
        ("zipfian w/s", "workloads.zipfian.batch.writes_per_sec"),
    ),
    gate="micro-baseline",
    gate_needs_file=True,
))

register(Benchmark(
    kind="service",
    family="service",
    module="repro.service.bench",
    help="sharded-service scaling: serial baseline vs the batched "
    "service at several shard counts",
    params={"shards": (1, 2, 4), "ops": None, "quick": False},
    quick={"quick": True},
    baseline="BENCH_service.json",
    columns=(
        ("serial w/s", "serial.writes_per_sec"),
        ("best shard w/s", "best_writes_per_sec"),
    ),
    gate="service-floor",
))

register(Benchmark(
    kind="latency",
    family="latency",
    module="repro.service.latency",
    help="tail latency: p99 flush stall against one cleaner step budget",
    params={"ops": None, "quick": False},
    quick={"quick": True},
    baseline="BENCH_latency.json",
    columns=(
        ("stall p99 pages", "flush_stall_p99_pages"),
        ("Wamp", "wamp_aggregate"),
    ),
    gate="latency-baseline",
    gate_needs_file=True,
))

register(Benchmark(
    kind="sweep",
    family="sweep-pool-scaling",
    module="repro.sweep.bench",
    help="sweep-pool scaling: one grid serial vs pooled, outputs "
    "byte-identical",
    params={
        "grid": "fig5",
        "dist": "zipf-80-20",
        "quick": True,
        "workers": 4,
    },
    quick={"quick": True},
    baseline="BENCH_sweep.json",
    columns=(
        ("speedup", "speedup_pool_vs_serial"),
        ("floor", "speedup_floor"),
        ("workers", "pool.workers_effective"),
        ("CPUs", "cpu_count"),
        ("identical", "outputs_identical"),
    ),
    gate="sweep-scaling",
))

register(Benchmark(
    kind="profile",
    family="store-profile",
    module="repro.bench.profile",
    help="cProfile the hot paths (write_batch / clean_step / "
    "rank_columns) into a ranked-cumtime artifact",
    params={
        "writes": 120_000,
        "policy": "greedy",
        "workload": "zipfian",
        "top": 15,
    },
    quick={"writes": 30_000},
    baseline="benchmarks/results/PROFILE_store.json",
))
