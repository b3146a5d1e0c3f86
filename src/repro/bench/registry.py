"""The benchmark registry: every bench kind is declared once, here.

A kind is a seeded, clock-free report with a gate: its ``run`` is a
pure function of its parameters and seed, so two runs are equal as
dicts and a committed report is a golden file.  Time is measured by one
instrument only, ``benchmarks/stack``.

A :class:`Benchmark` states everything the rest of the program needs to
know about one kind — the YAML/CLI parameters and their defaults, what
``--quick`` changes, the family name its reports carry, the matrix gate
it answers to, where its committed report lives (if it keeps one), and
which numbers a gate verdict prints.  The matrix (:mod:`repro.matrix`)
and the CLI (``repro bench <kind>``) are written against this record
and name no kind themselves, so a new kind is one :func:`register` call
plus a module with three functions:

``run(seed, **params) -> report``
    Run the benchmark; ``report["benchmark"]`` is the family name.
``render(report) -> str``
    The human-readable summary.
``check(report, baseline, tolerance) -> problems``
    The kind's acceptance gate.  ``baseline`` is a committed report of
    the same family or ``None``; ``tolerance`` ``None`` means the
    kind's own default.  An empty list is a pass.

The functions are looked up in ``module`` on first use; importing this
file, or building the CLI parser from it, imports no harness.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
from typing import Any, Dict, Mapping, Optional, Tuple


class BaselineMismatch(ValueError):
    """A baseline file holds another benchmark family's report."""


@dataclasses.dataclass(frozen=True)
class Benchmark:
    """The declaration of one bench kind (see the module docstring)."""

    kind: str
    #: ``report["benchmark"]``: what a baseline file must hold.
    family: str
    #: Module providing ``run`` / ``render`` / ``check``.
    module: str
    help: str
    #: Parameter name -> default: the ``params:`` / ``matrix:`` keys a
    #: config may set and the ``repro bench <kind>`` flags.
    params: Mapping[str, Any]
    #: Parameter overrides ``--quick`` applies.
    quick: Mapping[str, Any]
    #: What a passing gate verdict prints: (label, dotted path into a
    #: report).  The first is the number it reports as ``observed``.
    columns: Tuple[Tuple[str, str], ...] = ()
    #: The ``checks: - type:`` name that runs ``check`` in a matrix.
    gate: Optional[str] = None
    #: The committed report, for a kind that keeps one: running its own
    #: shape and seed reproduces it exactly.
    baseline: Optional[str] = None

    @property
    def gate_needs_file(self) -> bool:
        """A kind that declares a committed report gates against it."""
        return self.baseline is not None

    def __getattr__(self, name: str):
        if name in ("render", "check"):
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
    kind="latency",
    family="latency",
    module="repro.service.latency",
    help="tail latency: p99 flush stall against one cleaner step budget",
    params={"ops": None, "quick": False},
    quick={"quick": True},
    columns=(
        ("stall p99 pages", "flush_stall_p99_pages"),
        ("Wamp", "wamp_aggregate"),
    ),
    gate="latency-baseline",
    baseline="BENCH_latency.json",
))

register(Benchmark(
    kind="sweep",
    family="sweep-pool-identity",
    module="repro.sweep.bench",
    help="sweep pool: one grid serial vs pooled, outputs byte-identical",
    params={
        "grid": "fig5",
        "dist": "zipf-80-20",
        "quick": True,
        "workers": 4,
    },
    quick={"quick": True},
    columns=(
        ("identical", "outputs_identical"),
        ("workers", "pool.workers_effective"),
        ("CPUs", "cpu_count"),
    ),
    gate="sweep-identical",
))
