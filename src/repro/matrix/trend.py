"""The perf-trend section of a matrix report (``results: - type: trend``).

``benchmarks/history.jsonl`` accumulates one SHA-keyed line per
benchmark run (see :mod:`repro.bench.history`).  This module turns that
trajectory into a markdown dashboard: one table per benchmark family
with the family's headline numbers over the last N commits, each cell
annotated with its change versus the previous entry, plus a drift scan
of the *latest* entry per family.

The columns of a family are the ones its registered kind declares
(:mod:`repro.bench.registry`), and the drift scan is that kind's own
``check`` applied to the latest row against its committed baseline — a
row is a report-shaped subset, so nothing is re-implemented here.  A
row that predates a field renders ``-`` for it.

Trend regressions are **report-only**: the binding verdicts come from
the config's ``checks:`` (which re-run the benchmarks and gate on the
same baselines).  The trend answers the adjacent question — "has this
number been drifting across commits?" — which a single-run gate cannot.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.history import HISTORY_PATH, load_history
from repro.bench.registry import REGISTRY
from repro.matrix.cells import dig_number

#: Families whose rows no registered kind writes: (label, dotted path)
#: columns, as ``Benchmark.columns``.  ``repro serve`` appends
#: ``service-serve`` rows.
EXTRA_FAMILIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "service-serve": (
        ("w/s", "writes_per_sec"),
        ("Wamp spread", "wamp_spread"),
        ("queue p95", "queue_depth_p95"),
    ),
}


def family_columns() -> Dict[str, Tuple[Tuple[str, str], ...]]:
    """Family -> trend columns, in display order."""
    columns = {b.family: b.columns for b in REGISTRY.values() if b.columns}
    columns.update(EXTRA_FAMILIES)
    return columns


def group_by_family(
    history: Sequence[Dict[str, Any]]
) -> Dict[str, List[Dict[str, Any]]]:
    """History lines grouped by their ``benchmark`` field, file order
    (oldest first) preserved within each family."""
    families: Dict[str, List[Dict[str, Any]]] = {}
    for entry in history:
        families.setdefault(str(entry.get("benchmark")), []).append(entry)
    return families


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return "%.0f" % value
    return "%.4g" % value


def _delta(cur: Optional[float], prev: Optional[float]) -> str:
    if cur is None or prev is None or prev == 0:
        return ""
    change = (cur - prev) / abs(prev)
    if abs(change) < 0.0005:
        return " (=)"
    return " (%+.1f%%)" % (100 * change)


def render_family_table(
    family: str, entries: Sequence[Dict[str, Any]], last: int = 10
) -> List[str]:
    """Markdown trend table for one family's last N entries (newest
    last, so the table reads chronologically)."""
    # An unknown family still shows its shas, so nothing silently
    # disappears from the dashboard.
    columns = family_columns().get(family, ())
    window = list(entries)[-last:]
    lines = [
        "| sha | " + " | ".join(label for label, _ in columns) + " |",
        "|---" * (1 + len(columns)) + "|",
    ]
    prev: Optional[Dict[str, Any]] = None
    for entry in window:
        row = ["`%s`" % entry.get("sha", "?")]
        for _, path in columns:
            value = dig_number(entry, path)
            row.append(_fmt(value) + _delta(value, dig_number(prev, path)))
        lines.append("| " + " | ".join(row) + " |")
        prev = entry
    return lines


def render_trend(
    history: Sequence[Dict[str, Any]], last: int = 10
) -> List[str]:
    """The full trend section (markdown lines)."""
    if not history:
        return ["_No benchmark history recorded yet._"]
    families = group_by_family(history)
    ordered = [f for f in family_columns() if f in families]
    ordered += [f for f in sorted(families) if f not in ordered]
    lines: List[str] = []
    for family in ordered:
        entries = families[family]
        lines.append("")
        lines.append(
            "### %s (%d entr%s)"
            % (family, len(entries), "y" if len(entries) == 1 else "ies")
        )
        lines.append("")
        lines.extend(render_family_table(family, entries, last=last))
    return lines


# ----------------------------------------------------------------------
# Drift scan vs committed baselines
# ----------------------------------------------------------------------

def detect_trend_regressions(
    history: Sequence[Dict[str, Any]], root: str = "."
) -> List[str]:
    """Run each registered kind's ``check`` on its family's *latest*
    trajectory row against the committed baseline under ``root`` (the
    gate CI applies to a fresh run, at the kind's default tolerance).
    Returns human-readable drift warnings; empty means the trajectory's
    newest points are consistent with the baselines.  A family with no
    committed baseline, and a row too old to carry the fields the check
    reads, are skipped."""
    families = group_by_family(history)
    warnings: List[str] = []
    for bench in REGISTRY.values():
        path = os.path.join(root, bench.baseline)
        if bench.family not in families or not os.path.exists(path):
            continue
        entry = families[bench.family][-1]
        try:
            problems = bench.check(entry, bench.load_baseline(path), None)
        except (KeyError, TypeError):
            continue
        except ValueError as exc:
            problems = ["baseline unusable: %s" % exc]
        warnings += [
            "%s %s (sha %s)" % (bench.family, problem, entry.get("sha", "?"))
            for problem in problems
        ]
    return warnings


def load_trend(
    path: str = HISTORY_PATH, last: int = 10, root: str = "."
) -> Tuple[List[str], List[str]]:
    """Convenience: (markdown lines, drift warnings) for a history file."""
    history = load_history(path)
    return render_trend(history, last=last), detect_trend_regressions(
        history, root=root
    )
