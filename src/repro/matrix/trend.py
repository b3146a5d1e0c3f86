"""The perf-trend section of a matrix report (``results: - type: trend``).

``benchmarks/history.jsonl`` accumulates one SHA-keyed line per
benchmark run (see :mod:`repro.bench.history`).  This module turns that
trajectory into a markdown dashboard: one table per benchmark family
with the family's headline numbers over the last N commits, each cell
annotated with its change versus the previous entry, plus a regression
scan of the *latest* entry per family against the committed
``BENCH_*.json`` baselines.

Trend regressions are **report-only**: the binding verdicts come from
the config's ``checks:`` (which re-run the benchmarks and gate on the
same baselines).  The trend answers the adjacent question — "has this
number been drifting across commits?" — which a single-run gate cannot.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.history import HISTORY_PATH, load_history

#: Headline columns per benchmark family: (label, extractor,
#: higher-is-better).  Extractors return None when the entry predates
#: the field, keeping old trajectory lines renderable.
_Extractor = Callable[[Dict[str, Any]], Optional[float]]


def _micro_rate(workload: str) -> _Extractor:
    def extract(entry: Dict[str, Any]) -> Optional[float]:
        cell = entry.get("workloads", {}).get(workload)
        return None if cell is None else cell.get("batch_writes_per_sec")

    return extract


def _service_shard_rate(entry: Dict[str, Any]) -> Optional[float]:
    shards = entry.get("shards")
    if not isinstance(shards, dict) or not shards:
        return None
    best = max(shards.values(), key=lambda r: r.get("writes_per_sec", 0.0))
    return best.get("writes_per_sec")


FAMILY_COLUMNS: Dict[str, List[Tuple[str, _Extractor, bool]]] = {
    "store-micro": [
        ("uniform w/s", _micro_rate("uniform"), True),
        ("hotcold w/s", _micro_rate("hotcold"), True),
        ("zipfian w/s", _micro_rate("zipfian"), True),
    ],
    "service": [
        ("serial w/s", lambda e: e.get("serial_writes_per_sec"), True),
        ("best shard w/s", _service_shard_rate, True),
    ],
    "service-serve": [
        ("w/s", lambda e: e.get("writes_per_sec"), True),
        ("Wamp spread", lambda e: e.get("wamp_spread"), False),
        ("queue p95", lambda e: e.get("queue_depth_p95"), False),
    ],
    "latency": [
        ("stall p99 pages", lambda e: e.get("flush_stall_p99_pages"), False),
        ("Wamp", lambda e: e.get("wamp_aggregate"), False),
    ],
}

#: Family display order in the report.
FAMILY_ORDER = ("store-micro", "service", "service-serve", "latency")


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
    columns = FAMILY_COLUMNS.get(family)
    if columns is None:
        # Unknown family: still show the shas so nothing silently
        # disappears from the dashboard.
        columns = []
    window = list(entries)[-last:]
    lines = [
        "| sha | " + " | ".join(label for label, _, _ in columns) + " |",
        "|---" * (1 + len(columns)) + "|",
    ]
    prev: Optional[Dict[str, Any]] = None
    for entry in window:
        row = ["`%s`" % entry.get("sha", "?")]
        for _, extract, _ in columns:
            value = extract(entry)
            row.append(
                _fmt(value) + _delta(value, extract(prev) if prev else None)
            )
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
    ordered = [f for f in FAMILY_ORDER if f in families]
    ordered += [f for f in sorted(families) if f not in FAMILY_ORDER]
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
# Regression scan vs committed baselines
# ----------------------------------------------------------------------

def detect_trend_regressions(
    history: Sequence[Dict[str, Any]],
    root: str = ".",
    rate_tolerance: float = 0.30,
) -> List[str]:
    """Compare each family's *latest* trajectory entry against the
    committed ``BENCH_*.json`` baselines (same tolerances the CI gates
    use).  Returns human-readable drift warnings; empty means the
    trajectory's newest points are consistent with the baselines."""
    import json

    families = group_by_family(history)
    warnings: List[str] = []

    latest = families.get("store-micro", [])
    store_path = os.path.join(root, "BENCH_store.json")
    if latest and os.path.exists(store_path):
        with open(store_path) as fh:
            base = json.load(fh)
        entry = latest[-1]
        for name, cell in base.get("workloads", {}).items():
            base_rate = cell["batch"]["writes_per_sec"]
            cur = entry.get("workloads", {}).get(name, {}).get(
                "batch_writes_per_sec"
            )
            if cur is not None and cur < base_rate * (1.0 - rate_tolerance):
                warnings.append(
                    "store-micro %s: latest %.0f w/s is >%.0f%% below the "
                    "committed baseline %.0f (sha %s)"
                    % (name, cur, 100 * rate_tolerance, base_rate,
                       entry.get("sha", "?"))
                )

    latest = families.get("latency", [])
    lat_path = os.path.join(root, "BENCH_latency.json")
    if latest and os.path.exists(lat_path):
        with open(lat_path) as fh:
            base = json.load(fh)
        entry = latest[-1]
        step = base.get("config", {}).get("pages_per_step")
        p99 = entry.get("flush_stall_p99_pages")
        if step is not None and p99 is not None and p99 > step:
            warnings.append(
                "latency: latest p99 flush stall %.1f pages exceeds the "
                "committed step budget of %d pages (sha %s)"
                % (p99, step, entry.get("sha", "?"))
            )

    latest = families.get("service", [])
    svc_path = os.path.join(root, "BENCH_service.json")
    if latest and os.path.exists(svc_path):
        with open(svc_path) as fh:
            base = json.load(fh)
        entry = latest[-1]
        base_serial = base.get("serial", {}).get("writes_per_sec")
        cur_serial = entry.get("serial_writes_per_sec")
        if (
            base_serial is not None
            and cur_serial is not None
            and cur_serial < base_serial * (1.0 - rate_tolerance)
        ):
            warnings.append(
                "service: latest serial %.0f w/s is >%.0f%% below the "
                "committed baseline %.0f (sha %s)"
                % (cur_serial, 100 * rate_tolerance, base_serial,
                   entry.get("sha", "?"))
            )

    return warnings


def load_trend(
    path: str = HISTORY_PATH, last: int = 10, root: str = "."
) -> Tuple[List[str], List[str]]:
    """Convenience: (markdown lines, drift warnings) for a history file."""
    history = load_history(path)
    return render_trend(history, last=last), detect_trend_regressions(
        history, root=root
    )
