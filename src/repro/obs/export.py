"""JSONL export, schema validation, and aggregation for obs rows.

The on-disk format is line-delimited JSON (``metrics.jsonl``).  Each run
contributes a block of rows opened by a ``meta`` header::

    {"type": "meta", "schema": 3, "run": {"label": ..., "policy": ...}}
    {"type": "sample", "clock": ..., "wamp_win": ..., ...}
    {"type": "decision", "clock": ..., "policy": ..., "victims": [...]}
    {"type": "metrics", "counters": {...}, "gauges": {...}, ...}

A span file holds ``span`` rows instead (causal trace spans — see
:mod:`repro.obs.trace`) under the same meta header.  Wall-clock fields
appear only in span rows; the metrics export stays byte-deterministic
across same-seed runs.  One schema is read: a file whose meta declares
another version is refused, not guessed at.

Several runs (a fig5 policy grid, a sweep) concatenate blocks in one
file; :func:`aggregate_convergence` splits them back apart on the meta
headers, and :func:`summarize_rows` gives each run's one-line summary
(``repro obs report``).  :func:`validate_rows` is the schema contract CI
enforces.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

#: Version stamped into every meta row, and the one :func:`validate_rows`
#: accepts; bump on breaking row changes.
SCHEMA_VERSION = 3

#: Every row type a metrics.jsonl may contain.
ROW_TYPES = ("meta", "sample", "decision", "metrics", "span")

_SAMPLE_KEYS = (
    "clock",
    "user_writes",
    "device_writes_multiple",
    "wamp_cum",
    "wamp_win",
    "device_wamp_win",
    "mean_cleaned_emptiness_win",
    "fill",
    "free_segments",
    "live_pages",
    "emptiness_hist",
    "temperature_cv",
    "wear_cv",
)
_DECISION_KEYS = ("clock", "policy", "candidates", "victims")
_VICTIM_KEYS = ("seg", "A", "C", "up2", "score")
_METRICS_KEYS = ("counters", "gauges", "histograms")
_SPAN_KEYS = ("name", "start", "end", "parent", "size")


class MetricsWriter:
    """Append-oriented JSONL writer: truncates the target on the first
    row, appends afterwards — so one writer shared across the runs of an
    experiment yields a single fresh multi-block file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.rows_written = 0

    def write_rows(self, rows: Iterable[Dict]) -> int:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        mode = "w" if self.rows_written == 0 else "a"
        n = 0
        with open(self.path, mode, encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True))
                fh.write("\n")
                n += 1
        self.rows_written += n
        return n


def load_rows(path: str) -> List[Dict]:
    """Parse a JSONL file back into row dicts."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _check_keys(row: Dict, keys, where: str, errors: List[str]) -> bool:
    missing = [k for k in keys if k not in row]
    if missing:
        errors.append("%s: missing keys %s" % (where, ", ".join(missing)))
        return False
    return True


def validate_rows(
    rows: Iterable[Dict], require_decisions: bool = False
) -> List[str]:
    """Schema-check a row stream; returns a list of problems (empty =
    valid).

    Enforced: every row typed and preceded by a ``meta`` header; meta
    carries :data:`SCHEMA_VERSION`; samples carry the full time-series
    key set; decisions carry non-empty victim lists with the common
    ranking keys; span rows carry ordered second timestamps.  With
    ``require_decisions``, every run block must contain at least one
    decision record (the fig5 acceptance criterion).
    """
    errors: List[str] = []
    runs = 0
    decisions_in_run = 0
    saw_rows_in_run = False
    foreign = False
    for i, row in enumerate(rows):
        where = "row %d" % i
        rtype = row.get("type")
        if foreign and rtype != "meta":
            # A block of another schema is refused by its header alone.
            continue
        if rtype not in ROW_TYPES:
            errors.append("%s: unknown type %r" % (where, rtype))
            continue
        if rtype == "meta":
            if runs and require_decisions and decisions_in_run == 0:
                errors.append(
                    "run %d has no decision records" % (runs - 1)
                )
            runs += 1
            decisions_in_run = 0
            saw_rows_in_run = False
            foreign = row.get("schema") != SCHEMA_VERSION
            if foreign:
                errors.append(
                    "%s: schema %r, expected %d"
                    % (where, row.get("schema"), SCHEMA_VERSION)
                )
            if not isinstance(row.get("run"), dict):
                errors.append("%s: meta.run must be an object" % where)
            continue
        if runs == 0:
            errors.append("%s: %s row before any meta header" % (where, rtype))
            continue
        saw_rows_in_run = True
        if rtype == "sample":
            if _check_keys(row, _SAMPLE_KEYS, where, errors):
                if not isinstance(row["emptiness_hist"], list):
                    errors.append("%s: emptiness_hist must be a list" % where)
        elif rtype == "decision":
            decisions_in_run += 1
            if not _check_keys(row, _DECISION_KEYS, where, errors):
                continue
            victims = row["victims"]
            if not isinstance(victims, list) or not victims:
                errors.append("%s: victims must be a non-empty list" % where)
                continue
            for j, victim in enumerate(victims):
                _check_keys(
                    victim, _VICTIM_KEYS, "%s victim %d" % (where, j), errors
                )
        elif rtype == "metrics":
            _check_keys(row, _METRICS_KEYS, where, errors)
        elif rtype == "span":
            if _check_keys(row, _SPAN_KEYS, where, errors):
                if not all(
                    isinstance(row[k], (int, float)) for k in ("start", "end")
                ):
                    errors.append("%s: start/end must be seconds" % where)
                elif row["end"] < row["start"]:
                    errors.append("%s: duration must be non-negative" % where)
                if not isinstance(row["parent"], int):
                    errors.append("%s: parent must be a span row index" % where)
    if runs == 0:
        errors.append("no meta header found")
    elif require_decisions and saw_rows_in_run and decisions_in_run == 0:
        errors.append("run %d has no decision records" % (runs - 1))
    return errors


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def _split_runs(rows: Iterable[Dict]) -> List[Dict]:
    """Group a row stream into per-run blocks on the meta headers."""
    runs: List[Dict] = []
    current: Optional[Dict] = None
    for row in rows:
        if row.get("type") == "meta":
            current = {
                "run": row.get("run", {}),
                "schema": row.get("schema"),
                "rows": [],
            }
            runs.append(current)
        elif current is not None:
            current["rows"].append(row)
    return runs


def aggregate_convergence(rows: Iterable[Dict]) -> List[Dict]:
    """Per-run convergence series: parallel clock / windowed-Wamp /
    fill arrays, ready to plot or average across a sweep grid."""
    out = []
    for block in _split_runs(rows):
        samples = [r for r in block["rows"] if r.get("type") == "sample"]
        out.append(
            {
                "run": block["run"],
                "clock": [s["clock"] for s in samples],
                "wamp_win": [s["wamp_win"] for s in samples],
                "device_wamp_win": [s["device_wamp_win"] for s in samples],
                "fill": [s["fill"] for s in samples],
                "free_segments": [s["free_segments"] for s in samples],
            }
        )
    return out


def summarize_rows(rows: Iterable[Dict]) -> Dict:
    """Compact summary of a metrics file (the run lines of ``repro obs
    report``): the schema versions its meta headers declare and, per
    run, the final clock and windowed Wamp, sample/decision/span counts,
    and how much the capture rings dropped (cumulative decision-deque
    drops from the metrics rows, and the root span trees a span recorder
    evicted, from a span file's meta header, beside its ring capacity —
    nonzero means the retained rows under-count what actually
    happened)."""
    blocks = _split_runs(rows)
    runs = []
    total_decisions_dropped = 0
    total_trees_dropped = 0
    for block in blocks:
        samples = [r for r in block["rows"] if r.get("type") == "sample"]
        decisions = [r for r in block["rows"] if r.get("type") == "decision"]
        spans = [r for r in block["rows"] if r.get("type") == "span"]
        decisions_dropped = sum(
            int(row.get("decisions_dropped", 0) or 0)
            for row in block["rows"]
            if row.get("type") == "metrics"
        )
        ring_capacity = block["run"].get("ring_capacity")
        trees_dropped = int(block["run"].get("trees_dropped", 0) or 0)
        total_decisions_dropped += decisions_dropped
        total_trees_dropped += trees_dropped
        last = samples[-1] if samples else None
        runs.append(
            {
                "run": block["run"],
                "samples": len(samples),
                "decisions": len(decisions),
                "spans": len(spans),
                "final_clock": last["clock"] if last else None,
                "final_wamp_win": last["wamp_win"] if last else None,
                "decisions_dropped": decisions_dropped,
                "trees_dropped": trees_dropped,
                "ring_capacity": ring_capacity,
            }
        )
    return {
        "schemas": sorted({block["schema"] for block in blocks}, key=str),
        "runs": len(blocks),
        "per_run": runs,
        "decisions_dropped": total_decisions_dropped,
        "trees_dropped": total_trees_dropped,
    }
