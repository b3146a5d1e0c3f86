"""The shared benchmark-history trajectory (``benchmarks/history.jsonl``).

Every benchmark run (``repro bench <kind>``, the bench cells of ``repro
bench run`` and ``repro serve``) appends one SHA-keyed JSONL row
through :func:`append_entry`, so the repository carries a single
perf-trend file that the matrix report (``repro bench run`` /
``repro bench report``) can plot and scan for drift.  Rows share two
common keys — ``sha`` (the commit, stamped here) and ``benchmark`` (the
family name the trend report groups by) — and otherwise carry the
benchmark's own headline numbers: the row a registered kind's
``headline`` returns (:mod:`repro.bench.registry`).
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Dict, List

#: Where the benchmark commands append their headline numbers by default.
HISTORY_PATH = "benchmarks/history.jsonl"


def git_sha() -> str:
    """Short commit id keying a history entry: the working tree's HEAD,
    or ``GITHUB_SHA`` under CI, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    sha = os.environ.get("GITHUB_SHA", "")
    return sha[:12] if sha else "unknown"


def append_entry(entry: Dict, path: str = HISTORY_PATH) -> Dict:
    """Append one entry to the JSONL trajectory, keyed by
    :func:`git_sha` unless it already carries a ``sha``; returns the
    entry as written.

    Creates the parent directory on first use so a fresh checkout can
    start a trajectory without setup.
    """
    if "sha" not in entry:
        entry = {"sha": git_sha(), **entry}
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True))
        fh.write("\n")
    return entry


def load_history(path: str = HISTORY_PATH) -> List[Dict]:
    """Parse the benchmark trajectory (empty list when absent)."""
    if not os.path.exists(path):
        return []
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries
