"""Compare two results, or two sets of results, of the stack benchmark.

    python3 benchmarks/stack/compare.py A.json B.json
    python3 benchmarks/stack/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

``A`` is the baseline (the parent commit, or the first of two sets of
runs), ``B`` the candidate.  For every workload x end-to-end metric it
prints both medians with their bases (count and quartiles), the
relative change, the metric's bound and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the spread (interquartile distance over the median, on
                either side) is wider than the bound and the two
                interquartile ranges overlap -- the runs cannot tell.

With one file a side the basis of a metric is its reps inside that one
process; with several it is the files' values, one per run, which also
sees what differs from one process and one minute to the next.  On a
noisy box a time metric needs the second form (README, "Steadiness").

Exits non-zero on any ``worse``.  Results taken on different inputs,
scales or environments are flagged, never compared silently.
"""

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from metrics import END_TO_END, Metric

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric: Metric, a: Dict, b: Dict) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` is B's median relative to A's
    (absolute when A's median is 0)."""
    med_a, med_b = a["value"], b["value"]
    change = med_b - med_a
    if med_a:
        change /= abs(med_a)
    worse_by = change if metric.better == "lower" else -change
    (lo_a, hi_a), (lo_b, hi_b) = _quartiles(a["values"]), _quartiles(b["values"])
    spread = max(
        (hi_a - lo_a) / abs(med_a) if med_a else 0.0,
        (hi_b - lo_b) / abs(med_b) if med_b else 0.0,
    )
    if spread > metric.bound and lo_a <= hi_b and lo_b <= hi_a:
        return UNRESOLVED, change
    return (WORSE if worse_by > metric.bound else OK), change


def _workloads(doc: Dict) -> Dict[str, Dict]:
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def _base(m: Dict) -> str:
    lo, hi = _quartiles(m["values"])
    return "%.6g (n=%d, q1 %.6g, q3 %.6g)" % (m["value"], m["n"], lo, hi)


def like_for_like(a: Dict, b: Dict) -> List[str]:
    """Reasons the two results of one workload are not comparable."""
    notes = []
    if a["seconds"] != b["seconds"]:
        notes.append("seconds differ: %s vs %s" % (a["seconds"], b["seconds"]))
    if a["inputs"]["digest"] != b["inputs"]["digest"]:
        notes.append("input digests differ (seed %s vs %s)" % (a["seed"], b["seed"]))
    for key in ("cpu_count", "python", "numpy", "kernels", "cal_ref_s"):
        if a["env"][key] != b["env"][key]:
            notes.append("env.%s differs: %s vs %s" % (key, a["env"][key], b["env"][key]))
    return notes


def _pooled(runs: List[Dict], metric: str) -> Optional[Dict]:
    """One workload's metric over one side's runs: the run's own entry
    when there is one run, else the runs' values with their median."""
    entries = [run["end_to_end"][metric] for run in runs]
    if None in entries:
        return None
    if len(entries) == 1:
        return entries[0]
    values = [m["value"] for m in entries]
    return {"value": statistics.median(values), "n": len(values), "values": values}


def compare(docs_a: List[Dict], docs_b: List[Dict]) -> Tuple[List[str], Dict[str, int]]:
    """Report lines and the count of each verdict."""
    lines: List[str] = []
    counts = {OK: 0, WORSE: 0, UNRESOLVED: 0}
    wl_a, wl_b = ([_workloads(d) for d in docs] for docs in (docs_a, docs_b))
    for name in wl_a[0]:
        runs = [w[name] for w in wl_a + wl_b if name in w]
        if len(runs) < len(wl_a) + len(wl_b):
            lines.append("%s: missing from a result" % name)
            continue
        lines.append(name)
        for other in runs[1:]:
            for note in like_for_like(runs[0], other):
                lines.append("  NOT LIKE FOR LIKE: " + note)
        for metric in END_TO_END:
            a = _pooled(runs[: len(wl_a)], metric.name)
            b = _pooled(runs[len(wl_a) :], metric.name)
            if a is None or b is None:
                continue
            result, change = verdict(metric, a, b)
            counts[result] += 1
            lines.append(
                "  %-20s %-10s A %s | B %s | %+.2f%% (bound %.0f%%, %s is better) %s"
                % (
                    metric.name,
                    metric.unit,
                    _base(a),
                    _base(b),
                    100.0 * change,
                    100.0 * metric.bound,
                    metric.better,
                    result,
                )
            )
    return lines, counts


def _load(paths: List[str]) -> List[Dict]:
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    return docs


def main(argv: List[str]) -> int:
    if "--" not in argv and len(argv) == 2:
        argv = [argv[0], "--", argv[1]]
    split = argv.index("--") if "--" in argv else 0
    paths_a, paths_b = argv[:split], argv[split + 1 :]
    if not paths_a or not paths_b:
        sys.exit(__doc__)
    lines, counts = compare(_load(paths_a), _load(paths_b))
    print("\n".join(lines))
    print("%(ok)d ok, %(worse)d worse, %(unresolved)d unresolved" % counts)
    return 1 if counts[WORSE] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
