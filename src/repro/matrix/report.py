"""Markdown report rendering for matrix runs (``report.md``).

One matrix run produces one self-contained markdown document:

1. **Header** — config name/description, git SHA, matrix digest, cell
   counts (run vs resumed).
2. **Gates** — one table row per ``checks:`` verdict.
3. **Results** — the declared ``results:`` sections: pivoted
   comparison tables (``rows:`` × ``columns:`` of a metric,
   seed-averaged) and ASCII convergence plots from the run's merged
   schema-v1 metrics.  Every experiment also gets a default flat table,
   so a config with no ``results:`` block still renders something
   useful.

Plots are the repo's ASCII charts inside code fences — the report stays
reviewable in a terminal, a PR diff, and a CI artifact without any
imaging dependency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.bench.charts import line_plot
from repro.matrix.cells import CellResult, cell_metric
from repro.matrix.config import MatrixConfig, ResultDef
from repro.matrix.gates import GateResult


def _fmt_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return "%.0f" % value
    return "%.4g" % value


def _seed_mean(
    cells: Sequence[CellResult], metric: str
) -> Dict[tuple, float]:
    """Seed-averaged metric keyed by the cells' non-seed axes."""
    sums: Dict[tuple, List[float]] = {}
    for cell in cells:
        key = tuple(
            sorted((k, v) for k, v in cell.axes.items() if k != "seed")
        )
        try:
            sums.setdefault(key, []).append(cell_metric(cell, metric))
        except KeyError:
            continue
    return {k: sum(v) / len(v) for k, v in sums.items() if v}


def render_gates_table(verdicts: Sequence[GateResult]) -> List[str]:
    if not verdicts:
        return ["_No checks declared._"]
    lines = [
        "| experiment | check | type | verdict | detail |",
        "|---|---|---|---|---|",
    ]
    for v in verdicts:
        verdict = "pass" if v.passed else "**FAIL**"
        detail = v.detail.replace("|", "\\|")
        if len(detail) > 160:
            detail = detail[:157] + "..."
        lines.append(
            "| %s | %s | %s | %s | %s |"
            % (v.experiment, v.name, v.type, verdict, detail)
        )
    return lines


def _axis_values(
    cells: Sequence[CellResult], axis: str
) -> List[Any]:
    """Distinct values of one axis, first-seen (= spec) order."""
    seen: List[Any] = []
    for cell in cells:
        value = cell.axes.get(axis)
        if value not in seen:
            seen.append(value)
    return seen


def render_pivot_table(
    cells: Sequence[CellResult], res: ResultDef
) -> List[str]:
    """``rows:`` × ``columns:`` pivot of a seed-averaged metric."""
    means = _seed_mean(cells, res.metric)
    if not means:
        return ["_No cells carry metric `%s`._" % res.metric]
    row_values = _axis_values(cells, res.rows)
    col_values = _axis_values(cells, res.columns) if res.columns else [None]

    def lookup(rv: Any, cv: Any) -> Optional[float]:
        for key, value in means.items():
            axes = dict(key)
            if axes.get(res.rows) != rv:
                continue
            if res.columns and axes.get(res.columns) != cv:
                continue
            return value
        return None

    header = res.columns or res.metric
    lines = [
        "| %s \\ %s | " % (res.rows, header)
        + " | ".join(
            _fmt_value(cv) if isinstance(cv, float) else str(cv)
            for cv in (col_values if res.columns else [res.metric])
        )
        + " |",
        "|---" * (1 + len(col_values)) + "|",
    ]
    for rv in row_values:
        row = [str(rv)]
        for cv in col_values:
            row.append(_fmt_value(lookup(rv, cv)))
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_flat_table(
    cells: Sequence[CellResult], metric: str = "wamp"
) -> List[str]:
    """Default per-experiment table: one row per non-seed axes point."""
    means = _seed_mean(cells, metric)
    if not means:
        return ["_No cells carry metric `%s`._" % metric]
    axis_names: List[str] = []
    for key in means:
        for name, _ in key:
            if name not in axis_names:
                axis_names.append(name)
    # Drop axes that never vary to keep the table narrow; keep at least
    # one column so every row is identifiable.
    varying = [
        n
        for n in axis_names
        if len({dict(k).get(n) for k in means}) > 1
    ] or axis_names[:1]
    lines = [
        "| " + " | ".join(varying) + " | %s |" % metric,
        "|---" * (len(varying) + 1) + "|",
    ]
    ordered = []
    seen = set()
    for cell in cells:
        key = tuple(
            sorted((k, v) for k, v in cell.axes.items() if k != "seed")
        )
        if key in means and key not in seen:
            seen.add(key)
            ordered.append(key)
    for key in ordered:
        axes = dict(key)
        row = [str(axes.get(n, "-")) for n in varying]
        row.append(_fmt_value(means[key]))
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_convergence(
    metrics_path: str, title: str, max_series: int = 6
) -> List[str]:
    """ASCII windowed-Wamp convergence plot from a merged schema-v1
    metrics file (one series per run block)."""
    import os

    from repro.obs.export import aggregate_convergence, load_rows

    if not os.path.exists(metrics_path):
        return [
            "_No metrics captured (experiment has `obs: false`, or every "
            "cell was resumed from the manifest)._"
        ]
    blocks = aggregate_convergence(load_rows(metrics_path))
    blocks = [b for b in blocks if b["clock"]]
    if not blocks:
        return ["_Metrics file has no sample rows._"]
    clipped = blocks[:max_series]
    # Series share one x-axis; runs of equal length line up exactly and
    # shorter runs simply stop early (the plot pads with the grid).
    longest = max(clipped, key=lambda b: len(b["clock"]))
    series: Dict[str, Sequence[float]] = {}
    for i, block in enumerate(clipped):
        run = block.get("run") or {}
        label = str(run.get("label", run.get("policy", "run%d" % i)))[:24]
        if label in series:
            label = "%s#%d" % (label, i)
        series[label] = block["wamp_win"]
    chart = line_plot(
        longest["clock"],
        series,
        title=title,
        height=12,
        width=60,
    )
    lines = ["```", chart, "```"]
    if len(blocks) > max_series:
        lines.append(
            "_%d of %d runs plotted._" % (max_series, len(blocks))
        )
    return lines


def render_report(
    config: MatrixConfig,
    results: Mapping[str, Sequence[CellResult]],
    verdicts: Sequence[GateResult],
    sha: str,
    matrix_digest: str,
    resumed: int,
    metrics_paths: Optional[Mapping[str, str]] = None,
) -> str:
    """The full markdown report for one matrix run."""
    metrics_paths = metrics_paths or {}
    total = sum(len(v) for v in results.values())
    lines = [
        "# Matrix run: %s" % config.name,
        "",
    ]
    if config.description:
        lines += [config.description, ""]
    lines += [
        "- commit: `%s`" % sha,
        "- matrix digest: `%s`" % matrix_digest,
        "- cells: %d (%d executed, %d resumed)"
        % (total, total - resumed, resumed),
        "- config: `%s`" % config.source,
        "",
        "## Gates",
        "",
    ]
    lines += render_gates_table(verdicts)

    declared = list(config.results)
    covered = {
        r.experiment for r in declared if r.type == "table" and r.experiment
    }
    lines += ["", "## Results"]
    for exp in config.experiments:
        cells = list(results.get(exp.name, ()))
        if not cells:
            continue
        if exp.name not in covered:
            metric = "wamp" if exp.kind == "sim" else None
            if metric:
                lines += ["", "### %s" % exp.name, ""]
                lines += render_flat_table(cells, metric)
    for res in declared:
        if res.type == "table":
            cells = list(results.get(res.experiment, ()))
            lines += ["", "### %s" % res.experiment, ""]
            if res.rows:
                lines += render_pivot_table(cells, res)
            else:
                lines += render_flat_table(cells, res.metric)
        elif res.type == "convergence":
            lines += ["", "### %s: convergence" % res.experiment, ""]
            lines += render_convergence(
                metrics_paths.get(res.experiment, ""),
                title="windowed Wamp vs clock (%s)" % res.experiment,
            )
    lines.append("")
    return "\n".join(lines)
