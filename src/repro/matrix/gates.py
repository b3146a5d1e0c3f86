"""Declarative gate evaluation for matrix runs (the ``checks:`` block).

Every check is evaluated *after* the matrix has run, over plain
:class:`~repro.matrix.cells.CellResult` values — a pure function of
(config, results, baseline files).  Tests fabricate cell results and
exercise every verdict without running a single simulation, and the CLI
gets one place that decides pass/fail for the whole run.

Check types
-----------

``metric``
    Bound a result metric (sim shorthand like ``wamp`` or a dotted path
    into the raw result) with ``min:`` and/or ``max:`` on every matching
    cell.

``meanfield``
    The analytical gate (arXiv:1303.4816; see
    :mod:`repro.matrix.meanfield`).  Matching sim cells are grouped by
    their non-seed axes, seed-averaged, and compared to the closed-form
    Wamp.  Uniform predictions are exact steady states — the seed mean
    must agree within ``tolerance`` both ways.  Hot/cold predictions
    are the optimal-split *bound* — the seed mean must not beat the
    bound by more than ``tolerance`` (a simulator beating a proven
    floor is miscounting), while any gap above it is legal.

Suite gates (``latency-baseline`` / ``sweep-identical`` / any
registered kind's)
    One evaluator for all of them: every matching cell's report goes
    through its kind's own ``check`` (:mod:`repro.bench.registry`) with
    the ``file:`` baseline and ``tolerance:`` the config gives, so a
    matrix-driven CI job computes exactly the verdict ``repro bench
    <kind> --check`` does.  A ``file:`` that cannot be read, or that
    holds another benchmark family's report, is a config error, not a
    vacuous pass.  The passing detail lists the numbers the kind
    declares as its ``columns``.

``slo``
    Burn-rate ceiling over an SLOTracker report embedded in the cell
    result.

Every failed check fails the run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.matrix.cells import (
    CellResult,
    cell_metric,
    dig,
    dig_number,
    matches_where,
)
from repro.matrix.config import (
    CheckDef,
    MatrixConfig,
    MatrixConfigError,
    suite_gates,
)
from repro.matrix.meanfield import MeanFieldError, predict_for_workload

#: The mean-field gate's fractional tolerance when the config does not
#: set one (a suite gate's default is its kind's own); EXPERIMENTS.md
#: documents it next to the agreement measurement that justifies it.
MEANFIELD_TOLERANCE = 0.12


@dataclasses.dataclass(frozen=True)
class GateResult:
    """The verdict of one check over one experiment's cells."""

    experiment: str
    name: str
    type: str
    passed: bool
    #: Human-readable verdict detail (one line per problem when failed).
    detail: str
    #: Headline observed/expected numbers where the check has them.
    observed: Optional[float] = None
    expected: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _matching(
    cells: Sequence[CellResult], check: CheckDef
) -> List[CellResult]:
    return [c for c in cells if matches_where(c.axes, check.where)]


def _result(
    experiment: str,
    check: CheckDef,
    passed: bool,
    detail: str,
    observed: Optional[float] = None,
    expected: Optional[float] = None,
) -> GateResult:
    return GateResult(
        experiment=experiment,
        name=check.name,
        type=check.type,
        passed=passed,
        detail=detail,
        observed=observed,
        expected=expected,
    )


def _no_match(experiment: str, check: CheckDef) -> GateResult:
    """A check whose ``where:`` selects nothing is a config bug, and it
    fails loudly instead of silently passing."""
    return _result(
        experiment,
        check,
        passed=False,
        detail="where: %r matched no cells" % (dict(check.where),),
    )


def _check_metric(
    experiment: str, check: CheckDef, cells: Sequence[CellResult]
) -> GateResult:
    problems = []
    values = []
    for cell in cells:
        try:
            value = cell_metric(cell, check.metric)
        except KeyError:
            problems.append(
                "%s: result has no metric %r" % (cell.spec.label, check.metric)
            )
            continue
        values.append(value)
        if check.min is not None and value < check.min:
            problems.append(
                "%s: %s=%.4f below min %.4f"
                % (cell.spec.label, check.metric, value, check.min)
            )
        if check.max is not None and value > check.max:
            problems.append(
                "%s: %s=%.4f above max %.4f"
                % (cell.spec.label, check.metric, value, check.max)
            )
    observed = sum(values) / len(values) if values else None
    if problems:
        return _result(
            experiment, check, False, "; ".join(problems), observed=observed
        )
    return _result(
        experiment,
        check,
        True,
        "%d cell(s) within bounds" % len(cells),
        observed=observed,
    )


def _group_key(cell: CellResult) -> Tuple:
    return tuple(
        sorted((k, v) for k, v in cell.axes.items() if k != "seed")
    )


def _check_meanfield(
    experiment: str, check: CheckDef, cells: Sequence[CellResult]
) -> GateResult:
    from repro.matrix.cells import sim_metrics
    from repro.sweep.spec import JobSpec

    tolerance = (
        MEANFIELD_TOLERANCE if check.tolerance is None else check.tolerance
    )
    groups: Dict[Tuple, List[CellResult]] = {}
    for cell in cells:
        groups.setdefault(_group_key(cell), []).append(cell)
    problems = []
    lines = []
    observed = expected = None
    for key in sorted(groups):
        members = groups[key]
        spec = JobSpec.from_dict(members[0].spec.payload)
        try:
            prediction = predict_for_workload(
                spec.workload,
                spec.config.fill_factor,
                n_pages=spec.config.user_pages,
            )
        except MeanFieldError as exc:
            problems.append("%s: %s" % (members[0].spec.label, exc))
            continue
        sim_wamp = sum(
            sim_metrics(m.result)["wamp"] for m in members
        ) / len(members)
        observed, expected = sim_wamp, prediction.wamp
        rel = (sim_wamp - prediction.wamp) / prediction.wamp
        label = members[0].spec.label.rsplit("/s", 1)[0]
        if prediction.is_bound:
            # The closed form is a proven floor: simulated Wamp beating
            # it (beyond tolerance) means the simulator is miscounting.
            if rel < -tolerance:
                problems.append(
                    "%s: simulated Wamp %.4f beats the analytical bound "
                    "%.4f by %.1f%% (> %.0f%% tolerance)"
                    % (label, sim_wamp, prediction.wamp, -100 * rel,
                       100 * tolerance)
                )
            else:
                lines.append(
                    "%s: Wamp %.4f vs bound %.4f (%+.1f%%)"
                    % (label, sim_wamp, prediction.wamp, 100 * rel)
                )
        else:
            if abs(rel) > tolerance:
                problems.append(
                    "%s: simulated Wamp %.4f vs analytical %.4f differs "
                    "%.1f%% (> %.0f%% tolerance)"
                    % (label, sim_wamp, prediction.wamp, 100 * abs(rel),
                       100 * tolerance)
                )
            else:
                lines.append(
                    "%s: Wamp %.4f vs analytical %.4f (%+.1f%%)"
                    % (label, sim_wamp, prediction.wamp, 100 * rel)
                )
    if problems:
        return _result(
            experiment, check, False, "; ".join(problems),
            observed=observed, expected=expected,
        )
    return _result(
        experiment, check, True, "; ".join(lines),
        observed=observed, expected=expected,
    )


def _check_suite(
    experiment: str, check: CheckDef, cells: Sequence[CellResult]
) -> GateResult:
    """Every cell's report through its kind's own ``check``."""
    bench = suite_gates()[check.type]
    baseline = None
    if check.file is not None:
        try:
            baseline = bench.load_baseline(check.file)
        except (OSError, ValueError) as exc:
            raise MatrixConfigError(
                "cannot read baseline file %s: %s" % (check.file, exc)
            )
    problems = []
    for cell in cells:
        for problem in bench.check(cell.result, baseline, check.tolerance):
            problems.append("%s: %s" % (cell.spec.label, problem))
    # The kind's declared columns, read off the last report (None: a
    # column this report does not carry).
    headline = [
        (label, dig_number(cells[-1].result, path))
        for label, path in bench.columns
    ]
    observed = headline[0][1] if headline else None
    if problems:
        return _result(
            experiment, check, False, "; ".join(problems), observed=observed
        )
    return _result(
        experiment,
        check,
        True,
        "%d run(s) pass %s%s: %s"
        % (
            len(cells),
            check.type,
            " vs %s" % check.file if check.file else "",
            ", ".join("%s %.6g" % h for h in headline if h[1] is not None),
        ),
        observed=observed,
    )


def _check_slo(
    experiment: str, check: CheckDef, cells: Sequence[CellResult]
) -> GateResult:
    """Burn-rate ceiling over an embedded SLOTracker report.

    ``metric:`` is the dotted path to the report inside the cell result
    (the latency bench embeds one at ``slo``); ``max:`` is the
    sustained-burn ceiling, default 1.0 — burning the error budget no
    faster than allotted.
    """
    ceiling = check.max if check.max is not None else 1.0
    problems = []
    observed = None
    for cell in cells:
        try:
            report = dig(cell.result, check.metric)
        except (KeyError, TypeError):
            problems.append(
                "%s: result has no SLO report at %r"
                % (cell.spec.label, check.metric)
            )
            continue
        if not isinstance(report, Mapping) or "sustained_burn" not in report:
            problems.append(
                "%s: %r is not an SLO report (no sustained_burn)"
                % (cell.spec.label, check.metric)
            )
            continue
        burn = float(report["sustained_burn"])
        observed = burn if observed is None else max(observed, burn)
        if burn > ceiling:
            problems.append(
                "%s: sustained burn %.3f exceeds %.2f "
                "(objective %.3f, threshold %.1f pages, %s bad of %s samples)"
                % (
                    cell.spec.label,
                    burn,
                    ceiling,
                    float(report.get("objective", 0.0)),
                    float(report.get("threshold", 0.0)),
                    report.get("bad", "?"),
                    report.get("samples", "?"),
                )
            )
    if problems:
        return _result(
            experiment,
            check,
            False,
            "; ".join(problems),
            observed=observed,
            expected=ceiling,
        )
    return _result(
        experiment,
        check,
        True,
        "%d cell(s) under the burn ceiling %.2f" % (len(cells), ceiling),
        observed=observed,
        expected=ceiling,
    )


_EVALUATORS = {
    "metric": _check_metric,
    "meanfield": _check_meanfield,
    "slo": _check_slo,
}


def evaluate_checks(
    config: MatrixConfig,
    results: Mapping[str, Sequence[CellResult]],
) -> List[GateResult]:
    """Evaluate every experiment's ``checks:`` over its cell results.

    ``results`` maps experiment name → cell results (the runner builds
    it; tests fabricate it).  Returns one :class:`GateResult` per
    check, in config order.
    """
    verdicts: List[GateResult] = []
    for exp in config.experiments:
        cells = list(results.get(exp.name, ()))
        for check in exp.checks:
            matching = _matching(cells, check)
            if not matching:
                verdicts.append(_no_match(exp.name, check))
                continue
            evaluate = _EVALUATORS.get(check.type, _check_suite)
            verdicts.append(evaluate(exp.name, check, matching))
    return verdicts


def blocking_failures(verdicts: Sequence[GateResult]) -> List[GateResult]:
    """The verdicts that fail the run: every check that did not pass."""
    return [v for v in verdicts if not v.passed]
