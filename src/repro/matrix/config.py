"""Declarative experiment-matrix configs (``repro bench run config.yml``).

A config is a YAML (or JSON) document describing a set of named
**experiments**, each expanded from a parameter ``matrix:`` into
content-addressed cells, plus declarative ``checks:`` (gates) and
``results:`` (report sections).  The full grammar::

    name: ci-smoke                  # required; names the run
    description: one line for the report header
    experiments:                    # required; at least one
      - name: fig5                  # required; unique per config
        kind: sim                   # sim (default) or a registered bench kind
        matrix:                     # axes; each value list becomes a grid
          policy: [age, mdc]        #   dimension.  Scalars are allowed and
          dist: [uniform]           #   mean a fixed (non-swept) axis.
          fill: [0.5, 0.8]
        samples: 2                  # seeds seed, seed+1, ... per grid point
        seed: 0                     # base seed (default 0)
        params:                     # kind-specific fixed parameters
          write_multiplier: 6.25
        obs: true                   # sim only: record metrics rows
        checks:                     # per-experiment gates
          - type: meanfield         # analytical closed-form Wamp
            where: {policy: age, dist: uniform}
            tolerance: 0.10
          - type: metric            # bound a result metric
            metric: wamp
            where: {policy: mdc}
            max: 2.0
    results:                        # optional report sections; a default
      - type: table                 #   table per experiment is always
        experiment: fig5            #   rendered
        rows: policy
        columns: fill
        metric: wamp
      - type: convergence
        experiment: fig5

The bench kinds, their parameters (with defaults) and the suite gate
each answers to are whatever :mod:`repro.bench.registry` declares; this
module names none of them.

Parsing is strict: unknown keys, wrong types, and out-of-range values
raise :class:`MatrixConfigError` with the config path of the offending
node (``experiments[1].matrix.fill``), so a typo'd config fails fast
with an actionable message instead of silently running the wrong grid.

Grid expansion is deterministic and *spec-order stable*: axes expand in
declaration order (later axes vary fastest), seeds innermost — the cell
list, and therefore every cell digest and the matrix digest, depends
only on the config content.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.registry import REGISTRY, Benchmark


class MatrixConfigError(Exception):
    """Raised for unparseable or invalid matrix configs."""


#: Check types that are not tied to one kind; ``meanfield`` is
#: sim-only and each registered kind adds its own suite gate
#: (``Benchmark.gate``).  ``slo`` reads an SLOTracker report embedded in
#: a cell result (the latency bench emits one).
GENERIC_CHECK_TYPES = ("metric", "slo")

#: Result-section types understood by :mod:`repro.matrix.report`.
RESULT_TYPES = ("table", "convergence")

#: Axis/param names accepted for ``kind: sim`` cells, with defaults
#: (``None`` = required or derived).  ``dist`` uses the experiment
#: shorthand of :func:`repro.bench.experiments.make_workload`.
SIM_PARAMS: Dict[str, Any] = {
    "policy": None,
    "dist": "uniform",
    "fill": 0.8,
    "n_segments": 512,
    "segment_units": 64,
    "clean_trigger": 4,
    "clean_batch": 8,
    "sort_buffer": 0,
    "reserve_compensation": False,
    "write_multiplier": 25.0,
    "total_writes": None,
    "measure_fraction": 0.5,
}


def kind_params(kind: str) -> Mapping[str, Any]:
    """Parameter name -> default for one experiment kind."""
    return SIM_PARAMS if kind == "sim" else REGISTRY[kind].params


def suite_gates() -> Dict[str, Benchmark]:
    """Suite gate name -> the registered kind it belongs to."""
    return {b.gate: b for b in REGISTRY.values() if b.gate}


@dataclasses.dataclass(frozen=True)
class CheckDef:
    """One declarative gate."""

    type: str
    name: str
    where: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: Fractional tolerance for suite-gate / meanfield comparisons.
    tolerance: Optional[float] = None
    #: Bounds for ``metric`` checks.
    metric: Optional[str] = None
    min: Optional[float] = None
    max: Optional[float] = None
    #: The committed report a suite gate compares against.
    file: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ResultDef:
    """One declarative report section."""

    type: str
    experiment: str
    rows: Optional[str] = None
    columns: Optional[str] = None
    metric: str = "wamp"


@dataclasses.dataclass(frozen=True)
class ExperimentDef:
    """One named experiment: a grid of cells of one kind."""

    name: str
    kind: str
    matrix: Mapping[str, Tuple[Any, ...]]
    params: Mapping[str, Any]
    samples: int
    seed: int
    obs: bool
    checks: Tuple[CheckDef, ...]

    def axis_names(self) -> List[str]:
        """Swept axes (list-valued matrix entries), declaration order."""
        return [k for k, v in self.matrix.items() if len(v) > 1]


@dataclasses.dataclass(frozen=True)
class MatrixConfig:
    """A parsed, validated experiment-matrix config."""

    name: str
    description: str
    experiments: Tuple[ExperimentDef, ...]
    results: Tuple[ResultDef, ...]
    source: str = "<memory>"

    def experiment(self, name: str) -> ExperimentDef:
        for exp in self.experiments:
            if exp.name == name:
                return exp
        raise MatrixConfigError(
            "no experiment named %r in %s (have: %s)"
            % (name, self.source, ", ".join(e.name for e in self.experiments))
        )


# ----------------------------------------------------------------------
# Strict-walk helpers
# ----------------------------------------------------------------------

def _fail(path: str, message: str) -> "MatrixConfigError":
    return MatrixConfigError("%s: %s" % (path, message))


def _require_mapping(node: Any, path: str) -> Mapping:
    if not isinstance(node, Mapping):
        raise _fail(path, "expected a mapping, got %s" % type(node).__name__)
    return node


def _require_list(node: Any, path: str) -> List:
    if not isinstance(node, list):
        raise _fail(path, "expected a list, got %s" % type(node).__name__)
    return node


def _require_str(node: Any, path: str) -> str:
    if not isinstance(node, str) or not node.strip():
        raise _fail(path, "expected a non-empty string, got %r" % (node,))
    return node


def _require_int(node: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise _fail(path, "expected an integer, got %r" % (node,))
    if minimum is not None and node < minimum:
        raise _fail(path, "must be >= %d, got %d" % (minimum, node))
    return node


def _require_number(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise _fail(path, "expected a number, got %r" % (node,))
    return float(node)


def _require_bool(node: Any, path: str) -> bool:
    if not isinstance(node, bool):
        raise _fail(path, "expected true/false, got %r" % (node,))
    return node


def _reject_unknown(node: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = [k for k in node if k not in allowed]
    if unknown:
        raise _fail(
            path,
            "unknown key(s) %s (allowed: %s)"
            % (", ".join(map(repr, sorted(unknown))), ", ".join(allowed)),
        )


def _scalar(node: Any, path: str) -> Any:
    if node is not None and not isinstance(node, (str, int, float, bool)):
        raise _fail(
            path, "expected a scalar value, got %s" % type(node).__name__
        )
    return node


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def load_config(path: str) -> MatrixConfig:
    """Load and validate a config from a ``.yml``/``.yaml``/``.json``
    file.  YAML needs the ``pyyaml`` package; the error says so rather
    than leaving an ImportError for the caller to decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixConfigError("cannot read config %s: %s" % (path, exc))
    if path.endswith(".json"):
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise MatrixConfigError("%s is not valid JSON: %s" % (path, exc))
    else:
        try:
            import yaml
        except ImportError:
            raise MatrixConfigError(
                "parsing %s needs the pyyaml package (pip install pyyaml), "
                "or rewrite the config as .json" % path
            )
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise MatrixConfigError("%s is not valid YAML: %s" % (path, exc))
    return parse_config(raw, source=path)


def parse_config(raw: Any, source: str = "<memory>") -> MatrixConfig:
    """Validate a raw (already-deserialized) config document."""
    root = _require_mapping(raw, source)
    _reject_unknown(
        root, ("name", "description", "experiments", "results"), source
    )
    name = _require_str(root.get("name"), "%s: name" % source)
    description = str(root.get("description", "") or "")
    raw_exps = _require_list(
        root.get("experiments"), "%s: experiments" % source
    )
    if not raw_exps:
        raise _fail("%s: experiments" % source, "at least one is required")
    experiments = []
    seen_names = set()
    for i, node in enumerate(raw_exps):
        exp = _parse_experiment(node, "experiments[%d]" % i)
        if exp.name in seen_names:
            raise _fail(
                "experiments[%d].name" % i,
                "duplicate experiment name %r" % exp.name,
            )
        seen_names.add(exp.name)
        experiments.append(exp)
    results = tuple(
        _parse_result(node, "results[%d]" % i, seen_names)
        for i, node in enumerate(
            _require_list(root.get("results", []), "results")
        )
    )
    return MatrixConfig(
        name=name,
        description=description,
        experiments=tuple(experiments),
        results=results,
        source=source,
    )


def _parse_experiment(node: Any, path: str) -> ExperimentDef:
    exp = _require_mapping(node, path)
    _reject_unknown(
        exp,
        ("name", "kind", "matrix", "params", "samples", "seed", "obs", "checks"),
        path,
    )
    name = _require_str(exp.get("name"), "%s.name" % path)
    kind = exp.get("kind", "sim")
    if kind != "sim" and kind not in REGISTRY:
        raise _fail(
            "%s.kind" % path,
            "unknown kind %r (have: %s)"
            % (kind, ", ".join(("sim", *REGISTRY))),
        )
    allowed = kind_params(kind)

    matrix: Dict[str, Tuple[Any, ...]] = {}
    for key, value in _require_mapping(
        exp.get("matrix", {}), "%s.matrix" % path
    ).items():
        axis_path = "%s.matrix.%s" % (path, key)
        if key not in allowed:
            raise _fail(
                axis_path,
                "unknown %s parameter (allowed: %s)"
                % (kind, ", ".join(sorted(allowed))),
            )
        values = value if isinstance(value, list) else [value]
        if not values:
            raise _fail(axis_path, "axis has no values")
        matrix[key] = tuple(
            _scalar(v, "%s[%d]" % (axis_path, j)) for j, v in enumerate(values)
        )

    params: Dict[str, Any] = {}
    for key, value in _require_mapping(
        exp.get("params", {}), "%s.params" % path
    ).items():
        param_path = "%s.params.%s" % (path, key)
        if key not in allowed:
            raise _fail(
                param_path,
                "unknown %s parameter (allowed: %s)"
                % (kind, ", ".join(sorted(allowed))),
            )
        if key in matrix:
            raise _fail(param_path, "already declared as a matrix axis")
        params[key] = _scalar(value, param_path)

    if kind == "sim" and "policy" not in matrix and "policy" not in params:
        raise _fail("%s" % path, "sim experiments need a policy axis or param")

    samples = _require_int(exp.get("samples", 1), "%s.samples" % path, minimum=1)
    seed = _require_int(exp.get("seed", 0), "%s.seed" % path, minimum=0)
    obs = _require_bool(exp.get("obs", False), "%s.obs" % path)
    if obs and kind != "sim":
        raise _fail(
            "%s.obs" % path,
            "observability capture is only available for kind: sim",
        )
    checks = tuple(
        _parse_check(c, "%s.checks[%d]" % (path, i), kind)
        for i, c in enumerate(
            _require_list(exp.get("checks", []), "%s.checks" % path)
        )
    )
    return ExperimentDef(
        name=name,
        kind=kind,
        matrix=matrix,
        params=params,
        samples=samples,
        seed=seed,
        obs=obs,
        checks=checks,
    )


def _parse_check(node: Any, path: str, kind: str) -> CheckDef:
    check = _require_mapping(node, path)
    _reject_unknown(
        check,
        (
            "type", "name", "where", "tolerance", "metric", "min", "max",
            "file",
        ),
        path,
    )
    ctype = check.get("type")
    suites = suite_gates()
    known = (*GENERIC_CHECK_TYPES, "meanfield", *suites)
    if ctype not in known:
        raise _fail(
            "%s.type" % path,
            "unknown check type %r (have: %s)" % (ctype, ", ".join(known)),
        )
    if ctype in suites:
        applies = suites[ctype] is REGISTRY.get(kind)
    elif ctype == "meanfield":
        applies = kind == "sim"
    elif ctype == "slo":
        # Reads an embedded report no sim result carries.
        applies = kind != "sim"
    else:
        applies = True
    if not applies:
        raise _fail(
            "%s.type" % path,
            "check type %r does not apply to kind %r experiments"
            % (ctype, kind),
        )
    where = {
        k: _scalar(v, "%s.where.%s" % (path, k))
        for k, v in _require_mapping(
            check.get("where", {}), "%s.where" % path
        ).items()
    }
    tolerance = check.get("tolerance")
    if tolerance is not None:
        tolerance = _require_number(tolerance, "%s.tolerance" % path)
        if tolerance <= 0:
            raise _fail("%s.tolerance" % path, "must be positive")
    metric = check.get("metric")
    if metric is not None:
        metric = _require_str(metric, "%s.metric" % path)
    lo = check.get("min")
    hi = check.get("max")
    if lo is not None:
        lo = _require_number(lo, "%s.min" % path)
    if hi is not None:
        hi = _require_number(hi, "%s.max" % path)
    if ctype == "metric":
        if metric is None:
            raise _fail(path, "metric checks need a metric: field")
        if lo is None and hi is None:
            raise _fail(path, "metric checks need min: and/or max: bounds")
    if ctype == "slo" and metric is None:
        raise _fail(
            path,
            "slo checks need a metric: field (dotted path to the "
            "embedded SLO report, e.g. slo)",
        )
    if ctype in suites and suites[ctype].gate_needs_file and not check.get("file"):
        raise _fail(path, "%s checks need a file: field" % ctype)
    file_ = check.get("file")
    if file_ is not None:
        file_ = _require_str(file_, "%s.file" % path)
    return CheckDef(
        type=ctype,
        name=str(check.get("name", ctype)),
        where=where,
        tolerance=tolerance,
        metric=metric,
        min=lo,
        max=hi,
        file=file_,
    )


def _parse_result(node: Any, path: str, experiment_names) -> ResultDef:
    res = _require_mapping(node, path)
    _reject_unknown(
        res, ("type", "experiment", "rows", "columns", "metric"), path
    )
    rtype = res.get("type")
    if rtype not in RESULT_TYPES:
        raise _fail(
            "%s.type" % path,
            "unknown result type %r (have: %s)"
            % (rtype, ", ".join(RESULT_TYPES)),
        )
    experiment = _require_str(res.get("experiment"), "%s.experiment" % path)
    if experiment not in experiment_names:
        raise _fail(
            "%s.experiment" % path,
            "references unknown experiment %r" % experiment,
        )
    return ResultDef(
        type=rtype,
        experiment=experiment,
        rows=res.get("rows"),
        columns=res.get("columns"),
        metric=str(res.get("metric", "wamp")),
    )


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------

def expand_experiment(exp: ExperimentDef) -> List[Dict[str, Any]]:
    """Expand one experiment into its ordered list of **cell axes**.

    Each cell is the merged parameter dict (defaults ← params ← one
    matrix point) plus its ``seed``.  Axes expand in declaration order
    with later axes varying fastest; the ``samples`` seed loop is
    innermost.  The order is a pure function of the config, which is
    what makes cell digests — and resume — stable across runs.
    """
    base: Dict[str, Any] = {
        k: v for k, v in kind_params(exp.kind).items() if v is not None
    }
    base.update(exp.params)
    axes = list(exp.matrix.items())
    cells: List[Dict[str, Any]] = []
    value_lists = [values for _, values in axes]
    for combo in itertools.product(*value_lists) if axes else [()]:
        point = dict(base)
        for (key, _), value in zip(axes, combo):
            point[key] = value
        for sample in range(exp.samples):
            cell = dict(point)
            cell["seed"] = exp.seed + sample
            cells.append(cell)
    return cells


def default_out_dir(config: MatrixConfig) -> str:
    """Conventional output directory for a config's runs."""
    return os.path.join("bench_runs", config.name)
