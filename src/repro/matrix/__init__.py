"""Declarative experiment matrices (``repro bench run config.yml``).

The matrix subsystem turns a YAML/JSON experiment config into
content-addressed cells, executes them through the sweep executor (with
resume), evaluates declarative gates — committed baselines and the
mean-field analytical check — and renders a markdown regression report.
See EXPERIMENTS.md for the authoring guide.
"""

from repro.matrix.cells import (
    CellResult,
    CellSpec,
    MatrixJobRunner,
    cells_for_experiment,
    matrix_digest,
)
from repro.matrix.config import (
    CheckDef,
    ExperimentDef,
    MatrixConfig,
    MatrixConfigError,
    ResultDef,
    default_out_dir,
    expand_experiment,
    load_config,
    parse_config,
)
from repro.matrix.gates import (
    GateResult,
    blocking_failures,
    evaluate_checks,
)
from repro.matrix.meanfield import (
    MeanFieldError,
    MeanFieldPrediction,
    hotcold_meanfield,
    predict_for_workload,
    uniform_meanfield,
)
from repro.matrix.report import render_report
from repro.matrix.runner import MatrixRunReport, run_matrix

__all__ = [
    "CellResult",
    "CellSpec",
    "CheckDef",
    "ExperimentDef",
    "GateResult",
    "MatrixConfig",
    "MatrixConfigError",
    "MatrixJobRunner",
    "MatrixRunReport",
    "MeanFieldError",
    "MeanFieldPrediction",
    "ResultDef",
    "blocking_failures",
    "cells_for_experiment",
    "default_out_dir",
    "evaluate_checks",
    "expand_experiment",
    "hotcold_meanfield",
    "load_config",
    "matrix_digest",
    "parse_config",
    "predict_for_workload",
    "render_report",
    "run_matrix",
    "uniform_meanfield",
]
