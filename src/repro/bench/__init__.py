"""Experiment harness: simulation driver and table/series formatting."""

from repro.bench.experiments import (
    ExperimentOutput,
    ablation_batch_experiment,
    ablation_estimator_experiment,
    demo_experiment,
    fig3_experiment,
    fig4_experiment,
    fig5_experiment,
    fig6_experiment,
    make_workload,
    table1_experiment,
    table2_experiment,
)
from repro.bench.runner import (
    SimulationResult,
    drive,
    prepare_store,
    run_simulation,
)
from repro.bench.tables import format_series, format_table

__all__ = [
    "ExperimentOutput",
    "SimulationResult",
    "ablation_batch_experiment",
    "ablation_estimator_experiment",
    "demo_experiment",
    "make_workload",
    "fig3_experiment",
    "fig4_experiment",
    "fig5_experiment",
    "fig6_experiment",
    "table1_experiment",
    "table2_experiment",
    "drive",
    "format_series",
    "format_table",
    "prepare_store",
    "run_simulation",
]
