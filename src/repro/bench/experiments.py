"""The paper's experiments as parameterized functions.

One function per table/figure; ``benchmarks/bench_*.py`` and the CLI are
thin wrappers around these.  Every function returns plain data plus a
rendered plain-text table so EXPERIMENTS.md can quote output verbatim.

Scaled defaults (see DESIGN.md): the devices are a few hundred to a
thousand segments instead of the paper's 51,200, with cleaning trigger
and batch scaled to keep their ratios; footnote 2 of the paper notes
absolute size does not affect write amplification, and the deviations
that *do* appear at small scale are recorded in EXPERIMENTS.md.

Every experiment function accepts an optional ``runner`` argument with
the signature of :func:`repro.bench.runner.run_simulation`.  The default
runs each simulation inline; ``repro.sweep`` injects recording/replaying
runners to expand the same loops into a parallel job grid and then
aggregate the results through this exact code path, which is what makes
serial and swept outputs byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import fixpoint, hotcold
from repro.bench.runner import run_simulation
from repro.bench.tables import format_series, format_table
from repro.policies import FIGURE3_POLICIES, FIGURE5_POLICIES
from repro.store import StoreConfig
from repro.store.config import DEFAULT_SORT_BUFFER
from repro.tpcc import TpccScale, generate_tpcc_trace
from repro.workloads import (
    HotColdWorkload,
    UniformWorkload,
    ZipfianWorkload,
)

#: Figure 5's x-axis.
FIGURE5_FILLS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
#: Figure 6's x-axis.
FIGURE6_FILLS = (0.5, 0.6, 0.7, 0.8)
#: Figure 3's x-axis (skew m of the m:1-m hot-cold distribution).
FIGURE3_SKEWS = (50, 60, 70, 80, 90)
#: Figure 4's x-axis, rescaled to our device (the paper sweeps up to
#: 1024 of 51,200 segments = 2 %; 16 of 512 is 3 %, and 64 saturates).
FIGURE4_BUFFERS = (0, 1, 4, 16, 64)


@dataclasses.dataclass(frozen=True)
class ExperimentOutput:
    """Data plus its paper-style rendering."""

    name: str
    rendered: str
    data: Dict

    def __str__(self) -> str:
        return self.rendered


def _standard_config(fill: float, sort_buffer: int) -> StoreConfig:
    return StoreConfig(
        n_segments=512,
        segment_units=64,
        fill_factor=fill,
        clean_trigger=4,
        clean_batch=8,
        sort_buffer_segments=sort_buffer,
    )


def make_workload(dist: str, n_pages: int, seed: int):
    """Build a workload from its distribution shorthand (``"uniform"``,
    ``"zipf-80-20"``, ``"zipf-90-10"``, ``"hotcold-<m>"``)."""
    if dist == "uniform":
        return UniformWorkload(n_pages, seed=seed)
    if dist == "zipf-80-20":
        return ZipfianWorkload.eighty_twenty(n_pages, seed=seed)
    if dist == "zipf-90-10":
        return ZipfianWorkload.ninety_ten(n_pages, seed=seed)
    if dist.startswith("hotcold-"):
        return HotColdWorkload.from_skew(n_pages, int(dist.split("-")[1]), seed=seed)
    raise ValueError("unknown distribution %r" % (dist,))


#: Backwards-compatible alias (the CLI used the private name pre-sweep).
_make_workload = make_workload

#: Signature shared by :func:`repro.bench.runner.run_simulation` and the
#: recording/replaying runners that ``repro.sweep`` injects.
Runner = Callable[..., "SimulationResult"]


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------

def table1_experiment(
    fill_factors: Sequence[float] = fixpoint.TABLE1_FILL_FACTORS,
    write_multiplier: float = 8.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """Table 1: the age-based fixpoint analysis next to simulation
    under a uniform distribution.

    Two simulated columns: age-based cleaning (the circular-buffer model
    Equation 4 is derived for — the direct validation) and MDC-opt (the
    paper's column; on a small device its greedy-equivalent victim order
    skims the emptiness distribution's tail, so it sits slightly above
    the fixpoint — see EXPERIMENTS.md).

    Uses a reserve-compensated 1024x32 device so the standing free pool
    does not bite into the slack that the analysis assumes is all
    user-visible.
    """
    run = runner or run_simulation
    rows = []
    for f in fill_factors:
        analysis = fixpoint.table1_row(f)
        sims = {}
        for policy in ("age", "mdc-opt"):
            cfg = StoreConfig(
                n_segments=1024, segment_units=32, fill_factor=f,
                clean_trigger=2, clean_batch=4,
            ).with_reserve_compensation()
            wl = UniformWorkload(cfg.user_pages, seed=seed)
            sims[policy] = run(
                cfg, policy, wl, write_multiplier=write_multiplier
            )
        rows.append(
            (
                f,
                round(1.0 - f, 3),
                analysis.emptiness,
                sims["age"].mean_cleaned_emptiness,
                sims["mdc-opt"].mean_cleaned_emptiness,
                analysis.cost,
                analysis.ratio,
                analysis.wamp,
                sims["age"].wamp,
            )
        )
    rendered = format_table(
        [
            "F", "1-F", "E", "age-sim", "MDC-opt",
            "Cost", "R=E/(1-F)", "Wamp", "Wamp-sim",
        ],
        rows,
        title="Table 1: fill factor vs segment emptiness when cleaned "
        "(Equation 4 analysis vs simulated age and MDC-opt, uniform updates)",
    )
    return ExperimentOutput("table1", rendered, {"rows": rows})


# ----------------------------------------------------------------------
# Table 2
# ----------------------------------------------------------------------

def table2_experiment(
    skews: Sequence[int] = hotcold.TABLE2_SKEWS,
    fill_factor: float = 0.8,
    write_multiplier: float = 30.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """Table 2: analytic minimum cost of separated hot/cold management
    vs simulated MDC-opt, at F = 0.8."""
    run = runner or run_simulation
    rows = []
    for m in skews:
        analysis = hotcold.table2_row(m, fill_factor)
        cfg = _standard_config(fill_factor, DEFAULT_SORT_BUFFER)
        wl = HotColdWorkload.from_skew(cfg.user_pages, m, seed=seed)
        sim = run(cfg, "mdc-opt", wl, write_multiplier=write_multiplier)
        sim_cost = 2.0 * (1.0 + sim.wamp)  # Cost = 2/E = 2 (1 + Wamp)
        rows.append(
            (
                fill_factor,
                "%d:%d" % (m, 100 - m),
                analysis.min_cost,
                analysis.cost_hot_60,
                analysis.cost_hot_40,
                sim_cost,
            )
        )
    rendered = format_table(
        ["F", "Cold-Hot", "MinCost", "Hot:60%", "Hot:40%", "MDC-opt(sim)"],
        rows,
        title="Table 2: minimum cost when managing hot and cold data "
        "separately (analysis vs simulated MDC-opt)",
    )
    return ExperimentOutput("table2", rendered, {"rows": rows})


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------

def fig3_experiment(
    skews: Sequence[int] = FIGURE3_SKEWS,
    policies: Sequence[str] = tuple(FIGURE3_POLICIES),
    fill_factor: float = 0.8,
    write_multiplier: float = 30.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """Figure 3: the MDC ablation breakdown on hot-cold distributions,
    plus the analytic ``opt`` series."""
    run = runner or run_simulation
    series: Dict[str, List[float]] = {name: [] for name in policies}
    series["opt"] = []
    for m in skews:
        for name in policies:
            cfg = _standard_config(fill_factor, DEFAULT_SORT_BUFFER)
            wl = HotColdWorkload.from_skew(cfg.user_pages, m, seed=seed)
            sim = run(cfg, name, wl, write_multiplier=write_multiplier)
            series[name].append(sim.wamp)
        series["opt"].append(hotcold.opt_wamp(m, fill_factor))
    x_labels = ["%d-%d" % (m, 100 - m) for m in skews]
    rendered = format_series(
        "skewness",
        x_labels,
        series,
        title="Figure 3: write amplification vs hot-cold skew (F=%.1f)"
        % fill_factor,
    )
    return ExperimentOutput(
        "fig3", rendered, {"skews": list(skews), "series": series}
    )


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------

def fig4_experiment(
    buffer_sizes: Sequence[int] = FIGURE4_BUFFERS,
    fill_factor: float = 0.8,
    write_multiplier: float = 30.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """Figure 4: MDC write amplification vs sort-buffer size on the
    80-20 Zipfian distribution."""
    run = runner or run_simulation
    wamps = []
    for size in buffer_sizes:
        cfg = _standard_config(fill_factor, size)
        wl = ZipfianWorkload.eighty_twenty(cfg.user_pages, seed=seed)
        sim = run(cfg, "mdc", wl, write_multiplier=write_multiplier)
        wamps.append(sim.wamp)
    rendered = format_series(
        "buffer(segments)",
        list(buffer_sizes),
        {"mdc": wamps},
        title="Figure 4: cleaning impact of sort buffer size "
        "(80-20 Zipfian, F=%.1f)" % fill_factor,
    )
    return ExperimentOutput(
        "fig4", rendered, {"buffers": list(buffer_sizes), "wamp": wamps}
    )


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------

def fig5_experiment(
    dist: str,
    fills: Sequence[float] = FIGURE5_FILLS,
    policies: Sequence[str] = tuple(FIGURE5_POLICIES),
    write_multiplier: float = 25.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """Figure 5(a/b/c): write amplification vs fill factor for all
    seven cleaning algorithms under one distribution.

    An extra ``opt-bound`` series extends the paper: the analytic
    k-population separation lower bound of
    :func:`repro.analysis.distribution_opt_wamp` evaluated on the same
    distribution (the Figure 3 "opt" generalized beyond hot-cold).
    Simulated values with a large sort buffer can dip slightly below it
    because RAM absorption of hot rewrites is outside the model.
    """
    from repro.analysis import distribution_opt_wamp

    run = runner or run_simulation
    series: Dict[str, List[float]] = {name: [] for name in policies}
    series["opt-bound"] = []
    for f in fills:
        for name in policies:
            cfg = _standard_config(f, DEFAULT_SORT_BUFFER)
            wl = make_workload(dist, cfg.user_pages, seed)
            sim = run(cfg, name, wl, write_multiplier=write_multiplier)
            series[name].append(sim.wamp)
        reference = make_workload(
            dist, _standard_config(f, 0).user_pages, seed
        )
        series["opt-bound"].append(
            distribution_opt_wamp(reference.frequencies(), f, k=16)
        )
    rendered = format_series(
        "fill factor",
        list(fills),
        series,
        title="Figure 5 (%s): write amplification vs fill factor" % dist,
    )
    return ExperimentOutput(
        "fig5-%s" % dist,
        rendered,
        {"dist": dist, "fills": list(fills), "series": series},
    )


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------

def fig6_experiment(
    fills: Sequence[float] = FIGURE6_FILLS,
    policies: Sequence[str] = tuple(FIGURE5_POLICIES),
    scale: Optional[TpccScale] = None,
    measure_fraction: float = 0.75,
    seed: int = 0,
) -> ExperimentOutput:
    """Figure 6: write amplification on TPC-C traces vs fill factor.

    Traces are generated once per fill factor by running TPC-C on the
    B+-tree engine until the fill grows by 0.1 (the paper's procedure),
    then replayed once per policy.
    """
    series: Dict[str, List[float]] = {name: [] for name in policies}
    trace_meta = []
    for f in fills:
        trace = generate_tpcc_trace(f, scale=scale, seed=seed)
        trace_meta.append(
            {
                "fill": f,
                "final_fill": trace.final_fill,
                "writes": len(trace.workload),
                "transactions": trace.transactions,
            }
        )
        for name in policies:
            sort_buffer = DEFAULT_SORT_BUFFER if name.startswith("mdc") else 0
            cfg = trace.store_config(
                segment_units=32, sort_buffer_segments=sort_buffer
            )
            trace.workload.reset()
            sim = run_simulation(
                cfg,
                name,
                trace.workload,
                total_writes=len(trace.workload),
                measure_fraction=measure_fraction,
            )
            series[name].append(sim.wamp)
    rendered = format_series(
        "fill factor",
        list(fills),
        series,
        title="Figure 6: write amplification on TPC-C traces "
        "(B+-tree engine, scaled)",
    )
    return ExperimentOutput(
        "fig6",
        rendered,
        {"fills": list(fills), "series": series, "traces": trace_meta},
    )


# ----------------------------------------------------------------------
# Ablations (DESIGN.md "key design decisions")
# ----------------------------------------------------------------------

def ablation_estimator_experiment(
    dist: str = "zipf-80-20",
    fill_factor: float = 0.8,
    write_multiplier: float = 30.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """Section 4.3 ablation: the two-interval up2 estimator vs the
    single-interval up1 estimator vs the exact oracle."""
    run = runner or run_simulation
    wamps = {}
    for name in ("mdc-up1", "mdc", "mdc-opt"):
        cfg = _standard_config(fill_factor, DEFAULT_SORT_BUFFER)
        wl = make_workload(dist, cfg.user_pages, seed)
        sim = run(cfg, name, wl, write_multiplier=write_multiplier)
        wamps[name] = sim.wamp
    rendered = format_table(
        ["estimator", "Wamp"],
        [
            ("up1 (single interval)", wamps["mdc-up1"]),
            ("up2 (two intervals)", wamps["mdc"]),
            ("exact (oracle)", wamps["mdc-opt"]),
        ],
        title="Ablation: update-frequency estimator (%s, F=%.1f)"
        % (dist, fill_factor),
    )
    return ExperimentOutput("ablation-estimator", rendered, {"wamp": wamps})


def ablation_batch_experiment(
    batches: Sequence[int] = (1, 4, 16, 64),
    dist: str = "zipf-80-20",
    fill_factor: float = 0.8,
    write_multiplier: float = 30.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """Section 6.1.1 ablation: cleaning-batch size (batching amortizes
    policy evaluation and enables GC-write separation)."""
    run = runner or run_simulation
    wamps = []
    for batch in batches:
        cfg = StoreConfig(
            n_segments=512, segment_units=64, fill_factor=fill_factor,
            clean_trigger=4, clean_batch=batch,
            sort_buffer_segments=DEFAULT_SORT_BUFFER,
        )
        wl = make_workload(dist, cfg.user_pages, seed)
        sim = run(cfg, "mdc", wl, write_multiplier=write_multiplier)
        wamps.append(sim.wamp)
    rendered = format_series(
        "clean batch",
        list(batches),
        {"mdc": wamps},
        title="Ablation: cleaning batch size (%s, F=%.1f)" % (dist, fill_factor),
    )
    return ExperimentOutput(
        "ablation-batch", rendered, {"batches": list(batches), "wamp": wamps}
    )


# ----------------------------------------------------------------------
# Demo grid (sweep smoke test)
# ----------------------------------------------------------------------

def demo_experiment(
    skews: Sequence[int] = (60, 90),
    policies: Sequence[str] = ("greedy", "mdc"),
    fill_factor: float = 0.75,
    write_multiplier: float = 4.0,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> ExperimentOutput:
    """A deliberately tiny hot-cold grid (64 segments of 8 units, a few
    thousand writes per point) that finishes in well under a second.

    Not from the paper — it exists so the sweep orchestrator, its tests,
    and ``examples/sweep_quickstart.py`` have a grid whose full
    run/kill/resume cycle costs milliseconds.
    """
    run = runner or run_simulation
    series: Dict[str, List[float]] = {name: [] for name in policies}
    for m in skews:
        for name in policies:
            cfg = StoreConfig(
                n_segments=64, segment_units=8, fill_factor=fill_factor,
                clean_trigger=2, clean_batch=2,
            )
            wl = HotColdWorkload.from_skew(cfg.user_pages, m, seed=seed)
            sim = run(cfg, name, wl, write_multiplier=write_multiplier)
            series[name].append(sim.wamp)
    x_labels = ["%d-%d" % (m, 100 - m) for m in skews]
    rendered = format_series(
        "skewness",
        x_labels,
        series,
        title="Demo grid: write amplification vs hot-cold skew "
        "(tiny device, F=%.2f)" % fill_factor,
    )
    return ExperimentOutput(
        "demo", rendered, {"skews": list(skews), "series": series}
    )
