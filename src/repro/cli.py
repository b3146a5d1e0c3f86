"""Command-line entry point: regenerate any of the paper's experiments.

Usage (installed as ``repro``, or ``python -m repro``):

    repro table1                 # Table 1: fixpoint analysis vs simulation
    repro table2                 # Table 2: hot/cold minimum cost
    repro fig3                   # Figure 3: MDC ablation breakdown
    repro fig4                   # Figure 4: sort-buffer sweep
    repro fig5 --dist zipf-80-20 # Figure 5: policy comparison
    repro fig6                   # Figure 6: TPC-C traces
    repro ablation               # estimator + batch-size ablations
    repro simulate --policy mdc --dist zipf-80-20 --fill 0.8
    repro sweep fig5 --workers 4 --out runs/fig5 --resume
    repro bench latency          # the service's flush-stall report
    repro serve --shards 4       # drive the sharded service front-end
    repro top telemetry.jsonl    # live per-shard dashboard + SLO burn
    repro policies               # list registered cleaning policies
    repro replay trace.jsonl     # re-run a recorded op trace, verify digest
    repro difftest --ops 10000   # store-vs-oracle differential harness

``repro replay`` replays an operation trace recorded by the testkit
(e.g. a divergence repro saved by the differential harness) and checks
the resulting store state digest against the one recorded in the trace,
so a repro case is self-verifying.  ``repro difftest`` cross-validates
every registered cleaning policy against the dict-based oracle model on
the synthetic workload families (see ``repro.testkit``).

Quick variants of the heavy experiments accept ``--quick`` to shrink
write counts by ~4x (coarser numbers, same shapes).  Every experiment
takes ``--seed`` so single runs are reproducible from the command line.

``repro serve`` runs the sharded service front-end (``repro.service``)
under its deterministic concurrent client harness and reports per-shard
ops and Wamp and the queue depth.  The same seed and parameters
reproduce the same load, report and metrics file byte for byte.

``repro bench latency`` runs ``repro.service.latency``: a seeded,
clock-free report of what foreground flushes waited behind, written only
where ``--out`` says and gated against a committed report with
``--check`` (``BENCH_latency.json`` is that report at the default
shape).

``repro sweep`` runs a whole experiment grid over a process pool
(``repro.bench.sweep``): each finished job is journaled to
``<out>/manifest.jsonl``, and a killed sweep re-invoked with
``--resume`` skips completed jobs and still produces byte-identical
aggregated output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import fig6_experiment, run_simulation
from repro.bench.experiments import _standard_config, make_workload
from repro.policies import available_policies
from repro.tpcc import TpccScale


def _add_quick(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick", action="store_true",
        help="~4x fewer writes per point (coarser numbers, same shapes)",
    )


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (same seed + same parameters = same numbers)",
    )


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="JSONL",
        help="record observability rows (time series, cleaning decisions, "
        "events) for every simulation of this experiment into one "
        "metrics.jsonl file",
    )
    parser.add_argument(
        "--sample-interval", type=int, default=None, metavar="TICKS",
        help="clock ticks between time-series samples (default: a quarter "
        "of the store's user pages); only with --metrics-out",
    )


def _add_harness_flags(parser: argparse.ArgumentParser) -> None:
    """The :class:`repro.service.HarnessConfig` flags of ``repro
    serve``."""
    parser.add_argument(
        "--shards", type=int, default=None,
        help="store shards behind the router (default 4)",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="simulated concurrent clients (default 8)",
    )
    parser.add_argument(
        "--tenants", type=int, default=None,
        help="tenants; clients are assigned round-robin (default 4)",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="total client ops (default 200000; --quick: 24000)",
    )
    parser.add_argument(
        "--keys-per-tenant", type=int, default=None,
        help="keyspace size per tenant (default 4096; --quick: 1024)",
    )
    parser.add_argument(
        "--dist", default=None,
        choices=["uniform", "zipf-80-20", "zipf-90-10", "hotcold"],
        help="per-tenant keyspace skew (default zipf-80-20)",
    )
    parser.add_argument(
        "--value-bytes", type=int, default=None,
        help="max value size; sizes draw uniformly from 1..N (default 96)",
    )
    parser.add_argument(
        "--delete-frac", type=float, default=None,
        help="fraction of ops that are deletes (default 0.03)",
    )
    parser.add_argument(
        "--policy", default=None, choices=available_policies(),
        help="per-shard cleaning policy (default mdc)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="ingest flush-on-size threshold in ops (default 256)",
    )
    parser.add_argument(
        "--flush-interval", type=int, default=None,
        help="ticks before flush-on-tick kicks in (default 4)",
    )
    parser.add_argument(
        "--max-depth", type=int, default=None,
        help="queued ops before backpressure flushes (default 4096)",
    )
    parser.add_argument(
        "--tick-every", type=int, default=None,
        help="client ops between service clock ticks (default 512)",
    )
    parser.add_argument(
        "--gc-budget", type=int, default=None,
        help="page relocations per maintenance round, pool-wide "
        "(default: two segments' worth)",
    )
    parser.add_argument(
        "--pages-per-step", type=int, default=None,
        help="relocations per cleaner step in a round a flush waits on "
        "(default 32); an idle round's step takes the budget left",
    )
    _add_quick(parser)
    _add_seed(parser)


def _harness_config(args: argparse.Namespace):
    """Build a :class:`repro.service.HarnessConfig` from parsed flags
    (``--quick`` picks the small base shape; explicit flags override)."""
    from repro.service import HarnessConfig

    base = (
        HarnessConfig.quick(seed=args.seed)
        if args.quick
        else HarnessConfig(seed=args.seed)
    )
    flag_to_field = {
        "shards": "n_shards",
        "clients": "n_clients",
        "tenants": "n_tenants",
        "ops": "ops",
        "keys_per_tenant": "keys_per_tenant",
        "dist": "dist",
        "value_bytes": "value_bytes",
        "delete_frac": "delete_frac",
        "policy": "policy",
        "batch_size": "batch_size",
        "flush_interval": "flush_interval",
        "max_depth": "max_depth",
        "tick_every": "tick_every",
        "gc_budget": "gc_budget",
        "pages_per_step": "pages_per_step",
        "sample_interval": "sample_interval",
    }
    overrides = {}
    for flag, field in flag_to_field.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    return base.scaled(**overrides) if overrides else base


def _experiment_runner(args: argparse.Namespace):
    """The ``runner=`` for an experiment: an observing one when
    ``--metrics-out`` was given, else None (the serial default)."""
    if getattr(args, "metrics_out", None) is None:
        return None
    from repro.bench import observed_runner

    return observed_runner(
        args.metrics_out, sample_interval=args.sample_interval
    )


#: The serial experiment commands: help text and the ``SWEEP_GRIDS``
#: entries each prints, in order.  The grid entry owns the experiment
#: function and the base write multiplier, for the serial and the
#: parallel run alike.
_SERIAL_GRIDS = {
    "table1": ("Table 1: analysis vs simulation", ("table1",)),
    "table2": ("Table 2: hot/cold minimum cost", ("table2",)),
    "fig3": ("Figure 3: MDC ablation breakdown", ("fig3",)),
    "fig4": ("Figure 4: sort-buffer size sweep", ("fig4",)),
    "fig5": ("Figure 5: policy comparison", ("fig5",)),
    "ablation": (
        "estimator and batch-size ablations",
        ("ablation-estimator", "ablation-batch"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Efficiently Reclaiming "
        "Space in a Log Structured Store' (Lomet & Luo, ICDE 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.bench.sweep import SWEEP_DISTS, sweep_grid_names

    for name, (help_text, _) in _SERIAL_GRIDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "fig5":
            p.add_argument("--dist", default="zipf-80-20", choices=SWEEP_DISTS)
            p.add_argument(
                "--fills", default=None, metavar="F1,F2,...",
                help="comma-separated fill factors (default: the paper's "
                "grid); e.g. --fills 0.5 for a single-fill run",
            )
        _add_quick(p)
        _add_seed(p)
        _add_metrics_out(p)
    p = sub.add_parser("fig6", help="Figure 6: TPC-C trace replay")
    p.add_argument("--warehouses", type=int, default=1)
    _add_seed(p)

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid in parallel with checkpointed resume",
    )
    p.add_argument("grid", choices=sweep_grid_names())
    p.add_argument(
        "--dist", default=None, choices=list(SWEEP_DISTS),
        help="distribution for grids that take one (fig5)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: CPU count)",
    )
    p.add_argument(
        "--out", default=None,
        help="output directory for manifest.jsonl, summary.json, and the "
        "rendered table (default: sweep_runs/<grid>)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep, skipping journaled jobs",
    )
    _add_quick(p)
    _add_seed(p)
    _add_metrics_out(p)

    p = sub.add_parser(
        "bench", help="the service's seeded, clock-free benchmark report"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "latency",
        help="tail latency: p99 flush stall against one cleaner step budget",
    )
    p.add_argument(
        "--ops", type=int, default=None,
        help="total client ops (default 200000; --quick: 24000)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the JSON report here (default: nowhere)",
    )
    p.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="gate against a committed latency report; exit 1 on a "
        "violation",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="the harness's quick shape (24000 ops, 1024 keys per tenant)",
    )
    _add_seed(p)

    p = sub.add_parser(
        "serve",
        help="drive the sharded service front-end under the concurrent "
        "client harness",
    )
    _add_harness_flags(p)
    p.add_argument(
        "--metrics-out", default=None, metavar="JSONL",
        help="export the service + per-shard observability rows "
        "(schema v2; byte-identical across same-seed runs)",
    )
    p.add_argument(
        "--sample-interval", type=int, default=None, metavar="TICKS",
        help="store clock ticks between per-shard time-series samples",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="JSONL",
        help="record causal spans (Service.put -> IngestQueue.flush_shard "
        "-> LogStructuredKVStore.write_slots -> LogStructuredStore.flush "
        "-> clean) to this span file; inspect with 'repro obs critical' "
        "or export with 'repro obs chrome'",
    )
    p.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="FRAC",
        help="head-based trace sampling fraction, decided at each root "
        "span and inherited by all its spans (default 1.0 = keep all)",
    )
    p.add_argument(
        "--telemetry-out", default=None, metavar="JSONL",
        help="append one per-tick telemetry row (per-shard Wamp/fill/"
        "queue/stall + SLO burn state) to this file; watch live with "
        "'repro top'",
    )

    p = sub.add_parser("simulate", help="one custom simulation")
    p.add_argument("--policy", default="mdc", choices=available_policies())
    p.add_argument("--dist", default="zipf-80-20")
    p.add_argument("--fill", type=float, default=0.8)
    p.add_argument("--sort-buffer", type=int, default=16)
    p.add_argument("--multiplier", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--report", action="store_true",
        help="print the full store report (occupancy, wear, emptiness "
        "histogram) after the run",
    )

    sub.add_parser("policies", help="list registered cleaning policies")

    p = sub.add_parser(
        "obs",
        help="inspect a metrics.jsonl produced by --metrics-out, or a "
        "span file produced by 'repro serve --trace-out'",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "summarize", help="per-run sample/decision/event counts + final Wamp"
    )
    p.add_argument("file", help="path to a metrics.jsonl")
    p.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    p = obs_sub.add_parser(
        "report", help="per-run convergence table (clock vs windowed Wamp)"
    )
    p.add_argument("file", help="path to a metrics.jsonl")
    p.add_argument(
        "--csv", default=None, metavar="OUT",
        help="also write the sample time-series as CSV",
    )
    p = obs_sub.add_parser("tail", help="print the last N event rows")
    p.add_argument("file", help="path to a metrics.jsonl")
    p.add_argument(
        "-n", type=int, default=20, help="events to show (default 20)"
    )
    p.add_argument(
        "--kind", default=None,
        help="only events of this kind (e.g. clean_cycle)",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="after the initial tail, keep polling the file for new "
        "rows (bounded-backoff polling; ctrl-c to stop)",
    )
    p.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="with --follow: stop after this many idle seconds "
        "(default: follow forever)",
    )
    p = obs_sub.add_parser(
        "validate", help="schema-check a metrics.jsonl; exit 1 on problems"
    )
    p.add_argument("file", help="path to a metrics.jsonl")
    p.add_argument(
        "--require-decisions", action="store_true",
        help="additionally require >=1 cleaning-decision record per run",
    )
    p = obs_sub.add_parser(
        "chrome",
        help="export a span file to Chrome trace-event JSON "
        "(open in Perfetto / chrome://tracing)",
    )
    p.add_argument("file", help="path to a span .jsonl (--trace-out)")
    p.add_argument(
        "--out", default=None, metavar="JSON",
        help="output path (default: <file> with a .trace.json suffix)",
    )
    p = obs_sub.add_parser(
        "critical",
        help="critical-path report: attribute each tail flush-stall "
        "sample to its dominant child span",
    )
    p.add_argument("file", help="path to a span .jsonl (--trace-out)")
    p.add_argument(
        "--quantile", type=float, default=0.99,
        help="tail quantile over nonzero flush stalls (default 0.99)",
    )
    p.add_argument(
        "--min-attribution", type=float, default=None, metavar="FRAC",
        help="exit 1 unless at least this fraction of tail samples "
        "is attributed to a concrete child span (a file with no tail "
        "sample fails: nothing was examined)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a --telemetry-out file: "
        "per-shard Wamp/fill/queue/stall plus SLO burn state",
    )
    p.add_argument("file", help="path to a telemetry .jsonl")
    p.add_argument(
        "--refresh", type=float, default=1.0, metavar="S",
        help="minimum seconds between frame redraws (default 1.0)",
    )
    p.add_argument(
        "--frames", type=int, default=None,
        help="stop after rendering N frames (default: run until ctrl-c)",
    )
    p.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="stop after this many seconds without new rows",
    )
    p.add_argument(
        "--no-clear", action="store_true",
        help="do not clear the screen between frames (scrolling output)",
    )

    p = sub.add_parser(
        "replay",
        help="replay a recorded op trace and verify its state digest",
    )
    p.add_argument("trace", help="path to a trace .jsonl (testkit format)")
    p.add_argument(
        "--upto", type=int, default=None,
        help="replay only the first N ops (skips digest verification)",
    )
    p.add_argument(
        "--no-verify", action="store_true",
        help="do not compare against the digest recorded in the trace",
    )

    p = sub.add_parser(
        "difftest",
        help="differential store-vs-oracle harness over all policies",
    )
    p.add_argument(
        "--policy", action="append", default=None, dest="policies",
        choices=available_policies(),
        help="restrict to one policy (repeatable; default: the "
        "differential line-up)",
    )
    p.add_argument(
        "--workload", action="append", default=None, dest="workloads",
        choices=["uniform", "hotcold", "zipfian"],
        help="restrict to one workload family (repeatable; default: all)",
    )
    p.add_argument(
        "--ops", type=int, default=10_000,
        help="update operations per policy/workload pair (default 10000)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=1_000,
        help="ops between store/oracle equivalence checks",
    )
    p.add_argument(
        "--trim-prob", type=float, default=0.02,
        help="per-op probability of a trim instead of a write",
    )
    p.add_argument(
        "--divergence-dir", default="divergences",
        help="directory for minimized divergence traces (default: "
        "./divergences)",
    )
    _add_seed(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch one subcommand; returns exit code."""
    args = build_parser().parse_args(argv)

    if args.command in _SERIAL_GRIDS:
        return _run_experiment_command(args)
    elif args.command == "fig6":
        print(
            fig6_experiment(
                scale=TpccScale(warehouses=args.warehouses), seed=args.seed
            )
        )
    elif args.command == "sweep":
        return _run_sweep_command(args)
    elif args.command == "bench":
        return _run_bench_command(args)
    elif args.command == "serve":
        return _run_serve_command(args)
    elif args.command == "simulate":
        config = _standard_config(args.fill, args.sort_buffer)
        if args.report:
            from repro.bench import drive, prepare_store
            from repro.obs import StoreObserver
            from repro.store.reporting import describe

            workload = make_workload(args.dist, config.user_pages, args.seed)
            store = prepare_store(config, args.policy, workload)
            # Observe the post-load drive so the report shows the steady
            # -state (windowed) Wamp next to the cumulative one.
            with StoreObserver(store) as observer:
                drive(store, workload, int(args.multiplier * workload.n_pages))
                print(describe(store, window=observer.window()))
        else:
            workload = make_workload(args.dist, config.user_pages, args.seed)
            result = run_simulation(
                config, args.policy, workload, write_multiplier=args.multiplier
            )
            print(result.summary())
    elif args.command == "policies":
        for name in available_policies():
            print(name)
    elif args.command == "obs":
        return _run_obs_command(args)
    elif args.command == "top":
        return _run_top_command(args)
    elif args.command == "replay":
        return _run_replay_command(args)
    elif args.command == "difftest":
        return _run_difftest_command(args)
    return 0


def _run_experiment_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro table1|table2|fig3|fig4|fig5|ablation``: run
    the command's grids serially and print their tables."""
    from repro.bench.sweep import SWEEP_GRIDS

    runner = _experiment_runner(args)  # shared: one merged metrics file
    tables = []
    for name in _SERIAL_GRIDS[args.command][1]:
        experiment, kwargs, _ = SWEEP_GRIDS[name].resolve(
            quick=args.quick, seed=args.seed, dist=getattr(args, "dist", None)
        )
        if getattr(args, "fills", None):
            kwargs["fills"] = tuple(
                float(x) for x in args.fills.split(",") if x.strip()
            )
        tables.append(str(experiment(runner=runner, **kwargs)))
    print("\n\n".join(tables))
    _note_metrics(args)
    return 0


def _note_metrics(args: argparse.Namespace) -> None:
    """Tell the user where --metrics-out landed (no-op without it)."""
    if getattr(args, "metrics_out", None):
        print("observability rows written to %s" % args.metrics_out)


def _obs_label(meta: dict) -> str:
    """Display label of a run block: the service/shard identity for
    service exports, else policy/workload."""
    component = meta.get("component")
    if component == "service":
        return "service (%s shards, %s)" % (meta.get("shards"), meta.get("policy"))
    if component == "shard":
        return "shard %s/%s (%s)" % (
            meta.get("shard"), meta.get("shards"), meta.get("policy"),
        )
    return "%s/%s" % (meta.get("policy"), meta.get("workload"))


def _run_obs_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro obs``: inspect/validate a metrics.jsonl."""
    import json

    from repro.obs import (
        aggregate_convergence,
        load_rows,
        samples_to_csv,
        summarize_rows,
        validate_rows,
    )

    try:
        rows = load_rows(args.file)
    except (OSError, ValueError) as exc:
        print("obs error: %s" % exc, file=sys.stderr)
        return 1

    if args.obs_command == "validate":
        problems = validate_rows(
            rows, require_decisions=args.require_decisions
        )
        if problems:
            for problem in problems:
                print("schema violation: %s" % problem, file=sys.stderr)
            return 1
        runs = sum(1 for r in rows if r.get("type") == "meta")
        print(
            "%s: %d rows across %d runs, schema valid"
            % (args.file, len(rows), runs)
        )
    elif args.obs_command == "summarize":
        summary = summarize_rows(rows)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(
            "%s: schema %d, %d runs"
            % (args.file, summary["schema"], summary["runs"])
        )
        for run in summary["per_run"]:
            label = _obs_label(run["run"])
            wamp = (
                "%.4f" % run["final_wamp_win"]
                if run["final_wamp_win"] is not None
                else "n/a"
            )
            dropped = ""
            if run.get("events_dropped") or run.get("decisions_dropped"):
                dropped = " dropped=%d ev/%d dec (ring=%s)" % (
                    run.get("events_dropped", 0),
                    run.get("decisions_dropped", 0),
                    run.get("ring_capacity", "?"),
                )
            elif run.get("ring_capacity") is not None:
                dropped = " ring=%s" % run["ring_capacity"]
            if run.get("spans"):
                dropped += " spans=%d" % run["spans"]
            print(
                "  %-40s samples=%-4d decisions=%-5d clock=%-9s Wamp=%s%s"
                % (
                    label,
                    run["samples"],
                    run["decisions"],
                    run["final_clock"],
                    wamp,
                    dropped,
                )
            )
        if summary.get("events_dropped") or summary.get("decisions_dropped"):
            print(
                "  capture rings dropped %d event(s) and %d decision "
                "record(s) across all runs; retained events under-count "
                "the run (grow ring_capacity/max_decisions to keep more)"
                % (
                    summary.get("events_dropped", 0),
                    summary.get("decisions_dropped", 0),
                )
            )
    elif args.obs_command == "report":
        series = aggregate_convergence(rows)
        for block in series:
            print("%s:" % _obs_label(block["run"]))
            print(
                "  %10s %10s %12s %8s %8s"
                % ("clock", "wamp_win", "dev_wamp_win", "fill", "free")
            )
            for i in range(len(block["clock"])):
                print(
                    "  %10d %10.4f %12.4f %8.4f %8d"
                    % (
                        block["clock"][i],
                        block["wamp_win"][i],
                        block["device_wamp_win"][i],
                        block["fill"][i],
                        block["free_segments"][i],
                    )
                )
        if args.csv:
            n = samples_to_csv(args.csv, rows)
            print("%d samples written to %s" % (n, args.csv))
    elif args.obs_command == "tail":

        def show(event: dict) -> None:
            extras = {
                k: v
                for k, v in event.items()
                if k not in ("type", "seq", "clock", "kind")
            }
            print(
                "seq=%-6d clock=%-9d %-16s %s"
                % (
                    event["seq"],
                    event["clock"],
                    event["kind"],
                    json.dumps(extras, sort_keys=True),
                )
            )

        def wanted(row: dict) -> bool:
            if row.get("type") != "event":
                return False
            return not args.kind or row.get("kind") == args.kind

        events = [r for r in rows if wanted(r)]
        for event in events[-args.n:]:
            show(event)
        if args.follow:
            from repro.obs import follow_lines

            try:
                for line in follow_lines(
                    args.file,
                    from_start=False,
                    idle_timeout_s=args.idle_timeout,
                ):
                    try:
                        row = json.loads(line)
                    except ValueError:
                        continue
                    if wanted(row):
                        show(row)
            except KeyboardInterrupt:
                pass
    elif args.obs_command == "chrome":
        from repro.obs import write_chrome_trace

        out = args.out or args.file.removesuffix(".jsonl") + ".trace.json"
        span_rows = [r for r in rows if r.get("type") == "span"]
        if not span_rows:
            print("obs error: %s has no span rows" % args.file, file=sys.stderr)
            return 1
        n = write_chrome_trace(out, span_rows)
        print(
            "%d span(s) exported to %s (load in Perfetto via "
            "https://ui.perfetto.dev or chrome://tracing)" % (n, out)
        )
    elif args.obs_command == "critical":
        from repro.obs import critical_path_report

        report = critical_path_report(rows, tail_quantile=args.quantile)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(
                "%s: %d span(s), %d flush(es), %d stalled, tail p%g >= "
                "%.1f pages -> %d tail sample(s)"
                % (
                    args.file,
                    report["spans"],
                    report["flushes"],
                    report["stalled_flushes"],
                    100 * report["tail_quantile"],
                    report["tail_threshold_pages"],
                    report["tail_samples"],
                )
            )
            print(
                "attributed %d/%d tail sample(s) (%.1f%%) to a dominant "
                "child span"
                % (
                    report["attributed"],
                    report["tail_samples"],
                    100 * report["attribution_fraction"],
                )
            )
            for cause, count in report["by_cause"].items():
                print("  %-44s %4d sample(s)" % (cause, count))
        if args.min_attribution is not None:
            if report["tail_samples"] == 0:
                # 0 of 0 is not "all of them": a gate that examined no
                # sample has checked nothing.
                print(
                    "critical-path gate examined nothing: %s has no "
                    "stalled flush (0 tail samples), so --min-attribution "
                    "%.3f is unmet; drive a run that stalls"
                    % (args.file, args.min_attribution),
                    file=sys.stderr,
                )
                return 1
            if report["attribution_fraction"] < args.min_attribution:
                print(
                    "critical-path attribution %.3f below required %.3f"
                    % (report["attribution_fraction"], args.min_attribution),
                    file=sys.stderr,
                )
                return 1
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro serve``: generate load, report."""
    from repro.service import RouterError, run_harness

    # The harness builds its service before it drives the first op, so
    # a shape the config or a constructor refuses ends here, op-free.
    try:
        result = run_harness(
            _harness_config(args),
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            trace_sample=args.trace_sample,
            telemetry_out=args.telemetry_out,
        )
    except (ValueError, RouterError) as exc:
        print("serve error: %s" % exc, file=sys.stderr)
        return 1
    print(result.report())
    if args.metrics_out:
        print("observability rows written to %s" % args.metrics_out)
    if args.trace_out:
        print("causal spans written to %s" % args.trace_out)
    if args.telemetry_out:
        print("telemetry rows written to %s" % args.telemetry_out)
    return 0


def _run_top_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro top``: live dashboard over a telemetry file."""
    from repro.obs import run_top

    frames = run_top(
        args.file,
        refresh_s=args.refresh,
        iterations=args.frames,
        clear=not args.no_clear,
        idle_timeout_s=args.idle_timeout,
    )
    if frames == 0:
        print(
            "no telemetry rows in %s (produce one with "
            "'repro serve --telemetry-out %s')" % (args.file, args.file),
            file=sys.stderr,
        )
        return 1
    return 0


def _run_bench_command(args: argparse.Namespace) -> int:
    """``repro bench latency``: run, render, write, gate."""
    from repro.service import latency

    baseline = None
    if args.check:
        # Before the run: a wrong file should not cost a benchmark.
        try:
            baseline = latency.load_report(args.check)
        except (OSError, ValueError) as exc:
            print(
                "bench latency: cannot gate against %s: %s"
                % (args.check, exc),
                file=sys.stderr,
            )
            return 1
    report = latency.run(ops=args.ops, quick=args.quick, seed=args.seed)
    print(latency.render(report))
    if args.out:
        latency.write_report(report, args.out)
        print("report written to %s" % args.out)
    problems = latency.check(report, baseline)
    for problem in problems:
        print("latency regression: %s" % problem, file=sys.stderr)
    if problems:
        return 1
    if args.check:
        print("no latency regression vs %s" % args.check)
    return 0


def _run_replay_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro replay``: rebuild, re-run, verify the digest."""
    from repro.testkit.trace import OpTrace, TraceError, state_digest

    try:
        trace, end = OpTrace.load(args.trace)
    except (TraceError, OSError) as exc:
        print("replay error: %s" % exc, file=sys.stderr)
        return 1
    store = trace.replay(upto=args.upto)
    digest = state_digest(store)
    stats = store.stats
    print(
        "replayed %d/%d ops: policy=%s clock=%d user_writes=%d gc_writes=%d "
        "Wamp=%.4f"
        % (
            len(trace) if args.upto is None else min(args.upto, len(trace)),
            len(trace),
            trace.policy,
            store.clock,
            stats.user_writes,
            stats.gc_writes,
            stats.write_amplification,
        )
    )
    print("state digest: %s" % digest)
    if end.get("divergence"):
        print("trace records a store/oracle divergence:")
        for problem in end["divergence"]:
            print("  - %s" % problem)
    if args.upto is None and not args.no_verify and "digest" in end:
        if digest != end["digest"]:
            print(
                "DIGEST MISMATCH: trace recorded %s" % end["digest"],
                file=sys.stderr,
            )
            return 1
        print("digest matches the recording (byte-identical replay)")
    return 0


def _run_difftest_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro difftest``: the store-vs-oracle grid."""
    from repro.testkit.differential import (
        DEFAULT_WORKLOADS,
        DivergenceError,
        run_differential_grid,
    )

    workloads = args.workloads if args.workloads else DEFAULT_WORKLOADS
    try:
        outcomes = run_differential_grid(
            policies=args.policies,
            workloads=workloads,
            n_ops=args.ops,
            checkpoint_every=args.checkpoint_every,
            trim_prob=args.trim_prob,
            seed=args.seed,
            divergence_dir=args.divergence_dir,
        )
    except DivergenceError as exc:
        print("difftest FAILED:\n%s" % exc, file=sys.stderr)
        return 1
    for out in outcomes:
        print(
            "%-14s %-18s ops=%-6d checkpoints=%-3d Wamp=%.4f  ok"
            % (out.policy, out.workload, out.n_ops, out.checkpoints, out.wamp)
        )
    print(
        "differential harness: %d policy/workload pairs equivalent to the "
        "oracle" % len(outcomes)
    )
    return 0


def _run_sweep_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro sweep``: run the grid, print the table, report."""
    from repro.bench.sweep import SweepError, run_named_sweep

    out_dir = args.out if args.out is not None else "sweep_runs/%s" % args.grid
    try:
        report = run_named_sweep(
            args.grid,
            workers=args.workers,
            out_dir=out_dir,
            resume=args.resume,
            quick=args.quick,
            seed=args.seed,
            dist=args.dist,
            metrics_out=args.metrics_out,
            sample_interval=args.sample_interval,
        )
    except SweepError as exc:
        print("sweep error: %s" % exc, file=sys.stderr)
        return 1
    print(report.output.rendered)
    s = report.summary
    print(
        "\nsweep %s: %d jobs (%d run, %d resumed) with %d workers -> %s"
        % (
            s["experiment"],
            s["jobs"],
            s["executed"],
            s["skipped"],
            s["workers"],
            report.out_dir,
        )
    )
    _note_metrics(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
