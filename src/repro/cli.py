"""Command-line entry point: regenerate any of the paper's experiments.

Usage (installed as ``repro``, or ``python -m repro``):

    repro sweep table1           # Table 1: fixpoint analysis vs simulation
    repro sweep table2           # Table 2: hot/cold minimum cost
    repro sweep fig3             # Figure 3: MDC ablation breakdown
    repro sweep fig4             # Figure 4: sort-buffer sweep
    repro sweep fig5 --dist uniform --fills 0.5,0.8  # Figure 5
    repro sweep ablation-estimator  # also: ablation-batch
    repro sweep fig5 --workers 4 --out runs/fig5 --resume
    repro fig6                   # Figure 6: TPC-C traces (serial)
    repro simulate --policy mdc --dist zipf-80-20 --fill 0.8
    repro bench latency          # the service's flush-stall report
    repro serve --shards 4       # drive the sharded service front-end
    repro obs report D/*.jsonl   # one report over a run's files
    repro policies               # list registered cleaning policies
    repro replay trace.jsonl     # re-run a recorded op trace, verify digest
    repro difftest --ops 10000   # store-vs-oracle differential harness

``repro replay`` replays an operation trace recorded by the testkit
(e.g. a divergence repro saved by the differential harness) and checks
the resulting store state digest against the one recorded in the trace,
so a repro case is self-verifying.  ``repro difftest`` cross-validates
every registered cleaning policy against the dict-based oracle model on
the synthetic workload families (see ``repro.testkit``).

``repro sweep GRID`` runs one of the paper's grids (``repro.bench.sweep``)
over a process pool of ``--workers`` processes, or inline at one, and
prints the grid's table; ``--quick`` shrinks write counts by ~4x
(coarser numbers, same shapes) and ``--seed`` makes a run reproducible.
Without ``--out`` it writes no file.  With ``--out DIR`` each finished
job is journaled to ``DIR/manifest.jsonl``, and a killed sweep
re-invoked with ``--resume`` skips completed jobs and still prints
byte-identical output.  ``--metrics-out`` writes every job's
observability rows to one ``metrics.jsonl``, the same bytes at any
``--workers``.

``repro serve`` runs the sharded service front-end (``repro.service``)
under its deterministic concurrent client harness and reports per-shard
ops and Wamp and the queue depth.  The same seed and parameters
reproduce the same load, report and metrics file byte for byte.  With
``--out DIR`` a run writes ``DIR/metrics.jsonl`` and, when
``--trace-sample`` asks for causal spans, ``DIR/spans.jsonl``; ``repro
obs report`` reads both into one report.

``repro bench latency`` runs ``repro.service.latency``: a seeded,
clock-free report of what foreground flushes waited behind, written only
where ``--out`` says and gated against a committed report with
``--check`` (``BENCH_latency.json`` is that report at the default
shape).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

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


def _fill_factors(text: str) -> Tuple[float, ...]:
    """``--fills 0.5,0.8`` as a tuple of fill factors."""
    return tuple(float(x) for x in text.split(",") if x.strip())


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


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Efficiently Reclaiming "
        "Space in a Log Structured Store' (Lomet & Luo, ICDE 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.bench.sweep import SWEEP_DISTS, sweep_grid_names

    p = sub.add_parser(
        "sweep",
        help="run a paper grid (Tables 1-2, Figures 3-5, the ablations) "
        "over a process pool, with checkpointed resume",
    )
    p.add_argument("grid", choices=sweep_grid_names())
    p.add_argument(
        "--dist", default=None, choices=list(SWEEP_DISTS),
        help="distribution for grids that take one (fig5; default "
        "zipf-80-20)",
    )
    p.add_argument(
        "--fills", default=None, type=_fill_factors, metavar="F1,F2,...",
        help="comma-separated fill factors for grids that take --dist "
        "(default: the paper's grid); e.g. --fills 0.5 for one fill",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: CPU count); 1 runs the jobs "
        "inline",
    )
    p.add_argument(
        "--out", default=None,
        help="output directory for manifest.jsonl, summary.json, and the "
        "rendered table (default: none; nothing is written)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep in --out, skipping journaled "
        "jobs",
    )
    _add_quick(p)
    _add_seed(p)
    p.add_argument(
        "--metrics-out", default=None, metavar="JSONL",
        help="record observability rows (time series, cleaning decisions, "
        "metrics) for every simulation of the grid into one metrics.jsonl "
        "file",
    )
    p.add_argument(
        "--sample-interval", type=int, default=None, metavar="TICKS",
        help="clock ticks between time-series samples (default: a quarter "
        "of the store's user pages); only with --metrics-out",
    )

    p = sub.add_parser("fig6", help="Figure 6: TPC-C trace replay (serial)")
    p.add_argument("--warehouses", type=int, default=1)
    _add_seed(p)

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
        "--out", default=None, metavar="DIR",
        help="write the service + per-shard observability rows to "
        "DIR/metrics.jsonl (schema v3; byte-identical across same-seed "
        "runs) and, with --trace-sample, causal spans to DIR/spans.jsonl; "
        "read both with 'repro obs report'",
    )
    p.add_argument(
        "--sample-interval", type=int, default=None, metavar="TICKS",
        help="store clock ticks between per-shard time-series samples",
    )
    p.add_argument(
        "--trace-sample", type=float, default=None, metavar="FRAC",
        help="record causal spans (Service.put -> IngestQueue.flush_shard "
        "-> LogStructuredKVStore.write_slots -> LogStructuredStore.flush "
        "-> clean), head-sampled at this fraction: decided at each root "
        "span and inherited by all its spans (1 = keep all); needs --out",
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
        help="inspect the files of a run: a metrics.jsonl ('repro sweep "
        "--metrics-out' or 'repro serve --out DIR') and a span file",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "report",
        help="one report over a run's files: per-run lines, the "
        "convergence table (clock vs windowed Wamp) and the flush-stall "
        "attribution of the tail samples to their dominant child span",
    )
    p.add_argument(
        "files", nargs="+", metavar="FILE",
        help="metrics.jsonl and/or span .jsonl files",
    )
    p.add_argument(
        "--min-attribution", type=float, default=None, metavar="FRAC",
        help="exit 1 unless at least this fraction of p99 flush-stall "
        "tail samples is attributed to a concrete child span (input with "
        "no tail sample fails: nothing was examined)",
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
    p.add_argument("file", help="path to a span .jsonl")
    p.add_argument(
        "--out", default=None, metavar="JSON",
        help="output path (default: <file> with a .trace.json suffix)",
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

    if args.command == "fig6":
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
    elif args.command == "replay":
        return _run_replay_command(args)
    elif args.command == "difftest":
        return _run_difftest_command(args)
    return 0


def _obs_label(meta: dict) -> str:
    """Display label of a run block: the service/shard/span-file
    identity for service exports, else policy/workload."""
    component = meta.get("component")
    if component == "service":
        return "service (%s shards, %s)" % (meta.get("shards"), meta.get("policy"))
    if component == "shard":
        return "shard %s/%s (%s)" % (
            meta.get("shard"), meta.get("shards"), meta.get("policy"),
        )
    if component == "trace":
        return "spans (%s, %s)" % (meta.get("policy"), meta.get("workload"))
    return "%s/%s" % (meta.get("policy"), meta.get("workload"))


def _run_obs_command(args: argparse.Namespace) -> int:
    """Dispatch ``repro obs``: report on, validate or export a run's
    files."""
    from repro.obs import load_rows, validate_rows, write_chrome_trace

    if args.obs_command == "report":
        return _run_obs_report(args)
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
    elif args.obs_command == "chrome":
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
    return 0


def _run_obs_report(args: argparse.Namespace) -> int:
    """``repro obs report FILE...``: each row decides its section.
    Meta and metrics rows give one line per run, sample rows the
    convergence table, span rows the flush-stall attribution (the one
    section ``--min-attribution`` gates)."""
    from repro.obs import (
        aggregate_convergence,
        critical_path_report,
        load_rows,
        summarize_rows,
    )

    series = []
    spans = []
    dropped = [0, 0]
    for path in args.files:
        try:
            rows = load_rows(path)
        except (OSError, ValueError) as exc:
            print("obs error: %s" % exc, file=sys.stderr)
            return 1
        summary = summarize_rows(rows)
        print(
            "%s: schema %s, %d runs"
            % (
                path,
                ",".join(str(v) for v in summary["schemas"]) or "-",
                summary["runs"],
            )
        )
        for run in summary["per_run"]:
            wamp = (
                "%.4f" % run["final_wamp_win"]
                if run["final_wamp_win"] is not None
                else "n/a"
            )
            extra = ""
            drops = []
            if run["decisions_dropped"]:
                drops.append("%d dec" % run["decisions_dropped"])
            if run["trees_dropped"]:
                drops.append("%d trees" % run["trees_dropped"])
            if drops:
                extra = " dropped=%s (ring=%s)" % (
                    ", ".join(drops),
                    run["ring_capacity"] or "?",
                )
            elif run["ring_capacity"] is not None:
                extra = " ring=%s" % run["ring_capacity"]
            if run["spans"]:
                extra += " spans=%d" % run["spans"]
            print(
                "  %-40s samples=%-4d decisions=%-5d clock=%-9s Wamp=%s%s"
                % (
                    _obs_label(run["run"]),
                    run["samples"],
                    run["decisions"],
                    run["final_clock"],
                    wamp,
                    extra,
                )
            )
        dropped[0] += summary["decisions_dropped"]
        dropped[1] += summary["trees_dropped"]
        series += [block for block in aggregate_convergence(rows) if block["clock"]]
        # A span row's parent indexes its own file's span rows.
        base = len(spans)
        for row in rows:
            if row.get("type") == "span":
                span = dict(row)
                if span["parent"] >= 0:
                    span["parent"] += base
                spans.append(span)
    if any(dropped):
        print(
            "  capture rings dropped %d decision record(s) and %d span "
            "tree(s) across all runs; retained rows under-count the run "
            "(grow MAX_DECISIONS or CAPACITY, or lower --trace-sample, "
            "to keep more)"
            % tuple(dropped)
        )

    for block in series:
        print("\nconvergence of %s:" % _obs_label(block["run"]))
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

    if not spans and args.min_attribution is None:
        return 0
    report = critical_path_report(spans)
    print(
        "\nflush stalls: %d span(s), %d flush(es), %d stalled, tail p%g >= "
        "%.1f pages -> %d tail sample(s)"
        % (
            report["spans"],
            report["flushes"],
            report["stalled_flushes"],
            100 * report["tail_quantile"],
            report["tail_threshold_pages"],
            report["tail_samples"],
        )
    )
    print(
        "attributed %d/%d tail sample(s) (%.1f%%) to a dominant child span"
        % (
            report["attributed"],
            report["tail_samples"],
            100 * report["attribution_fraction"],
        )
    )
    for cause, count in report["by_cause"].items():
        print("  %-44s %4d sample(s)" % (cause, count))
    for sample in report["samples"]:
        print(
            "  span %-8d stalled %6.1f pages %10.1f us -> %s"
            % (
                sample["span"],
                sample["stall_pages"],
                sample["stall_us"],
                sample["cause"],
            )
        )
    if args.min_attribution is not None:
        if report["tail_samples"] == 0:
            # 0 of 0 is not "all of them": a gate that examined no
            # sample has checked nothing.
            print(
                "critical-path gate examined nothing: the input has no "
                "stalled flush (0 tail samples), so --min-attribution "
                "%.3f is unmet; drive a run that stalls"
                % args.min_attribution,
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
    """Dispatch ``repro serve``: generate load, report, and with
    ``--out`` write the run's files."""
    import os

    from repro.service import RouterError, run_harness

    if args.trace_sample is not None and args.out is None:
        print("serve error: --trace-sample needs --out DIR", file=sys.stderr)
        return 1
    metrics_out = trace_out = None
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        metrics_out = os.path.join(args.out, "metrics.jsonl")
        if args.trace_sample is not None:
            trace_out = os.path.join(args.out, "spans.jsonl")
    # The harness builds its service before it drives the first op, so
    # a shape the config or a constructor refuses ends here, op-free.
    try:
        result = run_harness(
            _harness_config(args),
            metrics_out=metrics_out,
            trace_out=trace_out,
            trace_sample=1.0 if args.trace_sample is None else args.trace_sample,
        )
    except (ValueError, RouterError) as exc:
        print("serve error: %s" % exc, file=sys.stderr)
        return 1
    print(result.report())
    if metrics_out:
        print("observability rows written to %s" % metrics_out)
    if trace_out:
        print("causal spans written to %s" % trace_out)
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
    from repro.bench.sweep import SWEEP_GRIDS, SweepError, parallel_experiment

    if args.resume and args.out is None:
        print("sweep error: --resume needs --out DIR", file=sys.stderr)
        return 1
    try:
        experiment, kwargs, run_name = SWEEP_GRIDS[args.grid].resolve(
            quick=args.quick, seed=args.seed, dist=args.dist,
            fills=args.fills or None,
        )
        report = parallel_experiment(
            experiment,
            workers=args.workers,
            out_dir=args.out,
            resume=args.resume,
            name=run_name,
            metrics_out=args.metrics_out,
            sample_interval=args.sample_interval,
            **kwargs,
        )
    except SweepError as exc:
        print("sweep error: %s" % exc, file=sys.stderr)
        return 1
    print(report.output.rendered)
    s = report.summary
    print(
        "\nsweep %s: %d jobs (%d run, %d resumed) with %d workers%s"
        % (
            s["experiment"],
            s["jobs"],
            s["executed"],
            s["skipped"],
            s["workers"],
            "" if report.out_dir is None else " -> %s" % report.out_dir,
        )
    )
    if args.metrics_out:
        print("observability rows written to %s" % args.metrics_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
