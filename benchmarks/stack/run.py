"""The stack benchmark: one command, four workloads, every metric.

    python3 benchmarks/stack/run.py --seed 0

runs each workload in a fresh child process, one at a time, and writes
``benchmarks/stack/out/stack-seed0.json``.  With ``--workload NAME`` it
runs that workload in this process and prints, as the last line, the
one-object summary the gating harness reads (``--trace 0``: the
end-to-end metrics that exist on every workload; ``--trace 1``: the
per-layer metrics).

``--seconds`` sets how much work is measured, not a deadline: op counts
are ``seconds / 40`` of the full counts in ``workloads.py``, so equal
``--seconds`` and ``--seed`` mean identical work and the counts repeat
exactly.  At the default 20 the timed sections of one workload add up
to roughly 20 s on the box the counts were sized on.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

DEFAULT_SECONDS = 20
PLAIN_REPS, LATENCY_REPS, TRACED_REPS = 5, 3, 1
SERVICE_TAIL, STORE_TAIL = 99.9, 90.0


def _import_program() -> None:
    """Put the checkout's own ``src`` first on the path: the program
    measured is the one in this tree, never an installed copy."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit("stack benchmark: no program to measure at %s" % (src / "repro"))
    sys.path.insert(0, str(src))


def _git_sha() -> Optional[str]:
    """HEAD of this checkout, read from ``.git`` directly (an exported
    tree has none, and nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict:
    """What a result must not be compared across silently."""
    import numpy
    from repro.store.kernels import kernel_info

    from calib import CAL_REF_S

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernel_info(),
        "git_sha": _git_sha(),
        "cal_ref_s": CAL_REF_S,
    }


def _summary(values: List[float], unit: str, value: Optional[float] = None) -> Dict:
    """One metric: its value (the median of the per-rep ``values``
    unless a steadier estimate over the same reps is given) and the
    per-rep basis."""
    return {
        "value": statistics.median(values) if value is None else value,
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """All reps of one workload in this process; returns its result."""
    import numpy as np

    from calib import CALL_EXPONENT
    from drive import LATENCY, PLAIN, TRACED, run_rep
    from metrics import BY_NAME
    from trace import SpanRecorder, Spans, layer_metrics
    from workloads import WORKLOADS, ServiceSpec, make_inputs, shard_config

    spec = WORKLOADS[name]
    is_service = isinstance(spec, ServiceSpec)
    inputs = make_inputs(spec, seed, seconds)
    config = shard_config(spec) if is_service else None
    tail = SERVICE_TAIL if is_service else STORE_TAIL

    plain = [run_rep(spec, config, inputs, PLAIN) for _ in range(PLAIN_REPS)]
    # On the raw store the client call is the chunk, so the plain reps
    # already hold its latencies.
    timed = (
        [run_rep(spec, config, inputs, LATENCY) for _ in range(LATENCY_REPS)]
        if is_service
        else []
    )
    reps = plain + timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e: Dict[str, Optional[Dict]] = {}

    def put(metric: str, values: List[float], raw: Optional[List[float]] = None) -> None:
        e2e[metric] = _summary(values, BY_NAME[metric].unit)
        if raw is not None:
            e2e[metric + "_raw"] = _summary(raw, BY_NAME[metric].unit)

    def put_latency(metric: str, kind: str, q: float, exponent: float = 1.0) -> None:
        """Identical inputs make call i the same work in every rep, so
        the per-call median across the reps keeps the program's slow
        calls and drops the box's; the metric is the percentile of
        that.  The per-rep percentiles are kept as its basis."""
        sources = timed or plain
        raw = np.stack([getattr(r, kind + "_lat_raw_s") for r in sources]) * 1e6
        factor = np.stack([getattr(r, kind + "_lat_factor") for r in sources])
        for suffix, lat in (("", raw / factor**exponent), ("_raw", raw)):
            e2e[metric + suffix] = _summary(
                np.percentile(lat, q, axis=1).tolist(),
                BY_NAME[metric].unit,
                float(np.percentile(np.median(lat, axis=0), q)),
            )

    put("setup_s", [r.setup_s for r in reps], [r.setup_raw_s for r in reps])
    put(
        "ops_per_s",
        [r.ops / r.elapsed_s for r in plain],
        [r.ops / r.elapsed_raw_s for r in plain],
    )
    # A service call's median is microseconds of interpreter; the tails,
    # and the raw store's whole write_batch, are bulk work like the totals.
    call = CALL_EXPONENT if is_service else 1.0
    put_latency("write_p50_us", "write", 50, call)
    put_latency("write_tail_us", "write", tail)
    if is_service and spec.get_frac > 0:
        put_latency("get_p50_us", "get", 50, call)
        put_latency("get_p999_us", "get", tail)
    else:
        e2e["get_p50_us"] = e2e["get_p999_us"] = None
    put("wamp", [r.window["gc_writes"] / r.window["user_writes"] for r in reps])
    put(
        "device_pages_per_op",
        [
            (r.window["user_device_writes"] + r.window["gc_writes"]) / r.write_ops
            for r in reps
        ],
    )
    put("peak_rss_mb", [peak_rss_mb])

    per_layer = None
    if trace:
        recorder = SpanRecorder()
        traced = run_rep(spec, config, inputs, TRACED, recorder)
        reps.append(traced)
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / ("%s.spans.jsonl" % name), traced.setup_window[0])
        plain_elapsed = statistics.median(r.elapsed_s for r in plain)
        per_layer = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in layer_metrics(
                traced, Spans(recorder.spans), plain_elapsed
            ).items()
        }

    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    # Identical inputs must give identical counts on every rep.
    for metric in ("wamp", "device_pages_per_op"):
        if e2e[metric]["min"] != e2e[metric]["max"]:
            failed += 1
    put("error_rate", [failed / attempted])

    cal_ms = [c * 1e3 for r in reps for c in r.cals]
    return {
        "workload": name,
        "why": spec.why,
        "seed": seed,
        "seconds": seconds,
        "env": environment(),
        "inputs": {
            "digest": inputs.digest,
            "ops": reps[0].ops,
            "write_ops": reps[0].write_ops,
            "get_ops": reps[0].get_ops,
            "preloaded": len(inputs.preload) if is_service else spec.config.user_pages,
        },
        "reps": {
            "plain": PLAIN_REPS,
            "latency": LATENCY_REPS if is_service else 0,
            "traced": TRACED_REPS if trace else 0,
        },
        "tail_percentile": tail,
        "calibration_raw_ms": {
            "median": statistics.median(cal_ms),
            "min": min(cal_ms),
            "max": max(cal_ms),
            "n": len(cal_ms),
        },
        "end_to_end": e2e,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
    }


def render(result: Dict) -> str:
    """Every metric of one workload by name, with its unit."""
    inp = result["inputs"]
    lines = [
        "%s  seed=%d seconds=%g ops=%d digest=%s"
        % (result["workload"], result["seed"], result["seconds"], inp["ops"], inp["digest"][:16]),
        "  calibration kernel raw ms: median %(median).3f min %(min).3f max %(max).3f (n=%(n)d)"
        % result["calibration_raw_ms"],
        "  end-to-end: value [per-rep min .. max] reps",
    ]
    for name, m in result["end_to_end"].items():
        if m is None:
            lines.append("    %-26s null" % name)
        else:
            lines.append(
                "    %-26s %14.6g %-8s [%.6g .. %.6g] n=%d"
                % (name, m["value"], m["unit"], m["min"], m["max"], m["n"])
            )
    if result["per_layer"] is not None:
        lines.append("  per-layer (traced rep):")
        for name, m in result["per_layer"].items():
            lines.append("    %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    return "\n".join(lines)


def harness_line(result: Dict, trace: bool) -> str:
    """The last line of a ``--workload`` run."""
    from metrics import END_TO_END

    if trace:
        metrics = dict(result["per_layer"])
        for name in ("get_p50_us", "get_p999_us"):
            m = result["end_to_end"][name]
            metrics[name] = {"value": m["value"] if m else 0.0, "unit": "us"}
    else:
        metrics = {
            m.name: {
                "value": result["end_to_end"][m.name]["value"],
                "unit": m.unit,
            }
            for m in END_TO_END
            if m.rectangular
        }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_all(seed: int, seconds: float, out: Path) -> int:
    """Each workload in its own child process, sequentially."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        result_file = OUT / ("%s.json" % name)
        result_file.unlink(missing_ok=True)
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "1",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        if not result_file.is_file():
            sys.exit("stack benchmark: %s produced no result" % name)
        results[name] = json.loads(result_file.read_text())
    failed = sum(r["failed"] for r in results.values())
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "schema": "stack-bench/1",
                "seed": seed,
                "seconds": seconds,
                "workloads": results,
            },
            indent=1,
        )
        + "\n"
    )
    print("wrote %s (failed=%d)" % (out, failed))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, help="result file of a full run")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload is None:
        out = args.out or OUT / ("stack-seed%d.json" % args.seed)
        return run_all(args.seed, args.seconds, out)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; one of %s" % (args.workload, ", ".join(WORKLOADS)))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / ("%s.json" % args.workload)).write_text(json.dumps(result, indent=1) + "\n")
    print(render(result))
    print(harness_line(result, bool(args.trace)))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
