"""Checks of the benchmark itself.  Run explicitly:

    python3 -m pytest benchmarks/stack

(tier-1's ``testpaths`` does not collect this directory).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import compare  # noqa: E402
import drive  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from trace import LAYERS, SpanRecorder, Spans, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
SMOKE_SECONDS = 2  # 0.05 of the full op counts
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- generator -------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    spec = workloads.WORKLOADS[name]
    a = workloads.make_inputs(spec, 3, SMOKE_SECONDS)
    b = workloads.make_inputs(spec, 3, SMOKE_SECONDS)
    c = workloads.make_inputs(spec, 4, SMOKE_SECONDS)
    assert a.digest == b.digest != c.digest
    if isinstance(spec, workloads.StoreSpec):
        assert (a.pages == b.pages).all() and (a.pages != c.pages).any()
    else:
        assert a.ops == b.ops and a.preload == b.preload
        assert a.ops != c.ops


def test_values_identify_their_op():
    assert gen.value_for(7, 3) == b"\x07\x00\x00"
    assert len(gen.value_for(2**40, 96)) == 96
    assert gen.value_for(5, 20) != gen.value_for(6, 20)


def test_zipf_ranks_are_skewed_and_in_range():
    import numpy as np

    ranks = gen.zipf_ranks(np.random.default_rng(0), 1000, 0.99, 50_000)
    assert ranks.min() == 0 and ranks.max() <= 999
    counts = np.bincount(ranks, minlength=1000)
    assert counts[0] > counts[9] > counts[99] > 0


# -- tracing ---------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_rep():
    spec = workloads.WORKLOADS["svc-mixed-read"]
    inputs = workloads.make_inputs(spec, 0, SMOKE_SECONDS)
    config = workloads.shard_config(spec)
    plain = drive.run_rep(spec, config, inputs, drive.PLAIN)
    recorder = SpanRecorder()
    rep = drive.run_rep(spec, config, inputs, drive.TRACED, recorder)
    return plain, rep, recorder


def test_self_times_and_driver_account_for_the_traced_elapsed(traced_rep):
    plain, rep, recorder = traced_rep
    assert rep.failed == 0
    spans = Spans(recorder.spans)
    measured = spans.within(rep.measured_window)
    # The tree arithmetic: self times telescope to the root spans.
    assert spans.layer_self_s(measured).sum() == pytest.approx(
        spans.root_s(measured), rel=1e-9
    )
    m = layer_metrics(rep, spans, plain.elapsed_s)
    # Root spans lie inside the timed chunks, so the driver's share is
    # what the chunks hold besides them; the ring is not consulted.
    shares = sum(m[layer + ".share"][0] for layer in LAYERS if layer != "router")
    assert 0.0 < m["driver.share"][0] < 0.5
    assert shares + m["driver.share"][0] == pytest.approx(1.0, abs=0.01)
    assert spans.layer_calls(measured)[LAYERS.index("router")] == 0
    assert m["router.calls"][0] == len(
        workloads.make_inputs(
            workloads.WORKLOADS["svc-mixed-read"], 0, SMOKE_SECONDS
        ).preload
    )


def test_wrappers_are_removed(traced_rep):
    _, _, recorder = traced_rep
    assert recorder.installed == []
    svc = workloads.build_service(
        workloads.shard_config(workloads.WORKLOADS["svc-ingest-zipf"])
    )
    fresh = SpanRecorder()
    fresh.install_service(svc)
    store = svc.pool.shards[0].store
    assert "put" in vars(svc) and "write_batch" in vars(store)
    svc.put(1, b"x", "t0")
    svc.flush()
    assert len(fresh.spans) > 2
    fresh.remove()
    for obj in (svc, svc.queue, svc.pool, svc.router, store, store.policy):
        assert not any(callable(v) and v.__name__ == "wrapper" for v in vars(obj).values())
    before = len(fresh.spans)
    svc.put(2, b"y", "t0")
    assert len(fresh.spans) == before


# -- the command -----------------------------------------------------------


def _full_run(tmp_path_factory, tag):
    out = tmp_path_factory.mktemp("stack") / ("%s.json" % tag)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0",
         "--seconds", str(SMOKE_SECONDS), "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    return _full_run(tmp_path_factory, "a"), _full_run(tmp_path_factory, "b")


def test_smoke_run_emits_every_named_metric_with_a_unit(smoke_runs):
    (doc, stdout), _ = smoke_runs
    assert list(doc["workloads"]) == [w["name"] for w in MANIFEST["workloads"]]
    layer_names = [m["name"] for m in MANIFEST["per_layer"]]
    for name, result in doc["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] > 0
        for metric in metrics.END_TO_END:
            m = result["end_to_end"][metric.name]
            if metric.rectangular:
                assert m["unit"] == metric.unit and m["n"] >= 1
            assert "    %s " % metric.name in stdout
        for layer_name in layer_names:
            if layer_name in result["per_layer"]:
                assert result["per_layer"][layer_name]["unit"]
            else:  # the get latencies live with the end-to-end metrics
                assert layer_name in result["end_to_end"]
        for key in ("cpu_count", "python", "numpy", "kernels", "git_sha", "cal_ref_s"):
            assert key in result["env"]
        assert result["reps"] == {
            "plain": 5, "latency": 0 if name == "sim-mdc-zipf" else 3, "traced": 1,
        }
        assert len(result["inputs"]["digest"]) == 64
        assert result["calibration_raw_ms"]["min"] > 0


def test_counts_repeat_exactly(smoke_runs):
    (a, _), (b, _) = smoke_runs
    for name in a["workloads"]:
        ea, eb = a["workloads"][name]["end_to_end"], b["workloads"][name]["end_to_end"]
        assert a["workloads"][name]["inputs"] == b["workloads"][name]["inputs"]
        for metric in ("wamp", "device_pages_per_op", "error_rate"):
            assert ea[metric]["values"] == eb[metric]["values"]
            assert len(set(ea[metric]["values"])) == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_harness_line_matches_the_manifest(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "svc-mixed-read",
         "--seed", "1", "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert proc.returncode == 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_manifest_agrees_with_the_benchmark():
    assert MANIFEST["paths"] == ["benchmarks/stack"]
    assert MANIFEST["run_seconds"] == run.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        name: spec.why for name, spec in workloads.WORKLOADS.items()
    }
    declared = {m["name"]: m for m in MANIFEST["end_to_end"]}
    assert list(declared) == [m.name for m in metrics.END_TO_END if m.rectangular]
    for name, m in declared.items():
        ours = metrics.BY_NAME[name]
        assert (m["unit"], m["better"], m["bound"]) == (ours.unit, ours.better, ours.harness_bound)


# -- compare.py ------------------------------------------------------------


def _m(values):
    values = sorted(values)
    return {"value": values[len(values) // 2], "n": len(values), "values": values}


def test_compare_verdicts():
    ops = metrics.BY_NAME["ops_per_s"]  # higher is better, bound 10 %
    steady = _m([100, 101, 102, 103, 104])
    assert compare.verdict(ops, steady, _m([98, 99, 100, 101, 102]))[0] == compare.OK
    assert compare.verdict(ops, steady, _m([84, 85, 86, 87, 88]))[0] == compare.WORSE
    assert compare.verdict(ops, steady, _m([120, 121, 122, 123, 124]))[0] == compare.OK
    noisy = _m([70, 80, 100, 120, 130])
    assert compare.verdict(ops, steady, noisy)[0] == compare.UNRESOLVED
    errors = metrics.BY_NAME["error_rate"]
    assert compare.verdict(errors, _m([0.0]), _m([0.0]))[0] == compare.OK
    assert compare.verdict(errors, _m([0.0]), _m([1e-6]))[0] == compare.WORSE


def test_compare_exits_non_zero_on_worse(smoke_runs, tmp_path):
    (a, _), _ = smoke_runs
    worse = json.loads(json.dumps(a))
    m = worse["workloads"]["sim-mdc-zipf"]["end_to_end"]["wamp"]
    m["value"] *= 1.5
    m["values"] = [v * 1.5 for v in m["values"]]
    paths = []
    for tag, doc in (("a", a), ("b", worse)):
        paths.append(str(tmp_path / (tag + ".json")))
        Path(paths[-1]).write_text(json.dumps(doc))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    # Sets of runs: the verdict is over the runs' values.
    assert compare.main([paths[0], paths[0], "--", paths[0], paths[0]]) == 0
    assert compare.main([paths[0], paths[0], "--", paths[1], paths[1]]) == 1
