"""The benchmark registry's contract, over every registered kind.

One suite instead of a copy per harness: whatever a kind is, its run is
a pure function of its parameters, its declaration agrees with its
committed report, with the matrix and with the generated ``repro bench
<kind>`` command — and a kind this file registers itself must work
everywhere without any other module knowing its name.
"""

import json
import pathlib

import pytest

from repro.bench.registry import (
    REGISTRY,
    BaselineMismatch,
    Benchmark,
    load_report,
    register,
    write_report,
)
from repro.cli import _bench_values, build_parser, main
from repro.matrix.config import expand_experiment, parse_config

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Per kind: flags of a run small enough for tier-1.
TINY = {
    "latency": ["--quick", "--ops", "4000"],
    "sweep": ["--grid", "demo", "--workers", "2"],
}

KINDS = sorted(REGISTRY)


def tiny_params(kind):
    """``TINY[kind]`` as the keyword arguments of ``Benchmark.run``."""
    args = build_parser().parse_args(["bench", kind, *TINY[kind]])
    return _bench_values(REGISTRY[kind], args)


def test_every_kind_has_a_tiny_shape():
    assert sorted(TINY) == KINDS


@pytest.mark.parametrize(
    "kind", [k for k in KINDS if REGISTRY[k].baseline is not None]
)
def test_committed_baseline_reproduces(kind, tmp_path):
    """The service-stack counterpart of ``test_golden_digests.py``:
    the committed report's own shape and seed regenerate the file byte
    for byte (TESTING.md says when to re-record it)."""
    bench = REGISTRY[kind]
    committed = ROOT / bench.baseline
    baseline = bench.load_baseline(str(committed))
    shape = {k: baseline[k] for k in bench.params if k in baseline}
    report = bench.run(seed=baseline["seed"], **shape)
    assert bench.check(report, baseline, None) == []
    out = tmp_path / "report.json"
    write_report(report, str(out))
    assert out.read_bytes() == committed.read_bytes()


@pytest.mark.parametrize("kind", KINDS)
class TestDeclaration:
    def test_run_is_a_pure_function_of_its_parameters(self, kind):
        bench = REGISTRY[kind]
        tiny = tiny_params(kind)
        assert bench.run(seed=3, **tiny) == bench.run(seed=3, **tiny)

    def test_matrix_and_cli_share_the_declared_defaults(self, kind):
        bench = REGISTRY[kind]
        config = parse_config(
            {"name": "t", "experiments": [{"name": "e", "kind": kind}]}
        )
        (cell,) = expand_experiment(config.experiments[0])
        declared = {k: v for k, v in bench.params.items() if v is not None}
        assert cell == dict(declared, seed=0)
        parser = build_parser()
        args = parser.parse_args(["bench", kind])
        assert _bench_values(bench, args) == dict(bench.params)
        args = parser.parse_args(["bench", kind, "--quick"])
        assert _bench_values(bench, args) == {**bench.params, **bench.quick}
        assert set(bench.quick) <= set(bench.params)

    def test_help_exits_zero(self, kind, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bench", kind, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        for name in REGISTRY[kind].params:
            assert "--" + name.replace("_", "-") in text

    def test_command_writes_report(self, kind, tmp_path, capsys):
        bench = REGISTRY[kind]
        out = tmp_path / "nested" / "report.json"
        code = main(
            ["bench", kind, *TINY[kind], "--seed", "3", "--out", str(out)]
        )
        stdout = capsys.readouterr().out
        report = load_report(str(out))
        assert report["benchmark"] == bench.family
        assert report["seed"] == 3
        # (First line only: the file sorts keys, the table need not.)
        assert bench.render(report).splitlines()[0] in stdout
        # The exit status is the kind's own gate on this run.
        assert code == (1 if bench.check(report, None, None) else 0), stdout

    def test_without_out_the_command_writes_nothing(
        self, kind, tmp_path, monkeypatch, capsys
    ):
        """A bare run used to replace the kind's committed report (and
        append to a history file) in the working directory."""
        monkeypatch.chdir(tmp_path)
        main(["bench", kind, *TINY[kind]])
        assert list(tmp_path.iterdir()) == []


class TestGeneratedFlags:
    def test_explicit_flag_beats_quick(self, fake_kind):
        parser = build_parser()
        args = parser.parse_args(["bench", "fake", "--quick"])
        assert _bench_values(fake_kind, args)["n"] == 1
        args = parser.parse_args(["bench", "fake", "--quick", "--n", "123"])
        assert _bench_values(fake_kind, args)["n"] == 123

    def test_check_refuses_another_familys_baseline(self, capsys):
        """Fails before running: BENCH_latency.json is not a sweep
        report, whichever way its numbers would have compared."""
        code = main(
            ["bench", "sweep", *TINY["sweep"],
             "--check", str(ROOT / "BENCH_latency.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "'latency'" in err and "'sweep-pool-identity'" in err

    def test_load_baseline_names_both_families(self):
        with pytest.raises(
            BaselineMismatch, match="latency.*sweep-pool-identity"
        ):
            REGISTRY["sweep"].load_baseline(str(ROOT / "BENCH_latency.json"))


# ----------------------------------------------------------------------
# One more kind is one declaration: this module is the harness.
# ----------------------------------------------------------------------

def run(n, seed=0):
    return {"benchmark": "fake-family", "seed": seed, "n": n, "score": 10 * n}


def render(report):
    return "fake benchmark: n=%d score=%d" % (report["n"], report["score"])


def check(report, baseline=None, tolerance=None):
    problems = []
    if report["n"] > 5:
        problems.append("n=%d is over 5" % report["n"])
    if baseline is not None and report["score"] < baseline["score"]:
        problems.append("score fell below the baseline's")
    return problems


@pytest.fixture
def fake_kind():
    bench = register(Benchmark(
        kind="fake",
        family="fake-family",
        module=__name__,
        help="a kind only this test knows",
        params={"n": 3},
        quick={"n": 1},
        baseline="BENCH_fake.json",
        columns=(("score", "score"),),
        gate="fake-gate",
    ))
    yield bench
    del REGISTRY["fake"]


class TestASixthKind:
    def test_runs_everywhere_with_nothing_else_patched(
        self, fake_kind, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)

        # repro bench fake: runs, renders, writes where --out says.
        assert main(["bench", "fake", "--out", "BENCH_fake.json"]) == 0
        assert "fake benchmark: n=3 score=30" in capsys.readouterr().out
        assert load_report("BENCH_fake.json")["score"] == 30
        assert main(
            ["bench", "fake", "--n", "9", "--check", "BENCH_fake.json"]
        ) == 1
        assert "n=9 is over 5" in capsys.readouterr().err

        # A matrix config: parsed, run as cells, gated.
        config = tmp_path / "fake.json"
        config.write_text(json.dumps({
            "name": "fake-matrix",
            "experiments": [{
                "name": "f",
                "kind": "fake",
                "matrix": {"n": [2, 4]},
                "checks": [
                    {"type": "fake-gate", "name": "ok",
                     "where": {"n": 4}, "file": "BENCH_fake.json"},
                    {"type": "fake-gate", "name": "low",
                     "where": {"n": 2}, "file": "BENCH_fake.json"},
                ],
            }],
        }))
        out = tmp_path / "run"
        code = main(
            ["bench", "run", str(config), "--out", str(out), "--workers", "1"]
        )
        # A failed check fails the run.
        assert code == 1
        assert "gate FAILED: f/low (fake-gate)" in capsys.readouterr().err
        gates = {
            g["name"]: g
            for g in json.loads((out / "gates.json").read_text())["gates"]
        }
        assert gates["ok"]["passed"] and gates["ok"]["observed"] == 40
        # The passing detail prints the declared column.
        assert "score 40" in gates["ok"]["detail"]
        assert not gates["low"]["passed"]
        assert "score fell below" in gates["low"]["detail"]
        assert "advisory" not in gates["low"]
        report_md = (out / "report.md").read_text()
        assert "| f | ok | fake-gate | pass |" in report_md
        assert "| f | low | fake-gate | **FAIL** |" in report_md

    def test_gate_is_rejected_on_other_kinds(self, fake_kind):
        from repro.matrix.config import MatrixConfigError

        with pytest.raises(MatrixConfigError, match="does not apply"):
            parse_config({
                "name": "t",
                "experiments": [{
                    "name": "m", "kind": "latency",
                    "checks": [{"type": "fake-gate"}],
                }],
            })

    def test_unregistered_kind_is_unknown_again(self):
        from repro.matrix.config import MatrixConfigError

        with pytest.raises(MatrixConfigError, match="unknown kind"):
            parse_config(
                {"name": "t", "experiments": [{"name": "f", "kind": "fake"}]}
            )
