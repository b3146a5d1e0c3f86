"""The benchmark registry's contract, over every registered kind.

One suite instead of a copy per harness: whatever a kind is, its
declaration must agree with its committed baseline, with the matrix and
with the generated ``repro bench <kind>`` command — and a kind this file
registers itself must work everywhere without any other module knowing
its name.
"""

import json
import pathlib

import pytest

from repro.bench.history import load_history
from repro.bench.registry import (
    REGISTRY,
    BaselineMismatch,
    Benchmark,
    load_report,
    register,
)
from repro.cli import _bench_values, build_parser, main
from repro.matrix.cells import dig
from repro.matrix.config import expand_experiment, parse_config

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Per kind: flags of a run small enough for tier-1.
TINY = {
    "micro": ["--writes", "2000", "--trials", "1", "--workloads", "uniform"],
    "service": ["--quick", "--ops", "2500", "--shards", "1,2"],
    "latency": ["--quick", "--ops", "4000"],
    "sweep": ["--grid", "demo", "--workers", "2"],
    "profile": ["--writes", "3000", "--top", "5"],
}

KINDS = sorted(REGISTRY)


def test_every_kind_has_a_tiny_shape():
    assert sorted(TINY) == KINDS


@pytest.mark.parametrize("kind", KINDS)
class TestDeclaration:
    def test_committed_baseline_passes_its_own_check(self, kind):
        bench = REGISTRY[kind]
        baseline = bench.load_baseline(str(ROOT / bench.baseline))
        assert bench.check(baseline, baseline, None) == []
        row = bench.headline(baseline)
        if row is None:
            assert bench.columns == ()
            return
        assert row["benchmark"] == bench.family
        for label, path in bench.columns:
            assert dig(row, path) is not None, label
        # A row is report-shaped: the gate reads it like a report.
        assert bench.check(row, baseline, None) == []

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

    def test_command_writes_report_and_history(self, kind, tmp_path, capsys):
        bench = REGISTRY[kind]
        out = tmp_path / "nested" / "report.json"
        history = tmp_path / "history.jsonl"
        code = main(
            ["bench", kind, *TINY[kind], "--seed", "3",
             "--out", str(out), "--history", str(history)]
        )
        stdout = capsys.readouterr().out
        report = load_report(str(out))
        assert report["benchmark"] == bench.family
        assert report["seed"] == 3
        # (First line only: the file sorts keys, the table need not.)
        assert bench.render(report).splitlines()[0] in stdout
        # The exit status is the kind's own gate on this run.
        assert code == (1 if bench.check(report, None, None) else 0), stdout
        rows = load_history(str(history))
        if bench.headline(report) is None:
            assert rows == []
        else:
            (row,) = rows
            assert row == dict(bench.headline(report), sha=row["sha"])
            assert row["sha"]


class TestGeneratedFlags:
    def test_explicit_flag_beats_quick(self):
        bench = REGISTRY["micro"]
        args = build_parser().parse_args(
            ["bench", "micro", "--quick", "--writes", "123"]
        )
        assert _bench_values(bench, args)["writes"] == 123

    def test_list_flag_rejects_non_numbers(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "service", "--shards", "a,b"])
        assert exit_.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_check_refuses_another_familys_baseline(self, tmp_path, capsys):
        """Fails before running: BENCH_latency.json is not a store
        report, whichever way its numbers would have compared."""
        code = main(
            ["bench", "micro", *TINY["micro"], "--no-history",
             "--check", str(ROOT / "BENCH_latency.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "'latency'" in err and "'store-micro'" in err

    def test_check_does_not_overwrite_the_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "BENCH_store.json"
        baseline.write_text((ROOT / "BENCH_store.json").read_text())
        monkeypatch.chdir(tmp_path)
        main(
            ["bench", "micro", *TINY["micro"], "--no-history",
             "--check", "BENCH_store.json"]
        )
        assert baseline.read_text() == (ROOT / "BENCH_store.json").read_text()

    def test_load_baseline_names_both_families(self):
        with pytest.raises(BaselineMismatch, match="store-micro.*latency"):
            REGISTRY["latency"].load_baseline(str(ROOT / "BENCH_store.json"))


# ----------------------------------------------------------------------
# A sixth kind is one declaration: this module is the harness.
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


def headline(report):
    return {k: report[k] for k in ("benchmark", "seed", "n", "score")}


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
        history = tmp_path / "history.jsonl"

        # repro bench fake: writes the declared default baseline path.
        assert main(["bench", "fake", "--history", str(history)]) == 0
        assert "fake benchmark: n=3 score=30" in capsys.readouterr().out
        assert load_report("BENCH_fake.json")["score"] == 30
        assert main(
            ["bench", "fake", "--n", "9", "--no-history",
             "--check", "BENCH_fake.json"]
        ) == 1
        assert "n=9 is over 5" in capsys.readouterr().err

        # A matrix config: parsed, run as cells, gated, recorded.
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
                     "where": {"n": 2}, "file": "BENCH_fake.json",
                     "advisory": True},
                ],
            }],
            "results": [{"type": "trend"}],
        }))
        out = tmp_path / "run"
        code = main(
            ["bench", "run", str(config), "--out", str(out),
             "--history", str(history), "--workers", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        gates = {
            g["name"]: g
            for g in json.loads((out / "gates.json").read_text())["gates"]
        }
        assert gates["ok"]["passed"] and gates["ok"]["observed"] == 40
        assert not gates["low"]["passed"]
        assert "score fell below" in gates["low"]["detail"]
        rows = [r for r in load_history(str(history))]
        assert [r["score"] for r in rows] == [30, 20, 40]
        assert {r["benchmark"] for r in rows} == {"fake-family"}

        # The trend table shows the declared column, from the matrix
        # report and from `repro bench report`.
        report_md = (out / "report.md").read_text()
        assert "### fake-family (3 entries)" in report_md
        assert "| 40 (+100.0%) |" in report_md
        assert main(["bench", "report", "--history", str(history)]) == 0
        assert "| sha | score |" in capsys.readouterr().out

    def test_gate_is_rejected_on_other_kinds(self, fake_kind):
        from repro.matrix.config import MatrixConfigError

        with pytest.raises(MatrixConfigError, match="does not apply"):
            parse_config({
                "name": "t",
                "experiments": [{
                    "name": "m", "kind": "micro",
                    "checks": [{"type": "fake-gate"}],
                }],
            })

    def test_unregistered_kind_is_unknown_again(self):
        from repro.matrix.config import MatrixConfigError

        with pytest.raises(MatrixConfigError, match="unknown kind"):
            parse_config(
                {"name": "t", "experiments": [{"name": "f", "kind": "fake"}]}
            )
