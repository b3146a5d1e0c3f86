"""The service CLI surface: serve (``bench latency`` is driven by
``TestCommand`` in ``tests/service/test_latency.py``)."""

import pytest

from repro.cli import main
from repro.service import harness

QUICK = [
    "--quick", "--ops", "2500", "--keys-per-tenant", "192",
    "--tick-every", "128",
]


class TestServe:
    def test_serve_reports_and_exports(self, tmp_path, capsys):
        code = main(["serve", *QUICK, "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2500 ops" in out
        assert "Wamp" in out
        # No --trace-sample: the run directory holds the metrics only.
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "metrics.jsonl"
        ]

    def test_serve_metrics_validate(self, tmp_path, capsys):
        assert main(["serve", *QUICK, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(tmp_path / "metrics.jsonl")]) == 0
        assert "schema valid" in capsys.readouterr().out

    def test_serve_deterministic_across_processes(self, tmp_path, capsys):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        for path in (d1, d2):
            assert main(
                ["serve", *QUICK, "--seed", "5", "--out", str(path)]
            ) == 0
        assert (d1 / "metrics.jsonl").read_bytes() == (
            d2 / "metrics.jsonl"
        ).read_bytes()

    def test_trace_sample_without_out_is_an_error(self, capsys):
        assert main(["serve", *QUICK, "--trace-sample", "1"]) == 1
        assert "--trace-sample needs --out" in capsys.readouterr().err

    def test_serve_bad_config_is_an_error_not_a_traceback(self, capsys):
        assert main(["serve", "--quick", "--tick-every", "0"]) == 1
        assert "serve error: tick_every must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--shards", "0"),
            ("--keys-per-tenant", "0"),
            ("--value-bytes", "0"),
            ("--batch-size", "0"),
            ("--pages-per-step", "0"),
            ("--gc-budget", "0"),
            ("--value-bytes", "100000"),
        ],
    )
    def test_out_of_range_flag_is_refused_before_any_op(
        self, flag, value, capsys, monkeypatch
    ):
        def no_drive(*args, **kwargs):
            raise AssertionError("an op was driven")

        monkeypatch.setattr(harness, "drive", no_drive)
        assert main(["serve", "--quick", "--ops", "2000", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("serve error: ")
        assert captured.out == ""
