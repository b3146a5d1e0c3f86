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
        metrics = tmp_path / "metrics.jsonl"
        code = main(["serve", *QUICK, "--metrics-out", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2500 ops" in out
        assert "Wamp" in out
        assert metrics.exists()

    def test_serve_metrics_validate(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        assert main(
            ["serve", *QUICK, "--metrics-out", str(metrics)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(metrics)]) == 0
        assert "schema valid" in capsys.readouterr().out

    def test_serve_deterministic_across_processes(self, tmp_path, capsys):
        m1, m2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        for path in (m1, m2):
            assert main(
                ["serve", *QUICK, "--seed", "5", "--metrics-out", str(path)]
            ) == 0
        assert m1.read_bytes() == m2.read_bytes()

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
