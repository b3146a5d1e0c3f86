"""The service CLI surface: serve (``bench latency`` is driven by
``TestCommand`` in ``tests/service/test_latency.py``)."""

from repro.cli import main

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
