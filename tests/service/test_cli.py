"""The service CLI surface: serve, loadgen (``bench latency`` is driven
by ``TestCommand`` in ``tests/service/test_latency.py``)."""

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
        assert "writes/sec" in out
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


class TestLoadgenRoundtrip:
    def test_loadgen_then_serve_from(self, tmp_path, capsys):
        trace = tmp_path / "ops.jsonl"
        assert main(["loadgen", str(trace), *QUICK]) == 0
        out = capsys.readouterr().out
        assert "2500 ops" in out
        assert trace.exists()
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            ["serve", "--from", str(trace), "--metrics-out", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 2500 ops" in out
        assert metrics.exists()

    def test_serve_from_matches_generated(self, tmp_path, capsys):
        trace = tmp_path / "ops.jsonl"
        assert main(["loadgen", str(trace), *QUICK, "--seed", "3"]) == 0
        live, replay = tmp_path / "live.jsonl", tmp_path / "replay.jsonl"
        assert main(
            ["serve", *QUICK, "--seed", "3", "--metrics-out", str(live)]
        ) == 0
        assert main(
            ["serve", "--from", str(trace), "--metrics-out", str(replay)]
        ) == 0
        assert live.read_bytes() == replay.read_bytes()

    def test_serve_from_missing_file_errors(self, tmp_path, capsys):
        assert main(
            ["serve", "--from", str(tmp_path / "nope.jsonl")]
        ) == 1
        assert "serve error" in capsys.readouterr().err

    def test_serve_bad_config_is_an_error_not_a_traceback(self, capsys):
        assert main(["serve", "--quick", "--tick-every", "0"]) == 1
        assert "serve error: tick_every must be >= 1" in capsys.readouterr().err
