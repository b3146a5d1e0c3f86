"""The command-line interface."""

import dataclasses

import pytest

from repro.bench.sweep import SWEEP_GRIDS
from repro.cli import main
from repro.policies import available_policies


def patch_backend(monkeypatch, func, fake):
    """Swap the experiment function a CLI command ends up calling: the
    serial commands take theirs from ``SWEEP_GRIDS``, fig6 by name."""
    import repro.cli as cli

    for name, grid in SWEEP_GRIDS.items():
        if grid.experiment.__name__ == func:
            monkeypatch.setitem(
                SWEEP_GRIDS, name, dataclasses.replace(grid, experiment=fake)
            )
            return
    monkeypatch.setattr(cli, func, fake)


class TestCli:
    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == available_policies()

    def test_simulate_prints_summary(self, capsys):
        code = main(
            [
                "simulate", "--policy", "greedy", "--dist", "uniform",
                "--fill", "0.6", "--multiplier", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out
        assert "Wamp" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv,func",
        [
            (["table1"], "table1_experiment"),
            (["table2", "--quick"], "table2_experiment"),
            (["fig3"], "fig3_experiment"),
            (["fig4", "--quick"], "fig4_experiment"),
            (["fig5", "--dist", "uniform"], "fig5_experiment"),
            (["fig6", "--warehouses", "2"], "fig6_experiment"),
        ],
    )
    def test_experiment_commands_invoke_backend(self, argv, func, capsys, monkeypatch):
        calls = {}

        def fake(*args, **kwargs):
            calls["args"] = args
            calls["kwargs"] = kwargs
            return "RENDERED-%s" % func

        patch_backend(monkeypatch, func, fake)
        assert main(argv) == 0
        assert "RENDERED-%s" % func in capsys.readouterr().out
        if argv[0] != "fig6":
            # The base multiplier is the grid's; --quick quarters it.
            base = SWEEP_GRIDS[argv[0]].base_multiplier
            quick = "--quick" in argv
            assert calls["kwargs"]["write_multiplier"] == (
                base / 4.0 if quick else base
            )
        if argv[0] == "fig5":
            assert calls["kwargs"]["dist"] == "uniform"
        if argv[0] == "fig6":
            assert calls["kwargs"]["scale"].warehouses == 2

    def test_ablation_invokes_both_backends(self, capsys, monkeypatch):
        patch_backend(
            monkeypatch, "ablation_estimator_experiment", lambda **k: "EST"
        )
        patch_backend(
            monkeypatch, "ablation_batch_experiment", lambda **k: "BATCH"
        )
        assert main(["ablation"]) == 0
        assert capsys.readouterr().out == "EST\n\nBATCH\n"

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "fifo"])

    def test_fig5_rejects_unknown_dist(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--dist", "pareto"])

    def test_fig5_fills_flag_reaches_the_experiment(self, capsys, monkeypatch):
        calls = {}
        patch_backend(
            monkeypatch, "fig5_experiment", lambda **k: calls.update(k) or "R"
        )
        assert main(["fig5", "--fills", "0.5,0.8"]) == 0
        assert calls["fills"] == (0.5, 0.8)
        assert calls["dist"] == "zipf-80-20"
        capsys.readouterr()

    def test_seed_flag_reaches_the_experiment(self, capsys, monkeypatch):
        calls = {}

        def fake(*args, **kwargs):
            calls["kwargs"] = kwargs
            return "RENDERED"

        patch_backend(monkeypatch, "fig4_experiment", fake)
        assert main(["fig4", "--seed", "7"]) == 0
        assert calls["kwargs"]["seed"] == 7
        capsys.readouterr()


class TestSweepCli:
    def test_sweep_demo_end_to_end(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["sweep", "demo", "--workers", "2", "--out", out]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Demo grid" in printed
        assert "4 jobs (4 run, 0 resumed)" in printed
        assert (tmp_path / "run" / "manifest.jsonl").exists()
        assert (tmp_path / "run" / "summary.json").exists()

        # Re-invoking with --resume executes nothing but prints the same
        # table from the journaled results.
        code = main(
            [
                "sweep", "demo", "--workers", "2", "--out", out,
                "--resume",
            ]
        )
        assert code == 0
        resumed = capsys.readouterr().out
        assert "4 jobs (0 run, 4 resumed)" in resumed
        assert resumed.split("\nsweep demo:")[0] == (
            printed.split("\nsweep demo:")[0]
        )

    def test_sweep_refuses_existing_dir_without_resume(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        assert main(["sweep", "demo", "--out", out]) == 0
        capsys.readouterr()
        assert main(["sweep", "demo", "--out", out]) == 1
        assert "resume" in capsys.readouterr().err

    def test_sweep_metrics_out_writes_the_serial_rows(self, capsys, tmp_path):
        from repro.bench.experiments import demo_experiment
        from repro.bench.runner import observed_runner

        metrics = tmp_path / "swept.jsonl"
        argv = ["sweep", "demo", "--quick", "--workers", "2",
                "--out", str(tmp_path / "run"), "--metrics-out", str(metrics)]
        assert main(argv) == 0
        assert "observability rows written to" in capsys.readouterr().out
        serial = tmp_path / "serial.jsonl"
        demo_experiment(
            write_multiplier=1.0, runner=observed_runner(str(serial))
        )
        assert metrics.read_bytes() == serial.read_bytes()

    def test_sweep_rejects_unknown_grid(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig7"])

    def test_sweep_seed_changes_the_grid(self, capsys, tmp_path):
        out = str(tmp_path / "run")
        args = ["sweep", "demo", "--out", out]
        assert main(args) == 0
        capsys.readouterr()
        # Same directory, different seed: a different grid, refused.
        assert main(args + ["--resume", "--seed", "1"]) == 1
        assert "grid" in capsys.readouterr().err
