"""The sweep-pool scaling benchmark and its hardware-conditional gate.

The gate logic is tested as a pure function over fabricated reports;
one smoke run on the demo grid (milliseconds per job) pins the report
contract end to end.
"""

import json

import pytest

from repro.bench.registry import REGISTRY
from repro.sweep.bench import (
    MIN_SPEEDUP_AT_4,
    MIN_SPEEDUP_POOL_OF_1,
    MIN_SPEEDUP_SMALL,
    check as check_sweep_report,
    headline,
    render,
    speedup_floor,
)


def fake_report(speedup=2.5, effective=4, cpus=4, identical=True):
    return {
        "benchmark": "sweep-pool-scaling",
        "grid": "fig5-zipf-80-20",
        "quick": True,
        "seed": 0,
        "jobs": 42,
        "cpu_count": cpus,
        "outputs_identical": identical,
        "serial": {"workers": 1, "wall_clock_s": 50.0, "job_wall_s": 50.0},
        "pool": {
            "workers_requested": 4,
            "workers_effective": effective,
            "pool_mode": "fork",
            "wall_clock_s": 50.0 / speedup if speedup else 0.0,
            "job_wall_s": 50.0,
            "overhead_s": {"spawn": 0.01, "dispatch": 0.01, "drain": 0.01},
            "worker_recycles": 0,
        },
        "speedup_pool_vs_serial": speedup,
    }


class TestSpeedupFloor:
    def test_four_workers_on_four_cores_needs_2x(self):
        assert speedup_floor(4, 4) == MIN_SPEEDUP_AT_4
        assert speedup_floor(8, 16) == MIN_SPEEDUP_AT_4

    def test_pool_of_one_bounds_overhead(self):
        assert speedup_floor(1, 1) == MIN_SPEEDUP_POOL_OF_1

    def test_between_must_not_lose(self):
        assert speedup_floor(2, 2) == MIN_SPEEDUP_SMALL
        assert speedup_floor(4, 2) == MIN_SPEEDUP_SMALL  # few CPUs: no 2x


class TestCheckSweepReport:
    def test_good_report_passes(self):
        assert check_sweep_report(fake_report()) == []

    def test_output_mismatch_always_fails(self):
        problems = check_sweep_report(fake_report(identical=False))
        assert any("differs" in p for p in problems)

    def test_low_speedup_on_multicore_fails(self):
        problems = check_sweep_report(fake_report(speedup=1.4))
        assert any("below the 2.00x floor" in p for p in problems)

    def test_pool_of_one_tolerates_small_overhead(self):
        assert check_sweep_report(
            fake_report(speedup=0.96, effective=1, cpus=1)
        ) == []
        problems = check_sweep_report(
            fake_report(speedup=0.80, effective=1, cpus=1)
        )
        assert any("0.95x floor" in p for p in problems)

    def test_missing_speedup_fails(self):
        report = fake_report()
        report["speedup_pool_vs_serial"] = None
        problems = check_sweep_report(report)
        assert any("n/a" in p for p in problems)


class TestDemoSmoke:
    @pytest.fixture(scope="class")
    def report(self):
        return REGISTRY["sweep"].run(grid="demo", workers=2)

    def test_outputs_identical_and_json_ready(self, report):
        assert report["outputs_identical"] is True
        assert report["pool"]["pool_mode"] != "inline"
        assert report["pool"]["workers_requested"] == 2
        assert report["jobs"] > 0
        assert json.loads(json.dumps(report)) == report

    def test_headline_names_the_floor_tier(self, report):
        """The trajectory row carries the floor that applied and the
        hardware that selected it (ROADMAP item 1's unexercised-tier
        question is answerable from history.jsonl alone)."""
        row = headline(report)
        assert row["benchmark"] == "sweep-pool-scaling"
        assert row["speedup_floor"] == speedup_floor(
            row["pool"]["workers_effective"], row["cpu_count"]
        )
        assert row["outputs_identical"] is True

    def test_render_mentions_headline(self, report):
        text = render(report)
        assert "outputs identical: True" in text
        assert "pool overhead" in text
