"""The sweep-pool identity benchmark and its gate.

The gate logic is tested as a pure function over fabricated reports;
one smoke run on the demo grid (milliseconds per job) pins the report
contract end to end.
"""

import json

import pytest

from repro.bench.registry import REGISTRY
from repro.sweep.bench import check as check_sweep_report, render


def fake_report(effective=4, cpus=4, identical=True):
    return {
        "benchmark": "sweep-pool-identity",
        "grid": "fig5-zipf-80-20",
        "quick": True,
        "seed": 0,
        "jobs": 42,
        "cpu_count": cpus,
        "outputs_identical": identical,
        "pool": {
            "workers_requested": 4,
            "workers_effective": effective,
            "pool_mode": "fork",
            "worker_recycles": 0,
        },
    }


class TestCheckSweepReport:
    def test_good_report_passes(self):
        assert check_sweep_report(fake_report()) == []
        # Identity is absolute: the hardware does not enter.
        assert check_sweep_report(fake_report(effective=1, cpus=1)) == []

    def test_output_mismatch_always_fails(self):
        problems = check_sweep_report(fake_report(identical=False))
        assert any("differs" in p for p in problems)


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

    def test_render_mentions_headline(self, report):
        text = render(report)
        assert "outputs identical: True" in text
        assert "2 workers" in text
