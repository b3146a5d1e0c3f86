"""The store microbenchmark harness (``repro bench micro``).

Runs are tiny here — these tests pin the report contract (structure,
rendering, baseline checking, JSON round-trip), not the performance
numbers themselves; the committed ``BENCH_store.json`` carries those.
"""

import pathlib

import numpy as np
import pytest

from repro.bench.history import append_entry, load_history
from repro.bench.micro import (
    check as check_against_baseline,
    headline,
    micro_workload,
    render,
)
from repro.bench.registry import REGISTRY, load_report, write_report

#: The three synthetic update streams the paper's experiments use.
MICRO_WORKLOADS = REGISTRY["micro"].params["workloads"]


@pytest.fixture(scope="module")
def tiny_report():
    return REGISTRY["micro"].run(
        writes=2000, trials=1, workloads=("uniform",)
    )


class TestWorkloads:
    @pytest.mark.parametrize("name", MICRO_WORKLOADS)
    def test_streams_are_fixed_seed(self, name):
        a = micro_workload(name, 1000, 500, seed=3)
        b = micro_workload(name, 1000, 500, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int64
        assert a.min() >= 0 and a.max() < 1000

    def test_different_seeds_differ(self):
        a = micro_workload("uniform", 1000, 500, seed=0)
        b = micro_workload("uniform", 1000, 500, seed=1)
        assert not np.array_equal(a, b)

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError):
            micro_workload("bimodal", 1000, 500, seed=0)


class TestReport:
    def test_report_structure(self, tiny_report):
        assert tiny_report["benchmark"] == "store-micro"
        cell = tiny_report["workloads"]["uniform"]
        for path in ("scalar", "batch"):
            stats = cell[path]
            assert stats["wall_s"] > 0
            assert stats["writes_per_sec"] > 0
            assert stats["clean_cycles"] >= 0
            assert "cycle_p50_ms" in stats and "cycle_p95_ms" in stats
        assert cell["speedup"] == pytest.approx(
            cell["batch"]["writes_per_sec"] / cell["scalar"]["writes_per_sec"]
        )

    def test_render_mentions_every_workload(self, tiny_report):
        text = render(tiny_report)
        assert "uniform" in text
        assert "speedup" in text

    def test_roundtrip(self, tiny_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(tiny_report, str(path))
        assert load_report(str(path)) == tiny_report

    def test_batch_and_scalar_do_identical_simulation(self, tiny_report):
        cell = tiny_report["workloads"]["uniform"]
        assert cell["scalar"]["clean_cycles"] == cell["batch"]["clean_cycles"]


class TestBaselineCheck:
    def _report(self, rate):
        return {
            "workloads": {"uniform": {"batch": {"writes_per_sec": rate}}}
        }

    def test_passes_within_tolerance(self):
        base = self._report(100_000.0)
        assert check_against_baseline(self._report(80_000.0), base) == []

    def test_fails_beyond_tolerance(self):
        base = self._report(100_000.0)
        problems = check_against_baseline(self._report(60_000.0), base)
        assert len(problems) == 1
        assert "uniform" in problems[0]

    def test_tolerance_is_configurable(self):
        base = self._report(100_000.0)
        assert check_against_baseline(
            self._report(60_000.0), base, tolerance=0.5
        ) == []

    def test_no_baseline_gates_nothing(self):
        assert check_against_baseline(self._report(1.0), None) == []

    def test_no_shared_workload_is_a_problem(self):
        """A baseline that covers none of the run's workloads must not
        pass vacuously (another family's report looks like this)."""
        (problem,) = check_against_baseline(
            self._report(1.0), {"workloads": {}}
        )
        assert "covers no workload" in problem

    def test_workloads_missing_from_run_are_ignored(self):
        base = {
            "workloads": {
                "uniform": {"batch": {"writes_per_sec": 1.0}},
                "zipfian": {"batch": {"writes_per_sec": 1e12}},
            }
        }
        assert check_against_baseline(self._report(1.0), base) == []


class TestHistory:
    def test_entry_carries_headline_numbers(self, tiny_report):
        entry = headline(tiny_report)
        assert entry["benchmark"] == "store-micro"
        cell = entry["workloads"]["uniform"]
        assert cell["batch"]["writes_per_sec"] == (
            tiny_report["workloads"]["uniform"]["batch"]["writes_per_sec"]
        )
        assert cell["speedup"] == tiny_report["workloads"]["uniform"]["speedup"]

    def test_sha_defaults_to_git_head(self, tiny_report, tmp_path):
        entry = append_entry(headline(tiny_report), str(tmp_path / "h.jsonl"))
        assert entry["sha"]  # repo HEAD, GITHUB_SHA, or "unknown"

    def test_append_and_load_round_trip(self, tiny_report, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        row = headline(tiny_report)
        first = append_entry(dict(row, sha="one"), str(path))
        second = append_entry(dict(row, sha="two"), str(path))
        entries = load_history(str(path))
        assert entries == [first, second]
        assert [e["sha"] for e in entries] == ["one", "two"]

    def test_load_missing_history_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "none.jsonl")) == []


def test_committed_history_is_well_formed():
    """benchmarks/history.jsonl (the committed trajectory) stays
    parseable, with every entry keyed by a commit.  The trajectory is
    multi-benchmark (store-micro, service, latency share it), so shape
    checks key off each entry's ``benchmark`` tag."""
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    entries = load_history(str(path / "history.jsonl"))
    assert entries, "the seeded benchmark history must not be empty"
    for entry in entries:
        assert entry["sha"]
        kind = entry.get("benchmark", "store-micro")
        if kind == "store-micro":
            assert entry["workloads"]
        elif kind == "service":
            assert entry["shards"]
        elif kind == "latency":
            assert "flush_stall_p99_pages" in entry


def test_committed_baseline_is_well_formed():
    """BENCH_store.json (the CI baseline) stays loadable and complete."""
    path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_store.json"
    report = load_report(str(path))
    assert set(report["workloads"]) == set(MICRO_WORKLOADS)
    for cell in report["workloads"].values():
        assert cell["batch"]["writes_per_sec"] > cell["scalar"]["writes_per_sec"]
