"""The hot-path profiling harness (``repro bench profile``).

Tiny runs — these pin the artifact contract (three phases, ranked
cumtime rows, JSON round-trip), not where the time actually goes; the
committed ``benchmarks/results/PROFILE_store.json`` carries that.
"""

import json

import pytest

from repro.bench.profile import render_profile, run_profile, write_profile


@pytest.fixture(scope="module")
def tiny_report():
    return run_profile(n_writes=3000, top=5)


class TestReport:
    def test_covers_the_three_hot_paths(self, tiny_report):
        assert tiny_report["benchmark"] == "store-profile"
        assert set(tiny_report["phases"]) == {
            "write_batch", "clean_step", "rank_columns",
        }
        assert tiny_report["kernel"]["active"] == "python"

    def test_rows_are_ranked_by_cumtime(self, tiny_report):
        for phase, cell in tiny_report["phases"].items():
            assert cell["wall_s"] >= 0
            rows = cell["top"]
            assert 0 < len(rows) <= 5
            cums = [r["cumtime_s"] for r in rows]
            assert cums == sorted(cums, reverse=True)
            for row in rows:
                assert row["ncalls"] >= 1
                assert row["tottime_s"] <= row["cumtime_s"] + 1e-9

    def test_write_phase_profiles_the_write_engine(self, tiny_report):
        rows = tiny_report["phases"]["write_batch"]["top"]
        assert any("write_batch" in r["function"] for r in rows)

    def test_rank_phase_profiles_the_policy(self, tiny_report):
        rows = tiny_report["phases"]["rank_columns"]["top"]
        assert any("rank_columns" in r["function"] for r in rows)


class TestArtifact:
    def test_json_round_trip(self, tiny_report, tmp_path):
        path = tmp_path / "nested" / "PROFILE_store.json"
        write_profile(tiny_report, str(path))
        assert json.loads(path.read_text()) == tiny_report

    def test_render_mentions_every_phase(self, tiny_report):
        text = render_profile(tiny_report)
        for phase in ("write_batch", "clean_step", "rank_columns"):
            assert phase in text
