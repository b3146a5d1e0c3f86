"""The hot-path profiling harness (``repro bench profile``).

Tiny runs — these pin the artifact contract (three phases, ranked
cumtime rows), not where the time actually goes; the committed
``benchmarks/results/PROFILE_store.json`` carries that.  The JSON
round trip through ``repro bench profile`` is
``tests/bench/test_registry.py``'s.
"""

import pytest

from repro.bench.profile import render
from repro.bench.registry import REGISTRY


@pytest.fixture(scope="module")
def tiny_report():
    return REGISTRY["profile"].run(writes=3000, top=5)


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
    def test_render_mentions_every_phase(self, tiny_report):
        text = render(tiny_report)
        for phase in ("write_batch", "clean_step", "rank_columns"):
            assert phase in text
