"""The paper's Section 8.1 cross-checks, at test-sized devices.

Analysis and simulation were developed independently in this repository
(closed-form math vs a discrete-event store), so their agreement is a
strong end-to-end correctness signal for both.
"""

import pytest

from repro.analysis import emptiness_fixpoint, opt_wamp, write_amplification
from repro.bench import run_simulation
from repro.store import StoreConfig
from repro.workloads import HotColdWorkload, UniformWorkload


#: How far simulated Wamp may sit from the uniform mean-field closed
#: form, either way (EXPERIMENTS.md: measured 1-2 %, seed noise ~2 %).
WAMP_TOLERANCE = 0.12


def assert_wamp_agrees(simulated, analytical):
    rel = (simulated - analytical) / analytical
    assert abs(rel) <= WAMP_TOLERANCE, (
        "Wamp %.4f vs analytical %.4f (%+.1f%%)"
        % (simulated, analytical, 100 * rel)
    )


class TestUniformFixpoint:
    @pytest.mark.parametrize("fill", [0.5, 0.7, 0.8])
    def test_age_cleaning_matches_equation_4(self, fill):
        cfg = StoreConfig(
            n_segments=512, segment_units=32, fill_factor=fill,
            clean_trigger=2, clean_batch=4,
        ).with_reserve_compensation()
        wl = UniformWorkload(cfg.user_pages, seed=5)
        result = run_simulation(cfg, "age", wl, write_multiplier=10)
        assert result.mean_cleaned_emptiness == pytest.approx(
            emptiness_fixpoint(fill), rel=0.08
        )
        # Equation 3's finite-population fixpoint through Equation 2:
        # exact for age cleaning under uniform updates.
        assert_wamp_agrees(
            result.wamp,
            write_amplification(
                emptiness_fixpoint(fill, n_pages=cfg.user_pages)
            ),
        )

    def test_wamp_disagreement_fails_both_ways(self):
        assert_wamp_agrees(1.6622, 1.6924)
        for analytical, message in (
            (1.9, r"Wamp 1\.6622 vs analytical 1\.9000 \(-12\.5%\)"),
            (1.48, r"Wamp 1\.6622 vs analytical 1\.4800 \(\+12\.3%\)"),
        ):
            with pytest.raises(AssertionError, match=message):
                assert_wamp_agrees(1.6622, analytical)

    def test_wamp_consistent_with_emptiness(self):
        # Equation 2 must hold between the store's own two measurements.
        cfg = StoreConfig(fill_factor=0.8)
        wl = UniformWorkload(cfg.user_pages, seed=5)
        result = run_simulation(cfg, "greedy", wl, write_multiplier=15)
        e = result.mean_cleaned_emptiness
        assert result.wamp == pytest.approx((1 - e) / e, rel=0.06)


class TestHotColdOptimum:
    def test_mdc_opt_approaches_analytic_opt(self):
        cfg = StoreConfig(fill_factor=0.8, sort_buffer_segments=16)
        wl = HotColdWorkload.from_skew(cfg.user_pages, 90, seed=5)
        result = run_simulation(cfg, "mdc-opt", wl, write_multiplier=25)
        assert result.wamp == pytest.approx(opt_wamp(90, 0.8), rel=0.15)

    def test_greedy_cannot_reach_the_optimum(self):
        cfg = StoreConfig(fill_factor=0.8)
        wl = HotColdWorkload.from_skew(cfg.user_pages, 90, seed=5)
        result = run_simulation(cfg, "greedy", wl, write_multiplier=25)
        # Greedy leaves cold segments pinned; the gap to the separated
        # optimum is the headline effect of the paper.
        assert result.wamp > 2.5 * opt_wamp(90, 0.8)


class TestPolicyOrdering:
    def test_skewed_ordering_holds_end_to_end(self):
        wamps = {}
        for name in ("age", "greedy", "mdc"):
            cfg = StoreConfig(fill_factor=0.8, sort_buffer_segments=16)
            wl = HotColdWorkload.from_skew(cfg.user_pages, 90, seed=6)
            wamps[name] = run_simulation(
                cfg, name, wl, write_multiplier=20
            ).wamp
        assert wamps["mdc"] < wamps["greedy"] < wamps["age"]
