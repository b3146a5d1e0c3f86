"""The simulation driver: oracle wiring and measurement windows."""

import pytest

from repro.bench import prepare_store, run_simulation
from repro.store import StoreConfig
from repro.workloads import UniformWorkload


@pytest.fixture
def cfg():
    return StoreConfig(
        n_segments=64, segment_units=16, fill_factor=0.7,
        clean_trigger=3, clean_batch=4,
    )


class TestPrepare:
    def test_loads_population(self, cfg):
        wl = UniformWorkload(cfg.user_pages, seed=0)
        store = prepare_store(cfg, "greedy", wl)
        assert store.live_page_count() == cfg.user_pages

    def test_opt_policies_get_oracle(self, cfg):
        wl = UniformWorkload(cfg.user_pages, seed=0)
        store = prepare_store(cfg, "mdc-opt", wl)
        assert store.pages.oracle_freq[0] == pytest.approx(1.0 / cfg.user_pages)

    def test_non_opt_policies_skip_oracle(self, cfg):
        wl = UniformWorkload(cfg.user_pages, seed=0)
        store = prepare_store(cfg, "mdc", wl)
        assert store.pages.oracle_freq[0] == 0.0


class TestRunSimulation:
    def test_result_fields(self, cfg):
        wl = UniformWorkload(cfg.user_pages, seed=1)
        result = run_simulation(cfg, "greedy", wl, total_writes=5000)
        assert result.policy == "greedy"
        assert result.workload == "UniformWorkload"
        assert result.total_user_writes == cfg.user_pages + 5000
        assert result.wamp > 0.0
        assert 0.0 < result.mean_cleaned_emptiness < 1.0
        assert "greedy" in result.summary()

    def test_window_excludes_warmup(self, cfg):
        wl = UniformWorkload(cfg.user_pages, seed=1)
        result = run_simulation(
            cfg, "greedy", wl, total_writes=8000, measure_fraction=0.25
        )
        assert result.window.user_writes == 2000

    def test_rejects_bad_measure_fraction(self, cfg):
        wl = UniformWorkload(cfg.user_pages, seed=1)
        with pytest.raises(ValueError):
            run_simulation(cfg, "greedy", wl, measure_fraction=0.0)

    def test_multilog_reports_log_count(self, cfg):
        wl = UniformWorkload(cfg.user_pages, seed=1)
        result = run_simulation(cfg, "multi-log", wl, total_writes=5000)
        assert result.extras["n_logs"] >= 1

