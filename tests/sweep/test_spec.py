"""Job specs: serialization, digests, and grid expansion."""

import pytest

from repro.bench.experiments import (
    demo_experiment,
    fig3_experiment,
    fig4_experiment,
    fig5_experiment,
    table1_experiment,
)
from repro.store import StoreConfig
from repro.bench.sweep import (
    SWEEP_GRIDS,
    JobSpec,
    SweepError,
    expand_grid,
    grid_digest,
    run_job,
    spec_from_call,
    sweep_grid_names,
    workload_from_spec,
    workload_to_spec,
)
from repro.bench.sweep import result_from_dict, result_to_dict
from repro.workloads import (
    HotColdWorkload,
    TraceWorkload,
    UniformWorkload,
    ZipfianWorkload,
)

TINY = StoreConfig(
    n_segments=64, segment_units=8, fill_factor=0.75,
    clean_trigger=2, clean_batch=2,
)


class TestWorkloadSpecs:
    @pytest.mark.parametrize(
        "workload",
        [
            UniformWorkload(100, seed=3),
            ZipfianWorkload(100, theta=0.99, seed=4),
            ZipfianWorkload.ninety_ten(100, seed=5),
            HotColdWorkload(100, update_fraction=0.9, seed=6),
            HotColdWorkload.from_skew(100, 70, seed=7),
        ],
        ids=["uniform", "zipf-80-20", "zipf-90-10", "hotcold", "hotcold-skew"],
    )
    def test_round_trip_rebuilds_identical_stream(self, workload):
        clone = workload_from_spec(workload_to_spec(workload))
        assert type(clone) is type(workload)
        assert (clone.frequencies() == workload.frequencies()).all()
        assert (next(clone.batches(64)) == next(workload.batches(64))).all()

    def test_trace_workloads_are_rejected(self):
        with pytest.raises(SweepError):
            workload_to_spec(TraceWorkload([1, 2, 3, 2, 1]))


class TestJobSpec:
    def spec(self, policy="greedy", seed=0):
        wl = HotColdWorkload.from_skew(TINY.user_pages, 80, seed=seed)
        return spec_from_call(TINY, policy, wl, write_multiplier=2.0)

    def test_dict_round_trip(self):
        spec = self.spec()
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_changes_with_any_parameter(self):
        base = self.spec()
        assert self.spec().digest() == base.digest()
        assert self.spec(policy="age").digest() != base.digest()
        assert self.spec(seed=1).digest() != base.digest()
        bigger = JobSpec.from_dict(
            dict(base.to_dict(), write_multiplier=3.0)
        )
        assert bigger.digest() != base.digest()

    def test_policy_instances_are_rejected(self):
        from repro.policies import make_policy

        wl = UniformWorkload(TINY.user_pages, seed=0)
        with pytest.raises(SweepError):
            spec_from_call(TINY, make_policy("greedy"), wl)

    def test_run_job_matches_direct_simulation(self):
        from repro.bench.runner import run_simulation

        spec = self.spec(policy="mdc")
        direct = run_simulation(
            TINY,
            "mdc",
            HotColdWorkload.from_skew(TINY.user_pages, 80, seed=0),
            write_multiplier=2.0,
        )
        via_spec = run_job(spec)
        assert via_spec.wamp == direct.wamp
        assert via_spec.window == direct.window

    def test_result_dict_round_trip(self):
        result = run_job(self.spec(policy="age"))
        clone = result_from_dict(result_to_dict(result))
        assert clone == result
        assert clone.wamp == result.wamp


class TestGridExpansion:
    def test_demo_grid_covers_policies_times_skews(self):
        specs = expand_grid(demo_experiment)
        assert len(specs) == 4  # 2 policies x 2 skews
        assert {s.policy for s in specs} == {"greedy", "mdc"}
        assert len({s.digest() for s in specs}) == 4

    def test_fig4_grid_is_one_job_per_buffer_size(self):
        specs = expand_grid(fig4_experiment, buffer_sizes=(0, 4, 16))
        assert len(specs) == 3
        assert {s.config.sort_buffer_segments for s in specs} == {0, 4, 16}
        assert all(s.policy == "mdc" for s in specs)

    def test_fig5_grid_covers_policy_cross_fill(self):
        specs = expand_grid(
            fig5_experiment,
            dist="zipf-80-20",
            fills=(0.6, 0.8),
            policies=("greedy", "age", "mdc"),
        )
        assert len(specs) == 6
        assert {s.config.fill_factor for s in specs} == {0.6, 0.8}

    def test_table1_grid_runs_two_policies_per_fill(self):
        specs = expand_grid(table1_experiment, fill_factors=(0.5, 0.8))
        assert len(specs) == 4
        assert {s.policy for s in specs} == {"age", "mdc-opt"}

    def test_seed_propagates_into_every_job(self):
        for spec in expand_grid(fig3_experiment, skews=(80,), seed=9):
            assert spec.workload["seed"] == 9

    def test_grid_digest_is_order_insensitive_but_seed_sensitive(self):
        a = expand_grid(demo_experiment)
        b = expand_grid(demo_experiment)
        assert grid_digest(a) == grid_digest(list(reversed(b)))
        assert grid_digest(a) != grid_digest(expand_grid(demo_experiment, seed=1))


class TestNamedGrids:
    def test_registry_names(self):
        assert "fig5" in sweep_grid_names()
        assert "demo" in sweep_grid_names()
        assert "fig6" not in sweep_grid_names()  # serial-only (traces)

    def test_quick_quarters_the_write_multiplier(self):
        _, kwargs, _ = SWEEP_GRIDS["fig5"].resolve(quick=True)
        assert kwargs["write_multiplier"] == pytest.approx(25.0 / 4.0)

    def test_fig5_takes_dist_and_names_the_run(self):
        _, kwargs, name = SWEEP_GRIDS["fig5"].resolve(dist="uniform")
        assert kwargs["dist"] == "uniform"
        assert name == "fig5-uniform"
        with pytest.raises(SweepError):
            SWEEP_GRIDS["fig5"].resolve(dist="pareto")

    def test_dist_rejected_by_grids_without_one(self):
        with pytest.raises(SweepError):
            SWEEP_GRIDS["table1"].resolve(dist="uniform")
