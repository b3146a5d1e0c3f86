"""Gate evaluation as a pure function: no simulation or benchmark runs.

Every test fabricates cell results (see conftest) and asserts on the
verdicts — pass, fail, tolerance edges, and the analytical mean-field
gate in both its exact (uniform) and bound (hot/cold) modes.
"""

import json

import pytest

from repro.matrix.cells import CellResult, cells_for_experiment
from repro.matrix.config import MatrixConfigError, parse_config
from repro.matrix.gates import blocking_failures, evaluate_checks
from repro.matrix.meanfield import (
    hotcold_meanfield,
    predict_for_workload,
    uniform_meanfield,
)
from repro.sweep.spec import JobSpec

from .conftest import fabricate_results


def config_with_checks(checks, matrix=None, params=None, kind="sim"):
    doc = {
        "name": "t",
        "experiments": [
            {
                "name": "e",
                "kind": kind,
                "checks": checks,
            }
        ],
    }
    if kind == "sim":
        doc["experiments"][0]["matrix"] = matrix or {"policy": ["age"]}
        doc["experiments"][0]["params"] = params or {
            "write_multiplier": 4.0
        }
    return parse_config(doc)


class TestMetricCheck:
    def test_within_bounds_passes(self):
        cfg = config_with_checks(
            [{"type": "metric", "metric": "wamp", "min": 0.5, "max": 2.0}]
        )
        results = fabricate_results(cfg.experiments[0], {0: 1.0})
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert verdict.passed
        assert verdict.observed == pytest.approx(1.0)

    def test_above_max_fails_and_blocks(self):
        cfg = config_with_checks(
            [{"type": "metric", "metric": "wamp", "max": 2.0}]
        )
        results = fabricate_results(cfg.experiments[0], {0: 3.0})
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert not verdict.passed
        assert "above max" in verdict.detail
        assert blocking_failures([verdict]) == [verdict]

    def test_below_min_fails(self):
        cfg = config_with_checks(
            [{"type": "metric", "metric": "wamp", "min": 0.5}]
        )
        results = fabricate_results(cfg.experiments[0], {0: 0.1})
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert not verdict.passed and "below min" in verdict.detail

    def test_where_filter_selects_cells(self):
        cfg = config_with_checks(
            [
                {
                    "type": "metric", "metric": "wamp", "max": 2.0,
                    "where": {"policy": "age"},
                }
            ],
            matrix={"policy": ["age", "greedy"]},
        )
        # age in bounds, greedy wildly out — but filtered away.
        results = fabricate_results(cfg.experiments[0], {0: 1.0, 1: 99.0})
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert verdict.passed

    def test_empty_where_match_fails_loudly(self):
        cfg = config_with_checks(
            [
                {
                    "type": "metric", "metric": "wamp", "max": 2.0,
                    "where": {"policy": "mdc"},
                }
            ]
        )
        results = fabricate_results(cfg.experiments[0], {0: 1.0})
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert not verdict.passed
        assert "matched no cells" in verdict.detail


class TestBaselineCheck:
    def test_missing_baseline_file_is_actionable(self, tmp_path):
        """An unreadable ``file:`` is a config error, not a verdict."""
        cfg = config_with_checks(
            [{"type": "latency-baseline",
              "file": str(tmp_path / "absent.json")}],
            kind="latency",
        )
        cell = cells_for_experiment(cfg.experiments[0])[0]
        with pytest.raises(MatrixConfigError, match="cannot read baseline"):
            evaluate_checks(cfg, {"e": [CellResult(spec=cell, result={})]})


class TestMeanFieldGate:
    def uniform_cfg(self, tolerance=0.10):
        return config_with_checks(
            [{"type": "meanfield", "tolerance": tolerance}],
            params={
                "write_multiplier": 4.0,
                "fill": 0.8,
                "reserve_compensation": True,
            },
        )

    def predicted(self, cfg):
        cell = cells_for_experiment(cfg.experiments[0])[0]
        spec = JobSpec.from_dict(cell.payload)
        return predict_for_workload(
            spec.workload, spec.config.fill_factor,
            n_pages=spec.config.user_pages,
        )

    def test_agreement_passes(self):
        cfg = self.uniform_cfg()
        pred = self.predicted(cfg)
        results = fabricate_results(
            cfg.experiments[0], {0: pred.wamp * 1.02}
        )
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert verdict.passed
        assert verdict.expected == pytest.approx(pred.wamp)

    def test_uniform_disagreement_fails_both_ways(self):
        cfg = self.uniform_cfg()
        pred = self.predicted(cfg)
        for factor in (1.5, 0.5):
            results = fabricate_results(
                cfg.experiments[0], {0: pred.wamp * factor}
            )
            (verdict,) = evaluate_checks(cfg, {"e": results})
            assert not verdict.passed
            assert "tolerance" in verdict.detail

    def test_seed_mean_is_compared(self):
        # Two seeds straddling the prediction: the mean agrees even
        # though each individual seed is outside tolerance.
        cfg = parse_config(
            {
                "name": "t",
                "experiments": [
                    {
                        "name": "e",
                        "kind": "sim",
                        "matrix": {"policy": ["age"]},
                        "params": {
                            "write_multiplier": 4.0,
                            "fill": 0.8,
                            "reserve_compensation": True,
                        },
                        "samples": 2,
                        "checks": [
                            {"type": "meanfield", "tolerance": 0.05}
                        ],
                    }
                ],
            }
        )
        pred = self.predicted(cfg)
        results = fabricate_results(
            cfg.experiments[0], {0: pred.wamp * 1.2, 1: pred.wamp * 0.8}
        )
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert verdict.passed

    def hotcold_cfg(self, tolerance=0.10):
        return config_with_checks(
            [{"type": "meanfield", "tolerance": tolerance}],
            params={
                "write_multiplier": 4.0,
                "fill": 0.8,
                "dist": "hotcold-90",
            },
        )

    def test_hotcold_above_bound_passes(self):
        cfg = self.hotcold_cfg()
        pred = self.predicted(cfg)
        assert pred.is_bound
        results = fabricate_results(
            cfg.experiments[0], {0: pred.wamp * 1.6}
        )
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert verdict.passed

    def test_hotcold_beating_bound_fails(self):
        cfg = self.hotcold_cfg()
        pred = self.predicted(cfg)
        results = fabricate_results(
            cfg.experiments[0], {0: pred.wamp * 0.5}
        )
        (verdict,) = evaluate_checks(cfg, {"e": results})
        assert not verdict.passed
        assert "beats the analytical bound" in verdict.detail


class TestBenchSuiteChecks:
    def latency_report(self, p99, wamp=0.2):
        return {
            "benchmark": "latency",
            "flush_stall_p99_pages": p99,
            "wamp_aggregate": wamp,
            "config": {"pages_per_step": 16},
        }

    def test_latency_baseline_delegates(self, tmp_path):
        base = tmp_path / "BENCH_latency.json"
        base.write_text(json.dumps(self.latency_report(0.0)))
        cfg = config_with_checks(
            [{"type": "latency-baseline", "file": str(base),
              "tolerance": 0.25}],
            kind="latency",
        )
        cell = cells_for_experiment(cfg.experiments[0])[0]
        ok = CellResult(spec=cell, result=self.latency_report(16.0, 0.24))
        (verdict,) = evaluate_checks(cfg, {"e": [ok]})
        assert verdict.passed
        for bad_report in (
            self.latency_report(17.0),  # over one step budget
            self.latency_report(0.0, wamp=0.26),  # > 25% over baseline
        ):
            bad = CellResult(spec=cell, result=bad_report)
            (verdict,) = evaluate_checks(cfg, {"e": [bad]})
            assert not verdict.passed

    def test_baseline_of_another_family_is_a_config_error(self, tmp_path):
        """A gate pointed at another family's report used to pass
        vacuously or die with a KeyError."""
        for gate, kind, report, other in (
            ("sweep-identical", "sweep",
             self.sweep_report(), self.latency_report(0.0)),
            ("latency-baseline", "latency",
             self.latency_report(0.0), self.sweep_report()),
        ):
            base = tmp_path / ("BENCH_%s.json" % kind)
            base.write_text(json.dumps(other))
            cfg = config_with_checks(
                [{"type": gate, "file": str(base)}], kind=kind
            )
            cell = cells_for_experiment(cfg.experiments[0])[0]
            with pytest.raises(MatrixConfigError) as err:
                evaluate_checks(
                    cfg, {"e": [CellResult(spec=cell, result=report)]}
                )
            assert repr(other["benchmark"]) in str(err.value)
            assert repr(report["benchmark"]) in str(err.value)

    def sweep_report(self, effective=4, cpus=4, identical=True):
        return {
            "benchmark": "sweep-pool-identity",
            "grid": "fig5-zipf-80-20",
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

    def test_sweep_identical_delegates(self):
        cfg = config_with_checks(
            [{"type": "sweep-identical"}], kind="sweep"
        )
        cell = cells_for_experiment(cfg.experiments[0])[0]
        ok = CellResult(spec=cell, result=self.sweep_report())
        (verdict,) = evaluate_checks(cfg, {"e": [ok]})
        assert verdict.passed
        assert verdict.observed == 1
        # The passing detail says what the pooled run was.
        assert "workers 4" in verdict.detail and "CPUs 4" in verdict.detail

    def test_sweep_identical_output_mismatch_blocks(self):
        cfg = config_with_checks(
            [{"type": "sweep-identical"}], kind="sweep"
        )
        cell = cells_for_experiment(cfg.experiments[0])[0]
        bad = CellResult(spec=cell, result=self.sweep_report(identical=False))
        (verdict,) = evaluate_checks(cfg, {"e": [bad]})
        assert not verdict.passed
        assert "differs" in verdict.detail
        assert blocking_failures([verdict]) == [verdict]


class TestMeanFieldClosedForms:
    def test_uniform_matches_fixpoint_identity(self):
        pred = uniform_meanfield(0.8)
        # Wamp = (1 - E) / E at the fixpoint.
        assert pred.wamp == pytest.approx(
            (1 - pred.emptiness) / pred.emptiness
        )
        assert not pred.is_bound

    def test_hotcold_is_flagged_as_bound(self):
        pred = hotcold_meanfield(0.8, update_fraction=0.9, data_fraction=0.1)
        assert pred.is_bound
        # Separating hot from cold can only help: the two-class bound
        # sits at or below the single-class uniform Wamp.
        assert pred.wamp <= uniform_meanfield(0.8).wamp + 1e-9

    def test_out_of_range_fill_rejected(self):
        from repro.matrix.meanfield import MeanFieldError

        with pytest.raises(MeanFieldError):
            uniform_meanfield(1.2)

    def test_unknown_workload_kind_rejected(self):
        from repro.matrix.meanfield import MeanFieldError

        with pytest.raises(MeanFieldError, match="no mean-field"):
            predict_for_workload({"kind": "zipfian", "theta": 0.9}, 0.8)
