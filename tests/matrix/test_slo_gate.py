"""The ``slo`` burn-rate gate: config parsing and evaluation."""

import pytest

from repro.matrix.cells import CellResult, cells_for_experiment
from repro.matrix.config import MatrixConfigError, parse_config
from repro.matrix.gates import evaluate_checks


def latency_config(check):
    return parse_config(
        {
            "name": "t",
            "experiments": [
                {
                    "name": "lat",
                    "kind": "latency",
                    "params": {"quick": True},
                    "checks": [check],
                }
            ],
        }
    )


def slo_report(sustained=0.5, worst=None):
    return {
        "objective": 0.95,
        "threshold": 32.0,
        "samples": 200,
        "bad": 4,
        "bad_fraction": 0.02,
        "windows": [
            {"window": 16, "samples": 16, "bad": 0,
             "bad_fraction": 0.0, "burn_rate": 0.0},
        ],
        "worst_burn": worst if worst is not None else sustained,
        "sustained_burn": sustained,
        "burning": sustained > 1.0,
    }


def fabricate(cfg, result):
    (cell,) = cells_for_experiment(cfg.experiments[0])
    return {"lat": [CellResult(spec=cell, result=result)]}


class TestParsing:
    def test_slo_check_parses_on_latency(self):
        cfg = latency_config(
            {"type": "slo", "metric": "slo", "max": 1.0}
        )
        (check,) = cfg.experiments[0].checks
        assert check.type == "slo"
        assert check.metric == "slo"

    def test_slo_check_requires_metric(self):
        with pytest.raises(MatrixConfigError, match="metric"):
            latency_config({"type": "slo", "max": 1.0})

    def test_slo_check_rejected_on_sim(self):
        with pytest.raises(MatrixConfigError):
            parse_config(
                {
                    "name": "t",
                    "experiments": [
                        {
                            "name": "e",
                            "kind": "sim",
                            "matrix": {"policy": ["age"]},
                            "params": {"write_multiplier": 4.0},
                            "checks": [
                                {"type": "slo", "metric": "x.slo"}
                            ],
                        }
                    ],
                }
            )


class TestEvaluation:
    def _verdict(self, sustained, max_burn=1.0, result=None):
        cfg = latency_config(
            {"type": "slo", "name": "burn",
             "metric": "slo", "max": max_burn}
        )
        if result is None:
            result = {"slo": slo_report(sustained)}
        (verdict,) = evaluate_checks(cfg, fabricate(cfg, result))
        return verdict

    def test_under_ceiling_passes(self):
        verdict = self._verdict(sustained=0.4)
        assert verdict.passed
        assert verdict.observed == pytest.approx(0.4)
        assert verdict.expected == pytest.approx(1.0)

    def test_at_ceiling_passes(self):
        assert self._verdict(sustained=1.0).passed

    def test_over_ceiling_fails_with_context(self):
        verdict = self._verdict(sustained=2.5)
        assert not verdict.passed
        assert "2.500" in verdict.detail
        assert "objective" in verdict.detail

    def test_default_ceiling_is_one(self):
        cfg = latency_config(
            {"type": "slo", "metric": "slo"}
        )
        result = {"slo": slo_report(1.2)}
        (verdict,) = evaluate_checks(cfg, fabricate(cfg, result))
        assert not verdict.passed
        assert verdict.expected == pytest.approx(1.0)

    def test_missing_report_path_fails(self):
        verdict = self._verdict(sustained=0.0, result={})
        assert not verdict.passed
        assert "no SLO report" in verdict.detail

    def test_non_report_value_fails(self):
        result = {"slo": {"oops": 1}}
        verdict = self._verdict(sustained=0.0, result=result)
        assert not verdict.passed
        assert "not an SLO report" in verdict.detail

    def test_no_matching_cells_fails(self):
        cfg = latency_config(
            {"type": "slo", "metric": "slo",
             "where": {"quick": False}}
        )
        result = {"slo": slo_report(0.1)}
        (verdict,) = evaluate_checks(cfg, fabricate(cfg, result))
        assert not verdict.passed
        assert "match" in verdict.detail
