"""Cell specs: content addressing, labels, and the runner dispatch."""

import json

import pytest

from repro.matrix.cells import (
    CellResult,
    cell_metric,
    cells_for_experiment,
    dig,
    matches_where,
    matrix_digest,
)
from repro.matrix.config import MatrixConfigError, parse_config
from repro.sweep.spec import JobSpec

from .conftest import fabricate_sim_result


def one_exp(**overrides):
    doc = {
        "name": "e",
        "kind": "sim",
        "matrix": {"policy": ["age"]},
        "params": {"write_multiplier": 4.0},
    }
    doc.update(overrides)
    return parse_config({"name": "t", "experiments": [doc]}).experiments[0]


class TestContentAddressing:
    def test_same_config_same_digests(self):
        a = cells_for_experiment(one_exp())
        b = cells_for_experiment(one_exp())
        assert [c.digest() for c in a] == [c.digest() for c in b]
        assert matrix_digest(a) == matrix_digest(b)

    def test_param_change_changes_digest(self):
        a = cells_for_experiment(one_exp())[0]
        b = cells_for_experiment(
            one_exp(params={"write_multiplier": 8.0})
        )[0]
        assert a.digest() != b.digest()

    def test_matrix_digest_is_order_insensitive(self):
        cells = cells_for_experiment(
            one_exp(matrix={"policy": ["age", "greedy"]})
        )
        assert matrix_digest(cells) == matrix_digest(list(reversed(cells)))

    def test_obs_flag_does_not_change_digest(self):
        a = cells_for_experiment(one_exp())[0]
        b = cells_for_experiment(one_exp(obs=True))[0]
        assert a.digest() == b.digest()
        assert not a.obs and b.obs

    def test_sim_payload_is_a_jobspec(self):
        cell = cells_for_experiment(one_exp())[0]
        spec = JobSpec.from_dict(cell.payload)
        assert spec.policy == "age"
        assert spec.workload["kind"] == "uniform"
        assert spec.config.fill_factor == pytest.approx(0.8)

    def test_sim_label_names_the_point(self):
        cell = cells_for_experiment(one_exp())[0]
        assert cell.label == "e/age/uniform/F0.80/s0"

    def test_bench_payload_json_safe(self):
        exp = one_exp(kind="latency", matrix={}, params={"quick": True})
        cell = cells_for_experiment(exp)[0]
        # Manifest JSON round trips must compare equal.
        assert json.loads(json.dumps(cell.payload)) == cell.payload
        assert cell.payload == {"quick": True, "seed": 0}
        assert cell.label == "e/latency/s0"

    def test_invalid_geometry_is_a_config_error(self):
        # fill 0.99 at a tiny store leaves fewer slack segments than the
        # cleaner needs; the store constructor rejects it and the matrix
        # layer converts that into an actionable config error.
        exp = one_exp(
            params={"fill": 0.99, "n_segments": 8, "segment_units": 4}
        )
        with pytest.raises(MatrixConfigError, match="invalid store geometry"):
            cells_for_experiment(exp)


class TestMetricsAccess:
    def test_dig_resolves_dotted_paths(self):
        assert dig({"a": {"b": {"c": 3}}}, "a.b.c") == 3
        with pytest.raises(KeyError):
            dig({"a": {}}, "a.b.c")

    def test_sim_shorthand_metrics(self):
        cell = cells_for_experiment(one_exp())[0]
        result = fabricate_sim_result(cell.payload, wamp=1.5)
        cr = CellResult(spec=cell, result=result)
        assert cell_metric(cr, "wamp") == pytest.approx(1.5)
        assert cell_metric(cr, "mean_cleaned_emptiness") == pytest.approx(
            1.0 / 2.5
        )

    def test_non_numeric_metric_rejected(self):
        cell = cells_for_experiment(one_exp())[0]
        cr = CellResult(spec=cell, result={"policy": "age"})
        with pytest.raises(MatrixConfigError, match="not numeric"):
            cell_metric(cr, "policy")

    def test_matches_where(self):
        axes = {"policy": "age", "fill": 0.5, "seed": 0}
        assert matches_where(axes, {})
        assert matches_where(axes, {"policy": "age"})
        assert not matches_where(axes, {"policy": "greedy"})
        assert not matches_where(axes, {"missing": 1})
