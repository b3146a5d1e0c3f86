"""Matrix config parsing: strict validation and deterministic expansion."""

import json

import pytest

from repro.matrix.config import (
    MatrixConfigError,
    expand_experiment,
    load_config,
    parse_config,
)


def minimal(**overrides):
    """A minimal valid raw config; tests mutate from here."""
    doc = {
        "name": "t",
        "experiments": [
            {"name": "e", "kind": "sim", "matrix": {"policy": ["age"]}}
        ],
    }
    doc.update(overrides)
    return doc


class TestStrictParsing:
    def test_minimal_config_parses(self):
        cfg = parse_config(minimal())
        assert cfg.name == "t"
        assert cfg.experiments[0].kind == "sim"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(MatrixConfigError, match="unknown key.*'extra'"):
            parse_config(minimal(extra=1))

    def test_missing_name_rejected(self):
        doc = minimal()
        del doc["name"]
        with pytest.raises(MatrixConfigError, match="name"):
            parse_config(doc)

    def test_no_experiments_rejected(self):
        with pytest.raises(MatrixConfigError, match="at least one"):
            parse_config(minimal(experiments=[]))

    def test_duplicate_experiment_names_rejected(self):
        doc = minimal()
        doc["experiments"] = doc["experiments"] * 2
        with pytest.raises(MatrixConfigError, match="duplicate"):
            parse_config(doc)

    def test_unknown_kind_rejected(self):
        doc = minimal()
        doc["experiments"][0]["kind"] = "quantum"
        with pytest.raises(MatrixConfigError, match="unknown kind 'quantum'"):
            parse_config(doc)

    def test_unknown_sim_parameter_names_the_path(self):
        doc = minimal()
        doc["experiments"][0]["matrix"]["warp_factor"] = [9]
        with pytest.raises(
            MatrixConfigError, match=r"experiments\[0\].matrix.warp_factor"
        ):
            parse_config(doc)

    def test_param_also_declared_as_axis_rejected(self):
        doc = minimal()
        doc["experiments"][0]["params"] = {"policy": "age"}
        with pytest.raises(MatrixConfigError, match="matrix axis"):
            parse_config(doc)

    def test_sim_without_policy_rejected(self):
        doc = minimal()
        doc["experiments"][0]["matrix"] = {"fill": [0.5]}
        with pytest.raises(MatrixConfigError, match="policy"):
            parse_config(doc)

    def test_empty_axis_rejected(self):
        doc = minimal()
        doc["experiments"][0]["matrix"]["fill"] = []
        with pytest.raises(MatrixConfigError, match="no values"):
            parse_config(doc)

    def test_obs_on_bench_kind_rejected(self):
        doc = minimal()
        doc["experiments"][0] = {"name": "m", "kind": "latency", "obs": True}
        with pytest.raises(MatrixConfigError, match="only available"):
            parse_config(doc)

    def test_bad_samples_rejected(self):
        doc = minimal()
        doc["experiments"][0]["samples"] = 0
        with pytest.raises(MatrixConfigError, match=">= 1"):
            parse_config(doc)

    def test_non_mapping_document_rejected(self):
        with pytest.raises(MatrixConfigError, match="expected a mapping"):
            parse_config(["not", "a", "config"])


class TestCheckParsing:
    def check_doc(self, check, kind="sim"):
        doc = minimal()
        doc["experiments"][0]["kind"] = kind
        if kind != "sim":
            doc["experiments"][0].pop("matrix")
        doc["experiments"][0]["checks"] = [check]
        return doc

    def test_unknown_check_type_rejected(self):
        with pytest.raises(MatrixConfigError, match="unknown check type"):
            parse_config(self.check_doc({"type": "vibes"}))

    def test_check_kind_mismatch_rejected(self):
        with pytest.raises(MatrixConfigError, match="does not apply"):
            parse_config(self.check_doc({"type": "latency-baseline",
                                         "file": "B.json"}))

    def test_metric_check_needs_bounds(self):
        with pytest.raises(MatrixConfigError, match="min: and/or max:"):
            parse_config(self.check_doc({"type": "metric", "metric": "wamp"}))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(MatrixConfigError, match="positive"):
            parse_config(
                self.check_doc({"type": "meanfield", "tolerance": -0.1})
            )

    def test_valid_meanfield_check_parses(self):
        cfg = parse_config(
            self.check_doc(
                {"type": "meanfield", "tolerance": 0.1,
                 "where": {"policy": "age"}}
            )
        )
        check = cfg.experiments[0].checks[0]
        assert check.type == "meanfield"
        assert check.where == {"policy": "age"}


class TestResultParsing:
    def test_table_referencing_unknown_experiment_rejected(self):
        doc = minimal(results=[{"type": "table", "experiment": "ghost"}])
        with pytest.raises(MatrixConfigError, match="unknown experiment"):
            parse_config(doc)

    def test_unknown_result_type_rejected(self):
        doc = minimal(results=[{"type": "hologram"}])
        with pytest.raises(MatrixConfigError, match="unknown result type"):
            parse_config(doc)


class TestLoading:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yml"
        path.write_text(
            "name: y\n"
            "experiments:\n"
            "  - name: e\n"
            "    matrix:\n"
            "      policy: [age, greedy]\n"
        )
        cfg = load_config(str(path))
        assert cfg.experiments[0].matrix["policy"] == ("age", "greedy")
        assert cfg.source == str(path)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal()))
        assert load_config(str(path)).name == "t"

    def test_invalid_yaml_is_actionable(self, tmp_path):
        path = tmp_path / "bad.yml"
        path.write_text("name: [unclosed\n")
        with pytest.raises(MatrixConfigError, match="not valid YAML"):
            load_config(str(path))

    def test_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(MatrixConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.yml"))


class TestExpansion:
    def exp(self, **overrides):
        doc = {
            "name": "e",
            "kind": "sim",
            "matrix": {"policy": ["age", "greedy"], "fill": [0.5, 0.8]},
            "samples": 2,
            "seed": 7,
        }
        doc.update(overrides)
        return parse_config(
            {"name": "t", "experiments": [doc]}
        ).experiments[0]

    def test_grid_times_samples_cell_count(self):
        assert len(expand_experiment(self.exp())) == 2 * 2 * 2

    def test_declaration_order_later_axes_fastest_seeds_innermost(self):
        cells = expand_experiment(self.exp())
        key = [(c["policy"], c["fill"], c["seed"]) for c in cells]
        assert key == [
            ("age", 0.5, 7), ("age", 0.5, 8),
            ("age", 0.8, 7), ("age", 0.8, 8),
            ("greedy", 0.5, 7), ("greedy", 0.5, 8),
            ("greedy", 0.8, 7), ("greedy", 0.8, 8),
        ]

    def test_expansion_is_deterministic(self):
        assert expand_experiment(self.exp()) == expand_experiment(self.exp())

    def test_scalar_axis_is_fixed_not_swept(self):
        exp = self.exp(matrix={"policy": "age", "fill": [0.5, 0.8]})
        cells = expand_experiment(exp)
        assert len(cells) == 2 * 2
        assert all(c["policy"] == "age" for c in cells)
        assert exp.axis_names() == ["fill"]

    def test_defaults_then_params_then_matrix_precedence(self):
        exp = self.exp(
            matrix={"policy": ["age"], "clean_trigger": [2]},
            params={"clean_batch": 16},
            samples=1,
        )
        (cell,) = expand_experiment(exp)
        assert cell["clean_trigger"] == 2  # matrix wins
        assert cell["clean_batch"] == 16  # params beat defaults
        assert cell["n_segments"] == 512  # untouched default
