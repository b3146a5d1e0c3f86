"""Plain-text table/series rendering."""

from repro.bench import format_series, format_table
from repro.bench.tables import format_cell


class TestCells:
    def test_float_precision(self):
        assert format_cell(1.23456, precision=2) == "1.23"

    def test_int_passthrough(self):
        assert format_cell(42) == "42"

    def test_nan_renders_dash(self):
        assert format_cell(float("nan")) == "-"

    def test_string_passthrough(self):
        assert format_cell("mdc") == "mdc"


class TestTable:
    def test_headers_and_alignment(self):
        out = format_table(["F", "Wamp"], [[0.8, 1.666], [0.5, 0.25]])
        lines = out.splitlines()
        assert lines[0].startswith("F")
        assert "Wamp" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "1.666" in out
        assert len(lines) == 4

    def test_title_prepended(self):
        out = format_table(["a"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_wide_cells_stretch_columns(self):
        out = format_table(["x"], [["longer-than-header"]])
        header, underline, row = out.splitlines()
        assert len(underline) == len("longer-than-header")


class TestSeries:
    def test_one_row_per_series(self):
        out = format_series(
            "fill", [0.5, 0.8],
            {"mdc": [0.2, 0.7], "greedy": [0.3, 1.9]},
        )
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[2].lstrip().startswith("mdc")
