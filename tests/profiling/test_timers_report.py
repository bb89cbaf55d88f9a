"""Tests of the paper-style table rendering."""

import pytest

from repro.profiling.report import format_percent, format_seconds, render_table


class TestRenderTable:
    def test_basic_table(self):
        text = render_table(["A", "B"], [["x", 1], ["yy", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("A")
        assert "-" in lines[1]
        assert "yy" in lines[3]

    def test_title(self):
        text = render_table(["A"], [["1"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_numeric_columns_right_aligned(self):
        text = render_table(["N"], [["5"], ["5000"]])
        rows = text.splitlines()[2:]
        assert rows[0].endswith("5")
        assert rows[1].endswith("5000")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            render_table(["A", "B"], [["only one"]])

    def test_float_formatting(self):
        text = render_table(["V"], [[1.23456789]])
        assert "1.235" in text

    def test_empty_rows_ok(self):
        text = render_table(["A"], [])
        assert "A" in text


class TestFormatters:
    def test_format_seconds_ranges(self):
        assert "us" in format_seconds(5e-6)
        assert "ms" in format_seconds(5e-3)
        assert format_seconds(2.0) == "2.00 s"

    def test_format_percent(self):
        assert format_percent(0.375) == "37.50%"
