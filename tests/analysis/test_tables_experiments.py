"""Tests for table rendering."""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table


class TestFormatTable:
    def test_alignment_and_separator(self):
        out = format_table(["name", "value"], [["alpha", 1], ["b", 22.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_float_formatting(self):
        out = format_table(["x"], [[0.123456], [123456.0], [float("nan")]])
        assert "0.123" in out
        assert "nan" in out

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

