"""Tests for the text-table and series reporters."""

from __future__ import annotations

import pytest

from repro.evaluation.reporting import format_series, format_table, indent


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table([{"method": "ours", "rho": 0.25}], title="results")
        assert "results" in text
        assert "method" in text
        assert "ours" in text
        assert "0.250" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_explicit_column_order(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_missing_keys_render_empty(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in text

    def test_precision(self):
        text = format_table([{"x": 0.123456}], precision=5)
        assert "0.12346" in text

    def test_row_count(self):
        text = format_table([{"a": i} for i in range(5)])
        # header + separator + 5 data rows
        assert len(text.splitlines()) == 7


class TestFormatSeries:
    def test_basic(self):
        text = format_series([0.1, 0.2], {"ours": [0.5, 0.6]}, x_label="p")
        assert "p" in text
        assert "ours" in text
        assert "0.500" in text

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series([0.1], {"ours": [0.5, 0.6]})

    def test_max_rows_subsampling(self):
        text = format_series(
            list(range(100)), {"y": list(range(100))}, max_rows=10
        )
        assert len(text.splitlines()) < 30

    def test_multiple_series_columns(self):
        text = format_series([1.0], {"a": [0.1], "b": [0.2]})
        header = text.splitlines()[0]
        assert "a" in header and "b" in header


class TestHelpers:
    def test_indent(self):
        assert indent("a\nb", prefix="> ") == "> a\n> b"
