"""Tests for parameter sweep helpers."""

from __future__ import annotations

import pytest

from repro.evaluation.sweeps import geometric_grid, linear_grid


class TestGrids:
    def test_linear_grid_endpoints(self):
        grid = linear_grid(0.0, 1.0, 5)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert len(grid) == 5

    def test_linear_grid_single_point(self):
        assert linear_grid(0.3, 0.9, 1) == [0.3]

    def test_linear_grid_invalid(self):
        with pytest.raises(ValueError):
            linear_grid(0.0, 1.0, 0)

    def test_geometric_grid_endpoints(self):
        grid = geometric_grid(1.0, 100.0, 3)
        assert grid[0] == pytest.approx(1.0)
        assert grid[1] == pytest.approx(10.0)
        assert grid[-1] == pytest.approx(100.0)

    def test_geometric_grid_requires_positive(self):
        with pytest.raises(ValueError):
            geometric_grid(0.0, 1.0, 3)

    def test_geometric_grid_single_point(self):
        assert geometric_grid(2.0, 8.0, 1) == [2.0]
