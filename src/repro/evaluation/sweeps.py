"""Parameter grid helpers for experiment sweeps."""

from __future__ import annotations

import numpy as np


def linear_grid(start: float, stop: float, num_points: int) -> list[float]:
    """Evenly spaced grid including both endpoints."""
    if num_points <= 0:
        raise ValueError(f"num_points must be positive, got {num_points}")
    if num_points == 1:
        return [float(start)]
    return [float(value) for value in np.linspace(start, stop, num_points)]


def geometric_grid(start: float, stop: float, num_points: int) -> list[float]:
    """Geometrically spaced grid including both endpoints (both must be positive)."""
    if num_points <= 0:
        raise ValueError(f"num_points must be positive, got {num_points}")
    if start <= 0.0 or stop <= 0.0:
        raise ValueError("geometric grids require positive endpoints")
    if num_points == 1:
        return [float(start)]
    return [float(value) for value in np.geomspace(start, stop, num_points)]
