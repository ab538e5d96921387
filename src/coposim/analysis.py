"""Closed-form resolution and point-cloud quality metrics."""

from __future__ import annotations

import math

import numpy as np

from .geometry import SPEED_OF_LIGHT as C
from .geometry import distance_matrix
from .waveform import FrequencyGrid


def azimuth_resolution(r: float, d_aperture: float, f_center: float) -> float:
    """Cross-range resolution c*sqrt(4r^2 + d^2) / (2 f_c d) for a d-wide aperture."""
    return C * math.sqrt(4.0 * r * r + d_aperture * d_aperture) / (2.0 * f_center * d_aperture)


def range_resolution(grid: FrequencyGrid) -> float:
    """Down-range resolution c / (f_K - f_1)."""
    return C / grid.bandwidth


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance max(h(A,B), h(B,A)), h = max-min point gap."""
    pa = np.asarray(a, dtype=float).reshape(-1, 3)
    pb = np.asarray(b, dtype=float).reshape(-1, 3)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("hausdorff distance needs non-empty point sets")
    d = distance_matrix(pa, pb)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def rmse_nearest(detected, truth) -> float:
    """RMS of detected-to-nearest-truth distances; auxiliary diagnostic only."""
    pd = np.asarray(detected, dtype=float).reshape(-1, 3)
    pt = np.asarray(truth, dtype=float).reshape(-1, 3)
    if len(pd) == 0 or len(pt) == 0:
        raise ValueError("rmse needs non-empty point sets")
    d = distance_matrix(pd, pt).min(axis=1)
    return float(np.sqrt(np.mean(d * d)))
