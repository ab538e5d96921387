"""Closed-form resolution, link-budget formulas and point-cloud quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT as C
from .geometry import distance_matrix
from .waveform import FrequencyGrid


def azimuth_resolution(r: float, d_aperture: float, f_center: float) -> float:
    """Cross-range resolution c*sqrt(4r^2 + d^2) / (2 f_c d) for a d-wide aperture."""
    if d_aperture <= 0 or f_center <= 0 or r < 0:
        raise ValueError("aperture and center frequency must be positive, range nonnegative")
    return C * math.sqrt(4.0 * r * r + d_aperture * d_aperture) / (2.0 * f_center * d_aperture)


def range_resolution(grid: FrequencyGrid) -> float:
    """Down-range resolution c / (f_K - f_1)."""
    return C / grid.bandwidth


def rcs(theta_i: float, s2: float, gamma_s0: complex) -> float:
    """Rough-surface radar cross-section |Gamma(0)|^2/(2 s^2) sec^4 exp(-tan^2/s^2)."""
    if not 0.0 <= theta_i < math.pi / 2:
        raise ValueError("incident angle must lie in [0, pi/2)")
    if s2 <= 0:
        raise ValueError("roughness parameter must be positive")
    sec2 = 1.0 / math.cos(theta_i) ** 2
    tan2 = math.tan(theta_i) ** 2
    return abs(gamma_s0) ** 2 / (2.0 * s2) * sec2 * sec2 * math.exp(-tan2 / s2)


@dataclass(frozen=True)
class LinkBudgetParams:
    """Inputs of the received-power formulas; NLoS modes need r1, r2 and the surface angle."""

    pt: float
    gt: float
    wavelength: float
    r: float | None = None
    r1: float | None = None
    r2: float | None = None
    theta_i: float = 0.0
    theta_i_surface: float | None = None
    s2: float = 1.0
    gamma_s0: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.pt <= 0 or self.gt <= 0 or self.wavelength <= 0:
            raise ValueError("pt, gt and wavelength must be positive")


RX_POWER_MODES = ("radar_los", "compop_los", "radar_nlos", "compop_nlos")


def rx_power(mode: str, p: LinkBudgetParams) -> float:
    """Received power of active-radar vs cooperative one-way links.

    radar_los:   pt*gt*lam^2*rcs / (64 pi^3 R^4)          (round trip off the target)
    compop_los:  pt*gt*lam^2 / (4 pi R)^2                 (one way, no cross-section)
    radar_nlos:  pt*gt*lam^2*rcs*rcs_s^2 / (4^5 pi^5 R1^4 R2^4)
    compop_nlos: pt*gt*lam^2*rcs_s / (64 pi^3 R1^2 R2^2)
    """
    lam2 = p.wavelength**2
    num = p.pt * p.gt * lam2
    if mode == "radar_los":
        _need(p.r, "r")
        return num * rcs(p.theta_i, p.s2, p.gamma_s0) / (64.0 * math.pi**3 * p.r**4)
    if mode == "compop_los":
        _need(p.r, "r")
        return num / (4.0 * math.pi * p.r) ** 2
    if mode == "radar_nlos":
        _need(p.r1, "r1")
        _need(p.r2, "r2")
        if p.theta_i_surface is None:
            raise ValueError("radar_nlos needs theta_i_surface")
        sig = rcs(p.theta_i, p.s2, p.gamma_s0)
        sig_s = rcs(p.theta_i_surface, p.s2, p.gamma_s0)
        return num * sig * sig_s**2 / (4.0**5 * math.pi**5 * p.r1**4 * p.r2**4)
    if mode == "compop_nlos":
        _need(p.r1, "r1")
        _need(p.r2, "r2")
        if p.theta_i_surface is None:
            raise ValueError("compop_nlos needs theta_i_surface")
        sig_s = rcs(p.theta_i_surface, p.s2, p.gamma_s0)
        return num * sig_s / (64.0 * math.pi**3 * p.r1**2 * p.r2**2)
    raise ValueError(f"unknown mode {mode!r}; expected one of {RX_POWER_MODES}")


def _need(value, name):
    if value is None or value <= 0:
        raise ValueError(f"{name} must be a positive distance")


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
