"""Anchor localization and clock-difference estimation from two-tone phases.

Each receive antenna m measures the phase difference between the two signature
tones, eta_m = 2*pi*delta*(tau_m - sigma), where tau_m is the flight time from
the anchor and sigma the unknown transmitter-receiver clock offset.  Offsetting
against antenna 1 cancels sigma and yields noisy range differences

    F_m = c * (eta_m - eta_1) / (2*pi*delta) = D(x, p_m) - D(x, p_1),

a hyperbolic multilateration problem.  The start is closed-form, one linear
least-squares solve of all the range-difference equations, and damped
Gauss-Newton iteration then refines it.  With the anchor located, sigma is
recovered by subtracting the recomputed flight times from the measured phases
and averaging over antennas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGeometryError, FeasibilityError, UnwrapAmbiguityError
from .geometry import SPEED_OF_LIGHT, as_xyz
from .waveform import sync_spacing_bound

_MIN_ANTENNAS = 4


@dataclass(frozen=True)
class PdoaMeasurement:
    """Unwrapped inter-tone phase differences and derived range differences.

    ``phase_diffs`` has one entry per receive antenna (rad); ``range_diffs``
    holds F_m for m = 2..N_r in meters, referenced to antenna 1.
    """

    phase_diffs: np.ndarray
    range_diffs: np.ndarray
    anchor: str
    delta: float

    def __post_init__(self):
        if len(self.range_diffs) != len(self.phase_diffs) - 1:
            raise ValueError("range_diffs must have one entry fewer than phase_diffs")
        if not (np.isfinite(self.phase_diffs).all() and np.isfinite(self.range_diffs).all()):
            raise ValueError("measurement entries must be finite")


@dataclass(frozen=True)
class SyncResult:
    """Outcome of one anchor solve."""

    x_anchor: np.ndarray
    sigma_hat: float
    covariance: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


def measure_pdoa(observation, anchor: str, delta: float,
                 sv_antennas: np.ndarray | None = None) -> PdoaMeasurement:
    """Extract range differences from one path's signature symbols.

    Phases are unwrapped sequentially in antenna-index order, valid while
    adjacent antennas sit closer than c/(2*delta); pass ``sv_antennas`` to
    enforce that bound.
    """
    symbols = observation.sig_a if anchor == "a" else observation.sig_b
    if symbols is None:
        raise ValueError(f"observation carries no signature symbols for anchor {anchor!r}")
    if sv_antennas is not None:
        sv = as_xyz(sv_antennas)
        step = np.linalg.norm(np.diff(sv, axis=0), axis=1)
        bound = sync_spacing_bound(delta)
        if len(step) and float(step.max()) > bound:
            raise UnwrapAmbiguityError(
                f"consecutive antenna spacing {step.max():.3g} m exceeds the "
                f"unambiguous bound {bound:.3g} m"
            )
    raw = np.angle(symbols[:, 0] * np.conj(symbols[:, 1]))
    eta = np.unwrap(raw)
    scale = SPEED_OF_LIGHT / (2.0 * math.pi * delta)
    return PdoaMeasurement(phase_diffs=eta, range_diffs=scale * (eta[1:] - eta[0]),
                           anchor=anchor, delta=delta)


def _range_diff_model(x: np.ndarray, sv: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(sv - x[None, :], axis=1)
    return d[1:] - d[0]


def _jacobian(x: np.ndarray, sv: np.ndarray) -> np.ndarray:
    diff = x[None, :] - sv
    dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
    units = diff / dist[:, None]
    return units[1:] - units[0]


def _ssq(x: np.ndarray, sv: np.ndarray, measured: np.ndarray) -> float:
    r = measured - _range_diff_model(x, sv)
    return float(r @ r)


def _gn_step(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal-equation step (G^T G)^{-1} G^T b, ridge-stabilised when near singular."""
    gtg = G.T @ G
    if not np.isfinite(gtg).all():
        raise np.linalg.LinAlgError("non-finite normal matrix")
    rhs = G.T @ b
    if np.linalg.cond(gtg) > 1e12:
        gtg = gtg + 1e-9 * max(np.trace(gtg) / 3.0, 1e-30) * np.eye(3)
    return np.linalg.solve(gtg, rhs)


def _canonical_halfspace(x: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Resolve the mirror ambiguity of a strictly planar array.

    All distances to a z = z0 plane are even in (x_z - z0), so a solution below
    the plane is the exact mirror twin of the physical one above it (the
    aperture faces the arrival direction); reflect it back.
    """
    if np.ptp(sv[:, 2]) < 1e-9:
        z0 = float(sv[0, 2])
        if x[2] < z0:
            x = x.copy()
            x[2] = 2.0 * z0 - x[2]
    return x


def initial_guess(measurement: PdoaMeasurement, sv_antennas) -> np.ndarray:
    """Closed-form starting point from all range-difference equations at once.

    With q_m = p_m - p_1, u = x - p_1 and r = |u|, each range difference gives
    one equation linear in (u, r): 2 q_m.u + 2 F_m r = |q_m|^2 - F_m^2 (Chan &
    Ho, "A simple and efficient estimator for hyperbolic location", IEEE
    Trans. SP 42(8), 1994).  It is solved in least squares over the span of the
    array.  A planar array fixes only the in-plane part of u; the normal part
    is sqrt(r^2 - |u|^2), on the side the aperture faces.  An array that spans
    less than a plane raises ``DegenerateGeometryError``.
    """
    sv = as_xyz(sv_antennas)
    if len(sv) < _MIN_ANTENNAS:
        raise FeasibilityError(f"need at least {_MIN_ANTENNAS} antennas, got {len(sv)}")
    f = measurement.range_diffs
    q = sv[1:] - sv[0]
    _, s, vt = np.linalg.svd(q)
    rank = int(np.sum(s > 1e-9 * s[0]))
    if rank < 2:
        raise DegenerateGeometryError(f"antenna array spans {rank} dimension(s); need 2 or 3")
    basis = vt[:rank]
    lhs = np.column_stack([2.0 * q @ basis.T, 2.0 * f])
    sol = np.linalg.lstsq(lhs, (q * q).sum(axis=1) - f * f, rcond=None)[0]
    u = sol[:rank] @ basis
    if rank == 2:
        u = u + math.sqrt(max(sol[2] ** 2 - u @ u, 0.0)) * vt[2]
    return _canonical_halfspace(sv[0] + u, sv)


def locate_anchor(measurement: PdoaMeasurement, sv_antennas, guess,
                  noise_std_m: float | None = None,
                  step_tol: float = 1e-9, max_iter: int = 100) -> SyncResult:
    """Gauss-Newton minimisation of the squared range-difference misfit.

    Steps h = (G^T G)^{-1} G^T b are halved (up to 20 times) whenever they
    would increase the residual, which keeps the objective non-increasing
    without moving the fixed point.  The covariance of the estimate is
    sigma_F^2 * (G^T G)^{-1}, with sigma_F the measurement noise in meters.
    """
    sv = as_xyz(sv_antennas)
    if len(sv) < _MIN_ANTENNAS:
        raise FeasibilityError(f"need at least {_MIN_ANTENNAS} antennas, got {len(sv)}")
    f = measurement.range_diffs
    x = as_xyz(guess).astype(float).copy()

    converged = False
    it = 0
    cost = _ssq(x, sv, f)
    for it in range(1, max_iter + 1):
        G = _jacobian(x, sv)
        b = f - _range_diff_model(x, sv)
        try:
            h = _gn_step(G, b)
        except np.linalg.LinAlgError as exc:
            raise DegenerateGeometryError(f"anchor solve failed: {exc}") from exc

        step = h
        new_cost = _ssq(x + step, sv, f)
        halvings = 0
        while new_cost > cost and halvings < 20:
            step = 0.5 * step
            new_cost = _ssq(x + step, sv, f)
            halvings += 1
        x = x + step
        cost = new_cost
        if np.linalg.norm(step) < step_tol:
            converged = True
            break

    x = _canonical_halfspace(x, sv)
    G = _jacobian(x, sv)
    gtg = G.T @ G
    if converged and np.linalg.cond(gtg) > 1e12:
        raise DegenerateGeometryError("rank-deficient array geometry in anchor solve")
    scale = noise_std_m**2 if noise_std_m is not None else 1.0
    cov = scale * np.linalg.pinv(gtg)
    cov = 0.5 * (cov + cov.T)
    return SyncResult(x_anchor=x, sigma_hat=math.nan, covariance=cov,
                      iterations=it, converged=converged,
                      residual_norm=math.sqrt(cost))


def estimate_clock(x_anchor, measurement: PdoaMeasurement, sv_antennas) -> float:
    """Clock difference as the mean over antennas of tau_m - eta_m/(2*pi*delta)."""
    sv = as_xyz(sv_antennas)
    x = as_xyz(x_anchor)
    tau = np.linalg.norm(sv - x[None, :], axis=1) / SPEED_OF_LIGHT
    sigma_m = tau - measurement.phase_diffs / (2.0 * math.pi * measurement.delta)
    return float(np.mean(sigma_m))


def locate_and_sync(observation, anchor: str, delta: float, sv_antennas,
                    noise_std_m: float | None = None) -> SyncResult:
    """Convenience chain: measure, guess, locate, then estimate the clock."""
    meas = measure_pdoa(observation, anchor, delta, sv_antennas=sv_antennas)
    guess = initial_guess(meas, sv_antennas)
    result = locate_anchor(meas, sv_antennas, guess, noise_std_m=noise_std_m)
    sigma = estimate_clock(result.x_anchor, meas, sv_antennas)
    return replace(result, sigma_hat=sigma)
