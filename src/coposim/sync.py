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
and averaging over antennas.  The phase noise is the channel's
(``channel.simulate_signature``): an independent jitter of sigma_phi/sqrt(2)
on each tone symbol of each receive antenna, so the figures hold for an array on
one local oscillator: each F_m has the standard deviation sigma_F =
sqrt(2)*c*sigma_phi/(2*pi*delta), and a noiseless solve has zero covariance.
The array is taken as ``validate_scene`` passed it: ``MIN_SYNC_ANTENNAS`` or
more antennas, consecutive ones under c/(2*delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import SPEED_OF_LIGHT, as_xyz

# Gauss-Newton stops once a step moves the anchor less than this (m).
_STEP_TOL = 1e-9
# Past this condition number of G^T G a Gauss-Newton step is ridge-stabilised
# (``_gn_step``), and a converged anchor is refused as rank-deficient.
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class PdoaMeasurement:
    """Unwrapped inter-tone phase differences and derived range differences.

    ``phase_diffs`` has one entry per receive antenna (rad); ``range_diffs``
    holds F_m for m = 2..N_r in meters, referenced to antenna 1, formed once.
    """

    phase_diffs: np.ndarray
    delta: float

    def __post_init__(self):
        if not np.isfinite(self.phase_diffs).all():
            raise ValueError("measurement entries must be finite")

    range_diffs = cached_property(lambda self: SPEED_OF_LIGHT / (2.0 * math.pi * self.delta)
                                  * (self.phase_diffs[1:] - self.phase_diffs[0]))


@dataclass(frozen=True)
class SyncResult:
    """One anchor solve: the anchor, its clock, and the anchor's covariance in m^2."""

    x_anchor: np.ndarray
    sigma_hat: float
    covariance: np.ndarray
    iterations: int
    converged: bool


def measure_pdoa(symbols: np.ndarray, delta: float) -> PdoaMeasurement:
    """Unwrapped inter-tone phases of one anchor's (N_r, 2) block of signature symbols.

    Phases are unwrapped sequentially in antenna-index order, which is valid
    while consecutive antennas sit closer than c/(2*delta); ``validate_scene``
    refuses a wider step before any trial syncs.
    """
    eta = np.unwrap(np.angle(symbols[:, 0] * np.conj(symbols[:, 1])))
    return PdoaMeasurement(phase_diffs=eta, delta=delta)


def _misfit(x: np.ndarray, sv: np.ndarray, measured: np.ndarray):
    """Residual F - (D(x, p_m) - D(x, p_1)), its squared norm and its model's Jacobian at x."""
    diff = x[None, :] - sv
    dist = np.linalg.norm(diff, axis=1)
    r = measured - (dist[1:] - dist[0])
    units = diff / np.maximum(dist, 1e-12)[:, None]
    return r, float(r @ r), units[1:] - units[0]


def _gn_step(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal-equation step (G^T G)^{-1} G^T b, ridge-stabilised when near singular."""
    gtg = G.T @ G
    if not np.isfinite(gtg).all():
        raise np.linalg.LinAlgError("non-finite normal matrix")
    rhs = G.T @ b
    if np.linalg.cond(gtg) > _COND_LIMIT:
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
                  phase_sigma: float = 0.0, max_iter: int = 100) -> SyncResult:
    """Gauss-Newton minimisation of the squared range-difference misfit, then the clock.

    Steps h = (G^T G)^{-1} G^T b are halved (up to 20 times) whenever they
    would increase the residual, which keeps the objective non-increasing
    without moving the fixed point.  The residual and the Jacobian are formed
    together, once per point visited, and the accepted point's pair starts the
    next step and, unless ``_canonical_halfspace`` mirrors it, the covariance
    sigma_F^2 * (G^T G)^+, sigma_F formed from ``phase_sigma`` as the module
    docstring says, so it is zero without phase noise; the clock is
    ``estimate_clock`` at the converged anchor.
    """
    sv = as_xyz(sv_antennas)
    f = measurement.range_diffs
    x = as_xyz(guess).astype(float).copy()

    converged = False
    it = 0
    b, cost, G = _misfit(x, sv, f)
    for it in range(1, max_iter + 1):
        try:
            step = _gn_step(G, b)
        except np.linalg.LinAlgError as exc:
            raise DegenerateGeometryError(f"anchor solve failed: {exc}") from exc

        candidate = _misfit(x + step, sv, f)
        halvings = 0
        while candidate[1] > cost and halvings < 20:
            step = 0.5 * step
            candidate = _misfit(x + step, sv, f)
            halvings += 1
        x = x + step
        b, cost, G = candidate
        if np.linalg.norm(step) < _STEP_TOL:
            converged = True
            break

    flipped = _canonical_halfspace(x, sv)
    if flipped is not x:   # the accepted point's Jacobian serves unless the twin is taken
        x, G = flipped, _misfit(flipped, sv, f)[2]
    gtg = G.T @ G
    if converged and np.linalg.cond(gtg) > _COND_LIMIT:
        raise DegenerateGeometryError("rank-deficient array geometry in anchor solve")
    sigma_f = math.sqrt(2.0) * SPEED_OF_LIGHT * phase_sigma / (2.0 * math.pi * measurement.delta)
    cov = sigma_f**2 * np.linalg.pinv(gtg)
    cov = 0.5 * (cov + cov.T)
    return SyncResult(x_anchor=x, sigma_hat=estimate_clock(x, measurement, sv), covariance=cov,
                      iterations=it, converged=converged)


def estimate_clock(x_anchor, measurement: PdoaMeasurement, sv_antennas) -> float:
    """Clock difference as the mean over antennas of tau_m - eta_m/(2*pi*delta)."""
    sv = as_xyz(sv_antennas)
    x = as_xyz(x_anchor)
    tau = np.linalg.norm(sv - x[None, :], axis=1) / SPEED_OF_LIGHT
    sigma_m = tau - measurement.phase_diffs / (2.0 * math.pi * measurement.delta)
    return float(np.mean(sigma_m))


def locate_and_sync(symbols: np.ndarray, delta: float, sv_antennas,
                    phase_sigma: float = 0.0) -> SyncResult:
    """One anchor's whole solve from its (N_r, 2) block: measure, guess, then locate."""
    meas = measure_pdoa(symbols, delta)
    return locate_anchor(meas, sv_antennas, initial_guess(meas, sv_antennas), phase_sigma)
