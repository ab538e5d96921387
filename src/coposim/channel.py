"""Forward channel simulation producing demodulated per-path symbol blocks.

Each propagation path (line of sight and/or one specular bounce per surface)
is the transmit image it propagates from, ``Scene.images``: its flight times
are the distances from that image to the receive antennas.  It yields, per
receive antenna, two 2-vectors of signature symbols and one K-vector of SFCW
symbols.  The signatures of every path are simulated at once;
the SFCW symbols one path per call, demodulated with the receiver's clock
estimate for that path, since the receiver syncs on a path before it images
it.  Every path arrives at unit amplitude (sync reads phase differences, and
the SFCW noise and the peak threshold scale with the path's own power);
Doppler is out of scope for a single snapshot.  The SFCW symbols of a path
sum, over transmit antennas, one phasor per tone; the comb is uniform, so each
antenna pair's phasors follow from two complex exponentials by a recurrence
along the tones rather than one exponential per (antenna pair, tone).

Noise streams are derived from (seed, domain, path, antenna) counters, so
observations are bit-identical no matter how generation is parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, Scene, distance_matrix
from .waveform import FrequencyGrid, SignatureConfig

_DOMAIN_SIGNATURE = 1
_DOMAIN_SFCW = 2


@dataclass(frozen=True)
class NoiseModel:
    """Noise injection for both waveforms.

    ``phase_sigma`` is the standard deviation (rad) of the error on each
    antenna's measured inter-tone phase difference; it is realised as
    independent rotations of phase_sigma/sqrt(2) on the two tone symbols.
    ``snr_db`` sets complex AWGN on the SFCW symbols relative to the mean
    received symbol power of the path (None disables it).
    """

    phase_sigma: float = 1.0e-3
    snr_db: float | None = 10.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.phase_sigma < 0:
            raise ValueError("phase_sigma must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


NOISELESS = NoiseModel(phase_sigma=0.0, snr_db=None, rng_seed=0)


@dataclass(frozen=True)
class PathObservation:
    """Demodulated signature symbols for one resolved propagation path.

    ``sig_a`` / ``sig_b`` have shape (N_r, 2): anchor tone and anchor tone
    + delta.  Paths are told apart by their true ``path_id``, standing in for
    angular separation at the receiver.
    """

    path_id: int
    sig_a: np.ndarray
    sig_b: np.ndarray


def _cell_rng(seed: int, domain: int, path_id: int, antenna: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, path_id, antenna))
    return np.random.default_rng(ss)


def simulate_signature(scene: Scene, sig: SignatureConfig, noise: NoiseModel) -> list[PathObservation]:
    """Demodulated signature symbols for every propagation path of the scene.

    A path's flight times run from the two anchors of its transmit image;
    its (N_r, 4) symbols are exp(j*2*pi*f*(sigma - tau)) at the tones
    f_a, f_a + delta, f_b, f_b + delta, plus the phase jitter.
    """
    sigma = scene.clock_offset
    tone_sigma = noise.phase_sigma / math.sqrt(2.0)
    coef = 2.0 * math.pi * np.array([sig.f_a, sig.f_a + sig.delta, sig.f_b, sig.f_b + sig.delta])
    out = []
    for path_id, image in scene.images.items():
        tau = distance_matrix(image[list(scene.anchor_indices)], scene.sv_antennas) / SPEED_OF_LIGHT
        jitter = np.zeros((scene.n_sv, 4))
        if noise.phase_sigma > 0:
            jitter = np.array([_cell_rng(noise.rng_seed, _DOMAIN_SIGNATURE, path_id, m).standard_normal(4)
                               for m in range(scene.n_sv)]) * tone_sigma
        symbols = np.exp(1j * (coef * (sigma - tau[[0, 0, 1, 1]].T) + jitter))
        out.append(PathObservation(path_id=path_id, sig_a=symbols[:, 0:2], sig_b=symbols[:, 2:4]))
    return out


def simulate_sfcw(scene: Scene, grid: FrequencyGrid, noise: NoiseModel, path_id: int,
                  sigma_estimate: float) -> np.ndarray:
    """Demodulated SFCW symbols y[m, k] of path ``path_id``, shape (N_r, K).

    The receiver demodulates with its clock-difference estimate for this
    path; the residual offset (sigma - sigma_estimate) stays in the symbol
    phases exactly as an uncorrected ranging bias would.  Noise streams are
    keyed by path and antenna, so a path's symbols do not depend on the other
    paths of the scene.

    The tones are uniform, so with phi = residual - tau per (TV, SV) antenna
    pair, exp(j*2*pi*f_(k+1)*phi) = exp(j*2*pi*f_k*phi) * exp(j*2*pi*delta*phi).
    Each pair takes two direct exponentials, at f_1 and at the step delta,
    and each tone's phasors are the previous tone's times the step, summed
    over transmit antennas.  The argument 2*pi*f_1*phi is some 1e4 rad, so
    its rounding, a few 1e-12 rad, bounds the agreement with one exponential
    per (pair, tone) either way; the K multiplications add about K * 1e-16.
    """
    sigma = scene.clock_offset
    tau = distance_matrix(scene.images[path_id], scene.sv_antennas) / SPEED_OF_LIGHT
    phi = (sigma - sigma_estimate) - tau                                # (N_t, N_r)

    phasor = np.exp((2j * math.pi * grid.f1) * phi)
    step = np.exp((2j * math.pi * grid.delta) * phi)
    y = np.empty((grid.tones, scene.n_sv), dtype=complex)
    for k in range(grid.tones):
        np.sum(phasor, axis=0, out=y[k])
        phasor *= step
    y = y.T.copy()   # (N_r, K) in row order, as the noise and the imaging read it

    if noise.snr_db is not None and math.isfinite(noise.snr_db):
        mean_power = float(np.mean(np.abs(y) ** 2))
        var = mean_power * 10.0 ** (-noise.snr_db / 10.0)
        std = math.sqrt(var / 2.0)
        for m in range(scene.n_sv):
            rng = _cell_rng(noise.rng_seed, _DOMAIN_SFCW, path_id, m)
            draws = rng.standard_normal(2 * grid.tones)
            y[m] += std * (draws[0::2] + 1j * draws[1::2])
    return y
