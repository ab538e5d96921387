"""Forward channel simulation producing demodulated per-path symbol blocks.

Each propagation path (line of sight and/or one specular bounce per surface)
yields, per receive antenna: two 2-vectors of signature symbols and one
K-vector of SFCW symbols.  Channel fading is held constant and folded into the
per-path reflection coefficient; Doppler is out of scope for a single snapshot.
The SFCW symbols of a path sum, over transmit antennas, one phasor per tone;
the comb is uniform, so they are built by a phase recurrence along the tones
in short blocks rather than one complex exponential per (antenna pair, tone).

Noise streams are derived from (seed, domain, path, antenna) counters, so
observations are bit-identical no matter how generation is parallelised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, Scene, path_length_matrix
from .waveform import FrequencyGrid, SignatureConfig

_DOMAIN_SIGNATURE = 1
_DOMAIN_SFCW = 2
# SFCW tones per recurrence block: one direct exponential per (TV, SV) antenna
# pair and block, the rest from step powers computed once per path.
_TONE_BLOCK = 16


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

    @property
    def noiseless(self) -> bool:
        return self.phase_sigma == 0.0 and self.snr_db is None


NOISELESS = NoiseModel(phase_sigma=0.0, snr_db=None, rng_seed=0)


@dataclass(frozen=True)
class PathObservation:
    """Demodulated symbols for one resolved propagation path.

    ``sig_a`` / ``sig_b`` have shape (N_r, 2): anchor tone and anchor tone
    + delta.  ``sfcw`` has shape (N_r, K).  Paths are told apart by their
    true ``path_id``, standing in for angular separation at the receiver.
    """

    path_id: int
    gamma: complex
    sig_a: np.ndarray | None = None
    sig_b: np.ndarray | None = None
    sfcw: np.ndarray | None = None


def _cell_rng(seed: int, domain: int, path_id: int, antenna: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, path_id, antenna))
    return np.random.default_rng(ss)


def _signature_block(tau: np.ndarray, tones: tuple[float, float], sigma: float,
                     gamma: complex, noise: NoiseModel, path_id: int,
                     anchor_tag: int) -> np.ndarray:
    """Symbols gamma * exp(j*2*pi*f*(sigma - tau)) for both tones, phase-jittered."""
    n_rx = len(tau)
    phases = np.empty((n_rx, 2))
    for col, f in enumerate(tones):
        phases[:, col] = 2.0 * math.pi * f * (sigma - tau)
    if noise.phase_sigma > 0:
        jitter = np.empty((n_rx, 2))
        tone_sigma = noise.phase_sigma / math.sqrt(2.0)
        for m in range(n_rx):
            rng = _cell_rng(noise.rng_seed, _DOMAIN_SIGNATURE, path_id, m)
            draws = rng.standard_normal(4) * tone_sigma
            jitter[m] = draws[0:2] if anchor_tag == 0 else draws[2:4]
        phases += jitter
    return gamma * np.exp(1j * phases)


def simulate_signature(scene: Scene, sig: SignatureConfig, noise: NoiseModel) -> list[PathObservation]:
    """Demodulated signature symbols for every propagation path of the scene."""
    sigma = scene.clock_offset
    out = []
    for path_id, surface in scene.path_surfaces():
        gamma = 1.0 + 0.0j if surface is None else complex(surface.gamma)
        tau_a = path_length_matrix(surface, scene.anchor_a[None, :], scene.sv_antennas)[0] / SPEED_OF_LIGHT
        tau_b = path_length_matrix(surface, scene.anchor_b[None, :], scene.sv_antennas)[0] / SPEED_OF_LIGHT
        sig_a = _signature_block(tau_a, (sig.f_a, sig.f_a + sig.delta), sigma, gamma,
                                 noise, path_id, anchor_tag=0)
        sig_b = _signature_block(tau_b, (sig.f_b, sig.f_b + sig.delta), sigma, gamma,
                                 noise, path_id, anchor_tag=1)
        out.append(PathObservation(path_id=path_id, gamma=gamma, sig_a=sig_a, sig_b=sig_b))
    return out


def simulate_sfcw(scene: Scene, grid: FrequencyGrid, noise: NoiseModel,
                  sigma_estimate: float | dict[int, float] = 0.0,
                  path_ids: list[int] | None = None) -> list[PathObservation]:
    """Demodulated SFCW symbols y[m, k] for every propagation path.

    The receiver demodulates with its clock-difference estimate; for path
    ``p`` the residual offset (sigma - sigma_estimate[p]) stays in the symbol
    phases exactly as an uncorrected ranging bias would.  ``path_ids``
    restricts simulation to a subset of paths (noise streams are keyed by path
    and antenna, so a subset run reproduces the full run bit for bit).

    The tones are uniform, so with phi = residual - tau per (TV, SV) antenna
    pair, exp(j*2*pi*f_k*phi) = exp(j*2*pi*f_lo*phi) * exp(j*2*pi*delta*phi)^(k-lo).
    The tones are taken in blocks of ``_TONE_BLOCK``: one direct exponential
    at each block's first tone, times the step powers (computed once per
    path), contracted over transmit antennas in one product per block.
    """
    sigma = scene.clock_offset
    out = []
    for path_id, surface in scene.path_surfaces():
        if path_ids is not None and path_id not in path_ids:
            continue
        gamma = 1.0 + 0.0j if surface is None else complex(surface.gamma)
        est = sigma_estimate.get(path_id, 0.0) if isinstance(sigma_estimate, dict) else float(sigma_estimate)
        tau = path_length_matrix(surface, scene.tv_antennas, scene.sv_antennas) / SPEED_OF_LIGHT
        phi = (sigma - est) - tau                                      # (N_t, N_r)

        block = min(_TONE_BLOCK, grid.tones)
        steps = np.exp((2j * math.pi * grid.delta) * phi[:, :, None] * np.arange(block))
        y = np.empty((scene.n_sv, grid.tones), dtype=complex)
        for lo in range(0, grid.tones, block):
            hi = min(lo + block, grid.tones)
            base = np.exp((2j * math.pi * (grid.f1 + lo * grid.delta)) * phi)
            y[:, lo:hi] = np.einsum("tr,trk->rk", base, steps[:, :, :hi - lo])
        y *= gamma

        if noise.snr_db is not None and math.isfinite(noise.snr_db):
            mean_power = float(np.mean(np.abs(y) ** 2))
            var = mean_power * 10.0 ** (-noise.snr_db / 10.0)
            std = math.sqrt(var / 2.0)
            for m in range(scene.n_sv):
                rng = _cell_rng(noise.rng_seed, _DOMAIN_SFCW, path_id, m)
                draws = rng.standard_normal(2 * grid.tones)
                y[m] += std * (draws[0::2] + 1j * draws[1::2])

        out.append(PathObservation(path_id=path_id, gamma=gamma, sfcw=y))
    return out
