"""Forward channel simulation producing demodulated per-path symbol blocks.

Each propagation path (line of sight and/or one specular bounce per surface)
is the transmit image it propagates from, ``Scene.images``: its flight times
are its lengths to the receive antennas, ``Scene.lengths``.  The signatures of
every path are simulated at once, one (2, N_r, 2) block per path (anchor a's
two tones at each receive antenna, then anchor b's) keyed like the images; the
SFCW symbols, one K-vector per receive antenna, one path per call, demodulated
with the receiver's clock estimate for that path, since the receiver syncs on
a path before it images it.  Every path arrives at unit amplitude (sync reads
phase differences, and the SFCW noise and the peak threshold scale with the
path's own power); Doppler is out of scope for a single snapshot.  The SFCW
symbols of a path sum, over transmit antennas, one phasor per tone; the comb
is uniform, so each antenna pair's phasors follow from two complex exponentials
by a recurrence along the tones, not one exponential per (antenna pair, tone).

Each (path, receive antenna) cell draws its jitter (domain 1) and SFCW noise
(domain 2) from numpy's seed sequence for (seed, domain, path, antenna), which
``_cell_rngs`` seeds for all of a call's cells at once (``TestNoiseStreams``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .geometry import SPEED_OF_LIGHT, Scene
from .waveform import FrequencyGrid

_DOMAIN_SIGNATURE = 1
_DOMAIN_SFCW = 2

# numpy's SeedSequence hash constants (a pool of 4 uint32 words, shifts of 16).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


@dataclass(frozen=True)
class _SeedWords(ISeedSequence):
    """A cell's hashed seed: the four uint64 words PCG64 asks its seed sequence for."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _cell_rngs(seed: int, domain: int, path_ids: list[int], n_antennas: int) -> list[np.random.Generator]:
    """The generators of every (path, antenna) cell, path-major, seeded in one pass.

    Cell (p, m) draws from ``default_rng(SeedSequence(entropy=seed, spawn_key=(domain, p, m)))``
    (``TestNoiseStreams``).  Its entropy words (the seed's, zero-padded to the pool, then domain,
    path, antenna) are hashed in lockstep: a seed sequence per cell took longer than its draws.
    """
    def steps(const, mult):    # the constant's (xor, multiply) steps; as Python ints nothing warns
        while True:
            yield const, (const := const * mult & _MASK32)

    def hashmix(values, chain, n):    # with each of the chain's next n steps, as n rows
        xor, mul = np.array([next(chain) for _ in range(n)], dtype=np.uint32).T[:, :, None]
        values = (values ^ xor) * mul    # uint32 arrays wrap silently
        return values ^ values >> 16

    def mix(rows, values):
        out = _MIX_MULT_L * rows - _MIX_MULT_R * hashmix(values, chain, len(rows))
        return out ^ out >> 16

    words = [int(seed) >> shift & _MASK32 for shift in range(0, max(int(seed).bit_length(), 1), 32)]
    chain = steps(_INIT_A, _MULT_A)
    pool = hashmix(np.array((words + [0, 0, 0])[:4], dtype=np.uint32)[:, None], chain, 4)
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        pool[dst] = mix(pool[dst], pool[src])
    for word in words[4:] + [domain, np.repeat(np.asarray(path_ids, dtype=np.uint32), n_antennas),
                             np.tile(np.arange(n_antennas, dtype=np.uint32), len(path_ids))]:
        pool = mix(pool, word)
    state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], steps(_INIT_B, _MULT_B), 8)
    seeds = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedWords(s))) for s in seeds]


def simulate_signature(scene: Scene, grid: FrequencyGrid, phase_sigma: float,
                       seed: int) -> dict[int, np.ndarray]:
    """Demodulated signature symbols of every propagation path, keyed like ``Scene.images``.

    Paths are told apart by their true id, standing in for angular separation
    at the receiver.  A path's (2, N_r, 2) symbols hold anchor a's block, then
    anchor b's: at antenna m, exp(j*2*pi*f*(sigma - tau_m)) at the anchor's
    tone f of ``grid.anchor_tones`` and at f + delta, plus the phase jitter,
    with tau_m read off the anchor's row of ``Scene.lengths``.  The jitter is
    an independent rotation of phase_sigma/sqrt(2) rad on each tone symbol, so
    each antenna's inter-tone phase difference errs by phase_sigma.
    """
    f_a, f_b = grid.anchor_tones
    coef = 2.0 * math.pi * np.array([[f_a, f_a + grid.delta], [f_b, f_b + grid.delta]])
    tau = np.array([d[list(scene.anchor_indices)] for d in scene.lengths.values()]) / SPEED_OF_LIGHT
    jitter = np.zeros((len(tau), scene.n_sv, 2, 2))   # (path, antenna) cells of 2 x 2 tones
    if phase_sigma > 0:
        rngs = _cell_rngs(seed, _DOMAIN_SIGNATURE, list(scene.images), scene.n_sv)
        jitter = (np.array([rng.standard_normal(4) for rng in rngs]).reshape(jitter.shape)
                  * (phase_sigma / math.sqrt(2.0)))
    symbols = np.exp(1j * (coef[:, None, :] * (scene.clock_offset - tau[..., None])
                           + jitter.transpose(0, 2, 1, 3)))
    return dict(zip(scene.images, symbols))


def simulate_sfcw(scene: Scene, grid: FrequencyGrid, snr_db: float | None, seed: int,
                  path_id: int, sigma_estimate: float) -> np.ndarray:
    """Demodulated SFCW symbols y[m, k] of path ``path_id``, shape (N_r, K).

    The receiver demodulates with its clock-difference estimate for this
    path; the residual offset (sigma - sigma_estimate) stays in the symbol
    phases exactly as an uncorrected ranging bias would.  Complex AWGN is
    added at ``snr_db`` relative to the path's mean symbol power (None adds
    none, and +inf adds exact zeros).

    The tones are uniform, so with phi = residual - tau per (TV, SV) antenna
    pair, exp(j*2*pi*f_(k+1)*phi) = exp(j*2*pi*f_k*phi) * exp(j*2*pi*delta*phi).
    Each pair takes two direct exponentials, at f_1 and at the step delta,
    and each tone's phasors are the previous tone's times the step, summed
    over transmit antennas.  The argument 2*pi*f_1*phi is some 1e4 rad, so
    its rounding, a few 1e-12 rad, bounds the agreement with one exponential
    per (pair, tone) either way; the K multiplications add about K * 1e-16.
    """
    sigma = scene.clock_offset
    tau = scene.lengths[path_id] / SPEED_OF_LIGHT
    phi = (sigma - sigma_estimate) - tau                                # (N_t, N_r)

    phasor = np.exp((2j * math.pi * grid.f1) * phi)
    step = np.exp((2j * math.pi * grid.delta) * phi)
    y = np.empty((grid.tones, scene.n_sv), dtype=complex)
    for k in range(grid.tones):
        np.sum(phasor, axis=0, out=y[k])
        phasor *= step
    y = y.T.copy()   # (N_r, K) in row order, as the noise and the imaging read it

    if snr_db is not None:
        std = math.sqrt(float(np.mean(np.abs(y) ** 2)) * 10.0 ** (-snr_db / 10.0) / 2.0)
        draws = np.array([rng.standard_normal(2 * grid.tones)
                          for rng in _cell_rngs(seed, _DOMAIN_SFCW, [path_id], scene.n_sv)])
        y += std * (draws[:, 0::2] + 1j * draws[:, 1::2])
    return y
