"""Frequency grids and validity bounds for the multi-tone ranging waveforms.

Two waveforms share the channel: a stepped-frequency continuous wave (SFCW)
comb used for imaging, and two-tone signature waveforms on two anchor antennas
used for clock-difference estimation; ``FrequencyGrid`` states both, and the
beat period 1/delta.  Only demodulated symbols are modelled, never passband samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import SPEED_OF_LIGHT, Scene, distance_matrix

MIN_SYNC_ANTENNAS = 4   # fewest receive antennas sync takes: 3 range differences
MIN_FUSED_PATHS = 3     # fewest same-clock paths fusion takes


@dataclass(frozen=True)
class FrequencyGrid:
    """SFCW tone comb f_k = f1 + (k-1)*delta for k = 1..tones, and the signature tones below it."""

    f1: float
    tones: int
    delta: float

    def __post_init__(self):
        if self.f1 <= 0 or self.delta <= 0:
            raise ConfigError("f1 and delta must be positive")
        if self.tones < 2:
            raise ConfigError("an SFCW grid needs at least two tones")
        if self.anchor_tones[1] <= 0:
            raise ConfigError("signature tones and delta must be positive")

    @property
    def frequencies(self) -> np.ndarray:
        return self.f1 + self.delta * np.arange(self.tones)

    @property
    def f_max(self) -> float:
        return self.f1 + self.delta * (self.tones - 1)

    @property
    def center(self) -> float:
        return 0.5 * (self.f1 + self.f_max)

    @property
    def bandwidth(self) -> float:
        return self.f_max - self.f1

    @property
    def anchor_tones(self) -> tuple[float, float]:
        """Lower tone of anchor a's and anchor b's signature pair, f1 - 2*delta and f1 - 4*delta."""
        return self.f1 - 2 * self.delta, self.f1 - 4 * self.delta

    @property
    def period(self) -> float:
        """The beat period 1/delta: clock differences are read modulo it."""
        return 1.0 / self.delta


def max_unambiguous_range(delta: float) -> float:
    """Largest range spread the comb can represent without phase wrap, c/delta."""
    return SPEED_OF_LIGHT / delta


def sync_spacing_bound(delta: float) -> float:
    """Maximum step between consecutive receive antennas for unambiguous unwrapping, c/(2*delta)."""
    return SPEED_OF_LIGHT / (2.0 * delta)


def aperture_spacing_bound(f_center: float) -> float:
    """Alias-free aperture sampling interval c/(4*f_c), worst case over range."""
    return SPEED_OF_LIGHT / (4.0 * f_center)


def validate_scene(scene: Scene, grid: FrequencyGrid) -> list[str]:
    """Check sampling and feasibility conditions for the recovery pipeline.

    Each path is the transmit image it propagates from (``Scene.images``): the
    range spread is read off its lengths, the side of the array off its image.
    Aperture undersampling (nearest-neighbour spacing above c/(4 f_c)) is only
    a warning: sparse point targets remain detectable under aliasing, at the
    price of higher sidelobes.  Feasibility conditions, a step between
    consecutive antennas too wide to unwrap phases across (sync unwraps in
    antenna-index order) and range-span overflow are hard errors.  It is the
    one check of the built scene, run by every trial before sync: the step
    bound holds for ``sync.measure_pdoa``, and the antenna count for
    ``sync.initial_guess`` and ``sync.locate_anchor``, which do not check again.
    Returns the warnings, and raises one ``ConfigError`` holding every error,
    joined by "; ".
    """
    errors, warnings = [], []
    sv = scene.sv_antennas

    pairs = distance_matrix(sv, sv)
    np.fill_diagonal(pairs, np.inf)
    spacing = float(pairs.min(axis=1).max())   # largest nearest-neighbour distance
    nyq = aperture_spacing_bound(grid.center)
    if spacing > nyq:
        warnings.append(
            f"aperture sampling {spacing:.4g} m exceeds the alias-free bound "
            f"{nyq:.4g} m at f_c = {grid.center / 1e9:.4g} GHz"
        )
    step = float(np.linalg.norm(np.diff(sv, axis=0), axis=1).max(initial=0.0))
    sync_bound = sync_spacing_bound(grid.delta)
    if step > sync_bound:
        errors.append(
            f"consecutive antenna spacing {step:.4g} m exceeds the phase-unwrap "
            f"bound {sync_bound:.4g} m"
        )

    # Range spread across the scene must fit in one ambiguity interval of the comb.
    r_max = max_unambiguous_range(grid.delta)
    span = max((float(np.ptp(lengths)) for lengths in scene.lengths.values()), default=0.0)
    if span > r_max:
        errors.append(
            f"scene path-length spread {span:.4g} m exceeds the unambiguous range "
            f"{r_max:.4g} m for delta = {grid.delta / 1e6:.4g} MHz"
        )

    # Distances to a planar array do not tell a point from its mirror twin behind
    # it, and sync keeps the twin in front: a point at or behind it is lost.
    front = min(float(p[:, 2].min()) for p in (scene.tv_antennas, *scene.images.values()))
    array_z = float(sv[:, 2].max())
    if front <= array_z:
        errors.append(f"a transmit antenna or its mirror image lies at z = {front:.4g} m, "
                      f"at or behind the receive array (z <= {array_z:.4g} m)")

    if scene.n_sv < MIN_SYNC_ANTENNAS:
        errors.append(f"clock-difference estimation needs at least {MIN_SYNC_ANTENNAS} "
                      f"receive antennas, got {scene.n_sv}")
    if not scene.has_los and len(scene.surfaces) < MIN_FUSED_PATHS:
        errors.append(
            f"recovery without line of sight needs at least {MIN_FUSED_PATHS} reflection "
            f"surfaces, got {len(scene.surfaces)}"
        )
    if errors:
        raise ConfigError("; ".join(errors))
    return warnings
