"""Frequency grids and validity bounds for the multi-tone ranging waveforms.

Two waveforms share the channel: a stepped-frequency continuous wave (SFCW)
comb used for imaging, and two-tone signature waveforms on two anchor antennas
used for clock-difference estimation.  Only demodulated symbols are modelled,
never passband samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import SPEED_OF_LIGHT, Scene, path_length_matrix


@dataclass(frozen=True)
class FrequencyGrid:
    """SFCW tone comb f_k = f1 + (k-1)*delta for k = 1..tones."""

    f1: float
    tones: int
    delta: float

    def __post_init__(self):
        if self.f1 <= 0 or self.delta <= 0:
            raise ConfigError("f1 and delta must be positive")
        if self.tones < 2:
            raise ConfigError("an SFCW grid needs at least two tones")

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


@dataclass(frozen=True)
class SignatureConfig:
    """Anchor-tone pairs {f_a, f_a+delta} and {f_b, f_b+delta}."""

    f_a: float
    f_b: float
    delta: float

    def __post_init__(self):
        if self.f_a <= 0 or self.f_b <= 0 or self.delta <= 0:
            raise ConfigError("signature tones and delta must be positive")
        if self.f_a == self.f_b:
            raise ConfigError("the two anchors need distinct signature tones")

    def tones(self) -> tuple[float, float, float, float]:
        return (self.f_a, self.f_a + self.delta, self.f_b, self.f_b + self.delta)

    def overlaps_band(self, grid: FrequencyGrid) -> bool:
        return any(grid.f1 <= f <= grid.f_max for f in self.tones())


def max_unambiguous_range(delta: float) -> float:
    """Largest range spread the comb can represent without phase wrap, c/delta."""
    if delta <= 0:
        raise ConfigError("delta must be positive")
    return SPEED_OF_LIGHT / delta


def sync_spacing_bound(delta: float) -> float:
    """Maximum adjacent receive-antenna spacing for unambiguous unwrapping, c/(2*delta)."""
    if delta <= 0:
        raise ConfigError("delta must be positive")
    return SPEED_OF_LIGHT / (2.0 * delta)


def aperture_spacing_bound(f_center: float) -> float:
    """Alias-free aperture sampling interval c/(4*f_c), worst case over range."""
    if f_center <= 0:
        raise ConfigError("center frequency must be positive")
    return SPEED_OF_LIGHT / (4.0 * f_center)


@dataclass
class ValidationReport:
    """Hard errors stop a run; warnings are reported but tolerated."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _max_adjacent_spacing(points: np.ndarray) -> float:
    """Largest nearest-neighbour distance among the antennas."""
    if len(points) < 2:
        return math.inf
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return float(d.min(axis=1).max())


def validate_scene(scene: Scene, grid: FrequencyGrid) -> ValidationReport:
    """Check sampling and feasibility conditions for the recovery pipeline.

    Aperture undersampling (spacing above c/(4 f_c)) is only a warning: sparse
    point targets remain detectable under aliasing, at the price of higher
    sidelobes.  Feasibility conditions and range-span overflow are hard errors.
    """
    report = ValidationReport()

    spacing = _max_adjacent_spacing(scene.sv_antennas)
    nyq = aperture_spacing_bound(grid.center)
    if spacing > nyq:
        report.warnings.append(
            f"aperture sampling {spacing:.4g} m exceeds the alias-free bound "
            f"{nyq:.4g} m at f_c = {grid.center / 1e9:.4g} GHz"
        )
    sync_bound = sync_spacing_bound(grid.delta)
    if spacing > sync_bound:
        report.errors.append(
            f"adjacent antenna spacing {spacing:.4g} m exceeds the phase-unwrap "
            f"bound {sync_bound:.4g} m"
        )

    # Range spread across the scene must fit in one ambiguity interval of the comb.
    r_max = max_unambiguous_range(grid.delta)
    span = _scene_range_spread(scene)
    if span > r_max:
        report.errors.append(
            f"scene path-length spread {span:.4g} m exceeds the unambiguous range "
            f"{r_max:.4g} m for delta = {grid.delta / 1e6:.4g} MHz"
        )

    if scene.n_sv < 4:
        report.errors.append(
            f"clock-difference estimation needs at least 4 receive antennas, got {scene.n_sv}"
        )
    if not scene.has_los and len(scene.surfaces) < 3:
        report.errors.append(
            f"recovery without line of sight needs at least 3 reflection surfaces, "
            f"got {len(scene.surfaces)}"
        )
    return report


def _scene_range_spread(scene: Scene) -> float:
    spread = 0.0
    for _, surface in scene.path_surfaces():
        d = path_length_matrix(surface, scene.tv_antennas, scene.sv_antennas)
        spread = max(spread, float(d.max() - d.min()))
    return spread
