import numpy as np
import pytest

from coposim.geometry import ReflectionSurface, Scene
from coposim.waveform import FrequencyGrid

# Reference simulation setup used across tests: 57-60 GHz comb, 11.72 MHz gap,
# signature tones just below the comb (``FrequencyGrid.anchor_tones``).
REF_DELTA = 11.72e6
REF_GRID = FrequencyGrid(f1=57e9, tones=256, delta=REF_DELTA)

# Three-reflector topology used by the NLoS experiments.
REF_SURFACES = (
    ReflectionSurface.from_trace(1.02, 3.0),
    ReflectionSurface.from_trace(0.25, 3.25),
    ReflectionSurface.from_trace(3.0, 4.0),
)


def square_array(n_side: int, extent: float, z: float = 0.0) -> np.ndarray:
    """n_side x n_side antenna grid on the plane z=const, centered at the origin."""
    axis = np.linspace(-extent / 2, extent / 2, n_side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1)
    return pts


def small_scene(sv: np.ndarray | None = None, tv: np.ndarray | None = None,
                surfaces=(), clock_offset: float = 12e-9, has_los: bool = True) -> Scene:
    if sv is None:
        sv = square_array(4, 1.0)
    if tv is None:
        tv = np.array([[0.5, 0.1, 8.0], [-0.4, -0.2, 8.3], [0.1, 0.3, 7.7]])
    return Scene(tv_antennas=tv, anchor_indices=(0, 1), sv_antennas=sv,
                 surfaces=tuple(surfaces), clock_offset=clock_offset, has_los=has_los)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
