"""Coordinate conventions, mirror reflections, distances and directed angles.

Frame: right-handed, origin at the sensing-vehicle (SV) array center, Z along
the nominal arrival direction, X parallel to the ground, Y vertical.  Reflecting
surfaces are vertical planes nx*x + nz*z = offset (Y is free), with (nx, nz) the
unit normal of the X-Z trace, so a wall along Z is (1, 0); a configuration gives
the trace's slope and intercept instead (``ReflectionSurface.from_trace``).

A propagation path is the transmit image it propagates from: the transmit
antennas themselves for the direct path, their mirror image across the surface
for a bounce.  Its lengths are the distances from that image to the receive
antennas; ``Scene.images`` holds the images and ``Scene.lengths`` the lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def as_xyz(p) -> np.ndarray:
    """Coerce a sequence / array to a float array of shape (3,) or (N, 3)."""
    a = np.asarray(p, dtype=float)
    if a.shape == (3,) or (a.ndim == 2 and a.shape[1] == 3):
        return a
    raise ValueError(f"expected a 3D point or an (N, 3) array, got shape {a.shape}")


@dataclass(frozen=True)
class ReflectionSurface:
    """Vertical reflecting plane {(x, y, z): nx*x + nz*z = offset, y free}.

    ``(nx, nz)`` is the unit normal of the plane's X-Z trace; the normal and
    its negation, with the offset negated, are the same plane.
    """

    nx: float
    nz: float
    offset: float

    def __post_init__(self):
        if not (abs(math.hypot(self.nx, self.nz) - 1.0) <= 1e-12 and math.isfinite(self.offset)):
            raise ValueError("a surface needs a unit normal (nx, nz) and a finite offset")

    @classmethod
    def from_trace(cls, slope: float, intercept: float) -> "ReflectionSurface":
        """Plane whose X-Z trace is z = slope*x + intercept."""
        norm = math.hypot(slope, 1.0)
        return cls(-slope / norm, 1.0 / norm, intercept / norm)


def mirror_point(surface: ReflectionSurface, p) -> np.ndarray:
    """Mirror image of ``p`` across ``surface``; involution, preserves y.

    Accepts a single point or an (N, 3) array and mirrors the X-Z components
    across the surface trace.
    """
    a = as_xyz(p)
    nx, nz, d = surface.nx, surface.nz, surface.offset
    single = a.ndim == 1
    pts = np.atleast_2d(a).copy()
    dist = pts[:, 0] * nx + pts[:, 2] * nz - d
    pts[:, 0] -= 2.0 * dist * nx
    pts[:, 2] -= 2.0 * dist * nz
    return pts[0] if single else pts


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances of two (N, 3) point arrays, shape (len(a), len(b)).

    Summed one coordinate at a time: the same sums, in the same order, as
    ``norm(a[:, None] - b[None], axis=2)``, without its strided reduction.
    """
    return np.sqrt(sum((a[:, None, k] - b[None, :, k]) ** 2 for k in range(3)))


def directed_angle_xz(p, q) -> float:
    """Directed angle in (-pi, pi] from the X axis to the X-Z projection of p->q."""
    a, b = as_xyz(p), as_xyz(q)
    dx = float(b[0] - a[0])
    dz = float(b[2] - a[2])
    if dx == 0.0 and dz == 0.0:
        raise DegenerateGeometryError("points coincide in the X-Z projection; angle undefined")
    ang = math.atan2(dz, dx)
    if ang <= -math.pi:
        ang = math.pi
    return ang


@dataclass(frozen=True)
class Scene:
    """Ground truth for one simulated snapshot.

    ``tv_antennas`` is the transmit point set whose recovery is the goal,
    ``anchor_indices`` the two antennas carrying the two-tone signatures.
    ``clock_offset`` is the unknown transmitter-receiver clock difference
    in seconds; ``scenario.build_scene`` gives it the configured offset's
    remainder modulo the beat period 1/delta (``FrequencyGrid.period``).

    ``images`` maps each propagation path to the read-only (N_t, 3) image it
    propagates from, formed once here: path 0, present with a line of sight,
    is ``tv_antennas`` itself, and path i + 1 is their mirror image across
    ``surfaces[i]``.  ``lengths`` holds, under the same ids, each image's
    read-only (N_t, N_r) distances to ``sv_antennas``, formed once here too.
    """

    tv_antennas: np.ndarray
    anchor_indices: tuple[int, int]
    sv_antennas: np.ndarray
    surfaces: tuple[ReflectionSurface, ...]
    clock_offset: float
    has_los: bool
    images: dict[int, np.ndarray] = field(init=False, repr=False, compare=False)
    lengths: dict[int, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tv = np.asarray(self.tv_antennas, dtype=float)
        sv = np.asarray(self.sv_antennas, dtype=float)
        if tv.ndim != 2 or tv.shape[1] != 3 or tv.shape[0] < 2:
            raise ValueError("tv_antennas must be an (N_t >= 2, 3) array")
        if sv.ndim != 2 or sv.shape[1] != 3 or sv.shape[0] < 1:
            raise ValueError("sv_antennas must be an (N_r >= 1, 3) array")
        if not (np.isfinite(tv).all() and np.isfinite(sv).all()):
            raise ValueError("antenna coordinates must be finite")
        for pts, name in ((tv, "tv_antennas"), (sv, "sv_antennas")):
            if len(np.unique(pts, axis=0)) != len(pts):
                raise ValueError(f"{name} contains duplicate points")
        a, b = self.anchor_indices
        if a == b or not (0 <= a < len(tv)) or not (0 <= b < len(tv)):
            raise ValueError("anchor_indices must be two distinct tv antenna indices")
        surfaces = tuple(self.surfaces)
        images = {0: tv} if self.has_los else {}
        images.update((i + 1, mirror_point(s, tv)) for i, s in enumerate(surfaces))
        lengths = {pid: distance_matrix(image, sv) for pid, image in images.items()}
        for pts in (tv, sv, *images.values(), *lengths.values()):
            pts.setflags(write=False)
        for name, value in (("tv_antennas", tv), ("sv_antennas", sv), ("surfaces", surfaces),
                            ("images", images), ("lengths", lengths)):
            object.__setattr__(self, name, value)

    @property
    def n_sv(self) -> int:
        return self.sv_antennas.shape[0]

    @property
    def anchor_a(self) -> np.ndarray:
        return self.tv_antennas[self.anchor_indices[0]]

    @property
    def anchor_b(self) -> np.ndarray:
        return self.tv_antennas[self.anchor_indices[1]]
