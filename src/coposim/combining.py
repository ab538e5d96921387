"""Fusing per-path virtual detections into the actual transmit-antenna cloud.

Each specular path produces a mirror image ("virtual TV") of the transmitter.
For vertical reflecting surfaces the displacement from a virtual point to its
actual counterpart is a ray in the X-Z plane at a path angle theta_l, and the
path angles are locked together by the measured orientations of the virtual
anchor baselines: theta_i - theta_j = (phi_i - phi_j) / 2.  A 1D search over
the reference angle makes all back-projection rays meet at the actual anchor;
the meeting point then fixes each reflecting surface (the perpendicular
bisector plane), and mirroring each virtual cloud across its surface recovers
the actual cloud.

The search is array code: every grid angle is scored in one pass that
intersects all C(L, 2) ray pairs at once, masks the parallel pairs, and takes
the mean pairwise distance of the surviving anchor candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import DegenerateGeometryError, FeasibilityError
from .geometry import ReflectionSurface, as_xyz, mirror_point

_PARALLEL_TOL = 1e-12
# Golden-section refinement stops when the angle bracket is this narrow (rad).
_REFINE_TOL = 1e-6


@dataclass(frozen=True)
class VirtualDetection:
    """One path's sync and imaging output.

    ``baseline_angle`` is the directed X-Z angle of the virtual a->b anchor
    segment.  ``cloud`` may be empty for paths whose imaging failed; such
    detections still constrain the angle search but contribute no points.
    """

    path_id: int
    x_a_virtual: np.ndarray
    x_b_virtual: np.ndarray
    cloud: np.ndarray
    sigma_hat: float
    baseline_angle: float

    def __post_init__(self):
        if not -math.pi < self.baseline_angle <= math.pi:
            raise ValueError("baseline_angle must lie in (-pi, pi]")
        object.__setattr__(self, "x_a_virtual", as_xyz(self.x_a_virtual))
        object.__setattr__(self, "x_b_virtual", as_xyz(self.x_b_virtual))
        cloud = np.asarray(self.cloud, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "cloud", cloud)


@dataclass(frozen=True)
class CombineResult:
    """Fusion output.

    ``surfaces`` (None marks a direct path) and ``mapped_clouds`` (each
    path's cloud mirrored into the actual frame) align with ``path_ids``.
    """

    theta_ref: float
    x_a_star: np.ndarray
    x_b_star: np.ndarray
    path_ids: tuple[int, ...]
    surfaces: tuple[ReflectionSurface | None, ...]
    mapped_clouds: tuple[np.ndarray, ...]
    actual_cloud: np.ndarray


def group_by_clock(detections: list[VirtualDetection], tolerance: float) -> list[list[VirtualDetection]]:
    """Single-linkage clusters of detections by clock estimate.

    Paths bounced off different transmitters carry different clock offsets, so
    clusters separate transmitters without any position knowledge.
    """
    if not detections:
        return []
    order = sorted(detections, key=lambda d: (d.sigma_hat, d.path_id))
    clusters = [[order[0]]]
    for det in order[1:]:
        if det.sigma_hat - clusters[-1][-1].sigma_hat <= tolerance:
            clusters[-1].append(det)
        else:
            clusters.append([det])
    return clusters


def _ray_angles(cluster: list[VirtualDetection], theta_ref) -> np.ndarray:
    """Path angles (T, L) locked to each of the T reference angles."""
    phi = np.array([det.baseline_angle for det in cluster])
    return np.reshape(theta_ref, (-1, 1)) + 0.5 * (phi - phi[0])


def _candidates(cluster: list[VirtualDetection], theta_ref):
    """Anchor candidates from every detection pair at each hypothesised angle.

    ``theta_ref`` is a scalar or an array of T angles.  The pair relation holds
    for any two paths, so all P = C(L, 2) pairs are used rather than only those
    containing the reference path: with noisy inputs a spurious angle is
    unlikely to cluster every pairwise intersection at once.  Each pair's two
    X-Z rays are intersected parametrically, so vertical rays need no special
    casing, and y is the mean of the two virtual y values.  Returns the a- and
    b-anchor candidates, each (T, P, 3), and a (T, P) mask that is False where
    the pair's rays are parallel (|sin(theta_j - theta_i)| below tolerance);
    masked candidates hold finite filler values.
    """
    thetas = _ray_angles(cluster, theta_ref)
    cos, sin = np.cos(thetas), np.sin(thetas)
    i, j = np.triu_indices(len(cluster), k=1)
    det = np.sin(thetas[:, j] - thetas[:, i])
    ok = np.abs(det) >= _PARALLEL_TOL
    det = np.where(ok, det, 1.0)

    def meet(virtuals: np.ndarray) -> np.ndarray:
        # Solve p_i + t*(cos_i, sin_i) = p_j + s*(cos_j, sin_j) in (x, z).
        p_i, p_j = virtuals[i], virtuals[j]
        r = p_j - p_i
        t = (r[:, 0] * sin[:, j] - r[:, 2] * cos[:, j]) / det
        return np.stack([p_i[:, 0] + t * cos[:, i],
                         np.broadcast_to(0.5 * (p_i[:, 1] + p_j[:, 1]), t.shape),
                         p_i[:, 2] + t * sin[:, i]], axis=-1)

    return (meet(np.array([d.x_a_virtual for d in cluster])),
            meet(np.array([d.x_b_virtual for d in cluster])), ok)


def _scatter_objective(cluster: list[VirtualDetection], theta_ref):
    """Mean pairwise spread of the anchor candidates; zero iff they coincide.

    For each angle, the mean over pairs of surviving (non-parallel) candidates
    of |ca_i - ca_j| + |cb_i - cb_j|.  Angles that lose candidates to parallel
    pairs are not rewarded, and an angle with fewer than two candidates scores
    inf.  Returns a float for a scalar angle, else an array of T values.
    """
    ca, cb, ok = _candidates(cluster, theta_ref)
    i, j = np.triu_indices(ok.shape[1], k=1)
    spread = (np.linalg.norm(ca[:, i] - ca[:, j], axis=-1)
              + np.linalg.norm(cb[:, i] - cb[:, j], axis=-1))
    kept = ok[:, i] & ok[:, j]
    terms = kept.sum(axis=1)
    total = np.where(kept, spread, 0.0).sum(axis=1)
    values = np.where(terms > 0, total / np.maximum(terms, 1), np.inf)
    return values if np.ndim(theta_ref) else float(values[0])


def _golden_refine(fun, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def search_theta_ref(cluster: list[VirtualDetection],
                     grid_step: float = 1e-3) -> tuple[float, np.ndarray, np.ndarray]:
    """1D search for the reference path angle minimising candidate scatter.

    Line angles are periodic in pi, so the grid covers (-pi/2, pi/2]; the best
    grid cell is refined by golden section to ``_REFINE_TOL``.  Returns the
    angle and the candidate means for the two anchors.
    """
    if len(cluster) < 3:
        raise FeasibilityError(
            f"combining needs at least 3 paths from the same transmitter, got {len(cluster)}"
        )
    grid = np.arange(-math.pi / 2 + grid_step, math.pi / 2 + 0.5 * grid_step, grid_step)
    values = _scatter_objective(cluster, grid)
    if not np.isfinite(values).any():
        raise DegenerateGeometryError("every ray pair is parallel; geometry degenerate")
    best = int(np.argmin(values))
    theta = _golden_refine(lambda t: _scatter_objective(cluster, t),
                           grid[best] - grid_step, grid[best] + grid_step, _REFINE_TOL)
    if not math.isfinite(_scatter_objective(cluster, theta)):
        theta = float(grid[best])
    ca, cb, ok = _candidates(cluster, theta)
    return theta, ca[ok].mean(axis=0), cb[ok].mean(axis=0)


def estimate_surface(x_a_star, x_a_virtual, theta: float) -> ReflectionSurface:
    """Reflecting surface as the perpendicular bisector of actual/virtual anchors.

    The surface trace passes through the anchor midpoint with slope
    -1/tan(theta); a horizontal ray (theta = 0) yields the vertical-in-X-Z
    variant x = const instead of an infinite slope.
    """
    a = as_xyz(x_a_star)
    v = as_xyz(x_a_virtual)
    mid_x = 0.5 * (a[0] + v[0])
    mid_z = 0.5 * (a[2] + v[2])
    s, c = math.sin(theta), math.cos(theta)
    if abs(s) < 1e-12:
        return ReflectionSurface.vertical_x(mid_x)
    slope = -c / s
    return ReflectionSurface(slope=slope, intercept=mid_z - slope * mid_x)


def map_virtual_to_actual(cloud, theta: float, x_a_star, x_a_virtual) -> np.ndarray:
    """Mirror a virtual cloud across the surface implied by the anchor pair.

    This is the pointwise recovery map: y is preserved and the map is an
    involution, because it is exactly the specular reflection across the
    estimated surface.
    """
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    surface = estimate_surface(x_a_star, x_a_virtual, theta)
    return mirror_point(surface, pts)


def fuse_clouds(clouds: list[np.ndarray], merge_radius: float) -> np.ndarray:
    """Union of mapped clouds with agglomeration of near-duplicate points.

    Points closer than ``merge_radius`` (transitively) collapse to their
    centroid, so perfectly overlapping per-path detections merge while distinct
    antennas survive.  Rows keep the order in which their points first appear.
    """
    pts = np.concatenate([np.empty((0, 3))]
                         + [np.asarray(c, dtype=float).reshape(-1, 3) for c in clouds])
    if len(pts) == 0:
        raise ValueError("no points to fuse")
    if merge_radius <= 0:
        return pts
    pairs = cKDTree(pts).query_pairs(merge_radius, output_type="ndarray")
    if len(pairs) == 0:
        return pts
    n = len(pts)
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_comp, labels = connected_components(adj, directed=False)
    fused = np.zeros((n_comp, 3))
    counts = np.bincount(labels, minlength=n_comp).astype(float)
    for dim in range(3):
        fused[:, dim] = np.bincount(labels, weights=pts[:, dim], minlength=n_comp) / counts
    first_index = np.unique(labels, return_index=True)[1]
    return fused[np.argsort(first_index, kind="stable")]


def combine_cluster(cluster: list[VirtualDetection], merge_radius: float,
                    grid_step: float = 1e-3, direct_path_tol: float = 1e-3) -> CombineResult:
    """Full fusion of one same-clock cluster of virtual detections.

    Detections whose virtual anchor already coincides with the fused anchor
    (within ``direct_path_tol``) are direct-view paths: their clouds are taken
    as-is, since the perpendicular-bisector surface degenerates there.
    """
    theta_ref, x_a_star, x_b_star = search_theta_ref(cluster, grid_step)
    surfaces, mapped = [], []
    for det, theta in zip(cluster, _ray_angles(cluster, theta_ref)[0].tolist()):
        direct = float(np.linalg.norm(det.x_a_virtual - x_a_star)) <= direct_path_tol
        surface = None if direct else estimate_surface(x_a_star, det.x_a_virtual, theta)
        surfaces.append(surface)
        mapped.append(det.cloud.copy() if surface is None else mirror_point(surface, det.cloud))
    cloud = fuse_clouds(mapped, merge_radius) if any(len(m) for m in mapped) else np.empty((0, 3))
    return CombineResult(theta_ref=theta_ref, x_a_star=x_a_star, x_b_star=x_b_star,
                         path_ids=tuple(det.path_id for det in cluster),
                         surfaces=tuple(surfaces), mapped_clouds=tuple(mapped),
                         actual_cloud=cloud)
