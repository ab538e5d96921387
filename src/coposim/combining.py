"""Fusing per-path virtual detections into the actual transmit-antenna cloud.

Each specular path produces a mirror image ("virtual TV") of the transmitter.
For vertical reflecting surfaces the displacement from a virtual point to its
actual counterpart is a ray in the X-Z plane at a path angle theta_l, and the
path angles are locked together by the measured orientations of the virtual
anchor baselines: theta_i - theta_j = (phi_i - phi_j) / 2.  At the right
reference angle all rays from the virtual anchors meet at the actual anchor.
For any reference angle the anchor is a linear least-squares fit to the L
rays, and the fit's misfit is a trigonometric polynomial of degree 3 in twice
the angle, so its global minimum is solved for in closed form; the fitted
anchor then fixes each surface, the anchors' bisector plane with X-Z normal
(cos theta_l, sin theta_l), and mirroring each virtual cloud across it
recovers the actual cloud.  The fit's RMS ray distance is the fusion residual.
Each path is one ``VirtualDetection``: its two anchor solves, its cloud and,
once fused, its surface and its cloud mirrored into the actual frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import ReflectionSurface, as_xyz, directed_angle_xz, distance_matrix, mirror_point
from .sync import SyncResult

# The rays count as all parallel when the normal-matrix determinant, the sum of
# sin^2 over their pair angle gaps, is below this squared.
_PARALLEL_TOL = 1e-12


@dataclass(eq=False)
class VirtualDetection:
    """One path's record: its two anchor solves, its cloud and its fusion output.

    ``sync_a`` and ``sync_b`` are the PDoA solves of the path's virtual
    anchors; ``x_a_virtual``, ``x_b_virtual`` and ``sigma_hat`` (anchor a's
    clock) read through to them.  ``baseline_angle``, the directed X-Z angle
    of the virtual a->b segment, is computed once here, so anchors that
    coincide in X-Z raise ``DegenerateGeometryError`` when the record is made.
    ``cloud`` is empty from sync until imaging sets it, and stays so on a path
    the estimate does not read; clustering reads only ``sigma_hat``.
    ``combine_cluster`` sets ``surface``, the fitted plane (None for a direct
    path), and ``mapped``, the cloud mirrored into the actual frame (``cloud``
    itself for a direct path); on a path that is not fused both stay None.
    """

    path_id: int
    sync_a: SyncResult
    sync_b: SyncResult
    cloud: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    baseline_angle: float = field(init=False)
    surface: ReflectionSurface | None = field(default=None, init=False)
    mapped: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        self.baseline_angle = directed_angle_xz(self.x_a_virtual, self.x_b_virtual)
        self.cloud = np.asarray(self.cloud, dtype=float).reshape(-1, 3)

    x_a_virtual = property(lambda self: self.sync_a.x_anchor)
    x_b_virtual = property(lambda self: self.sync_b.x_anchor)
    sigma_hat = property(lambda self: self.sync_a.sigma_hat)


@dataclass(frozen=True)
class CombineResult:
    """Fusion output of one cluster; each path's own output is on its record.

    ``x_a_star`` and ``x_b_star`` are the least-squares anchors of the rays at
    ``theta_ref``, and ``residual_m`` is the RMS perpendicular distance of the
    2L rays from them: near zero when the paths agree on one transmitter.
    ``actual_cloud`` fuses the paths' ``VirtualDetection.mapped`` clouds.
    """

    theta_ref: float
    x_a_star: np.ndarray
    x_b_star: np.ndarray
    residual_m: float
    actual_cloud: np.ndarray


def clock_distance(sigma, other, period: float):
    """Distance from ``sigma - other`` to the nearest multiple of ``period``:
    sync reads a clock only modulo the period of its beat, 1/delta."""
    gap = np.abs(np.subtract(sigma, other)) % period
    return np.minimum(gap, period - gap)


def group_by_clock(detections: list[VirtualDetection], tolerance: float,
                   period: float) -> list[list[VirtualDetection]]:
    """Single-linkage clusters of detections by clock estimate modulo ``period``.

    Paths bounced off different transmitters carry different clock offsets, so
    clusters separate transmitters without any position knowledge.  Estimates
    are linked in the order of ``sigma_hat mod period``, and the last cluster
    joins the first when the gap across the wrap is within ``tolerance``.
    """
    if not detections:
        return []
    order = sorted(detections, key=lambda d: (d.sigma_hat % period, d.path_id))
    clusters = [[order[0]]]
    for prev, det in zip(order, order[1:]):
        if clock_distance(det.sigma_hat, prev.sigma_hat, period) <= tolerance:
            clusters[-1].append(det)
        else:
            clusters.append([det])
    if (len(clusters) > 1
            and clock_distance(order[0].sigma_hat, order[-1].sigma_hat, period) <= tolerance):
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def _ray_angles(cluster: list[VirtualDetection], theta_ref) -> np.ndarray:
    """Path angles (T, L) locked to each of the T reference angles."""
    phi = np.array([det.baseline_angle for det in cluster])
    return np.reshape(theta_ref, (-1, 1)) + 0.5 * (phi - phi[0])


def _ray_fit(cluster: list[VirtualDetection], theta_ref):
    """Least-squares anchors of the cluster's rays at each of T reference angles.

    Path l's ray leaves its virtual anchor p_l in X-Z with normal
    n_l = (-sin theta_l, cos theta_l); the fitted anchor minimises
    sum_l (n_l . x - n_l . p_l)^2 through the 2x2 normal equations, solved for
    the a- and the b-anchors, and y is the mean virtual y.  The normal matrix
    has determinant sum_{i<j} sin^2((phi_j - phi_i) / 2), the same at every
    angle, which is used in that closed form; when it vanishes every ray pair
    is parallel and the geometry is degenerate.  Returns the a- and b-anchors,
    each (T, 3), and the summed squared perpendicular misfit of all 2L rays,
    (T,).
    """
    phi = np.array([d.baseline_angle for d in cluster])
    i, j = np.triu_indices(len(cluster), k=1)
    det = (np.sin(0.5 * (phi[j] - phi[i])) ** 2).sum()
    if det < _PARALLEL_TOL ** 2:
        raise DegenerateGeometryError("every ray pair is parallel; geometry degenerate")
    thetas = _ray_angles(cluster, theta_ref)
    nx, nz = -np.sin(thetas), np.cos(thetas)
    mxx, mxz, mzz = (nx * nx).sum(axis=1), (nx * nz).sum(axis=1), (nz * nz).sum(axis=1)
    anchors, misfit = [], 0.0
    for virtuals in (np.array([d.x_a_virtual for d in cluster]),
                     np.array([d.x_b_virtual for d in cluster])):
        offset = nx * virtuals[:, 0] + nz * virtuals[:, 2]
        rx, rz = (nx * offset).sum(axis=1), (nz * offset).sum(axis=1)
        x = (mzz * rx - mxz * rz) / det
        z = (mxx * rz - mxz * rx) / det
        misfit = misfit + ((nx * x[:, None] + nz * z[:, None] - offset) ** 2).sum(axis=1)
        anchors.append(np.stack([x, np.full_like(x, virtuals[:, 1].mean()), z], axis=-1))
    return anchors[0], anchors[1], misfit


def search_theta_ref(cluster: list[VirtualDetection]) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Reference path angle whose rays best meet in one point, in closed form.

    The misfit of ``_ray_fit`` is sum_l (n_l . p_l)^2 - r^T adj(M) r / det M,
    where det M is constant and r, adj(M) and each (n_l . p_l)^2 hold only
    harmonics 0 and 1 of 2 theta: a trigonometric polynomial of degree 3 in
    2 theta.  Its coefficients c_k are the ``rfft`` of seven samples
    theta_n = n pi / 7, and with z = e^{2j theta} its stationary angles are the
    roots of sum_k k (c_k z^(3+k) - conj(c_k) z^(3-k)).  The best of those and
    the samples, in (-pi/2, pi/2], is returned with the fitted a- and b-anchors
    and the RMS perpendicular distance of the 2L rays from them.  The trial
    fails before fusion if no clock cluster holds ``waveform.MIN_FUSED_PATHS``.
    """
    samples = np.arange(7) * (math.pi / 7)
    kc = np.arange(1, 4) * np.fft.rfft(_ray_fit(cluster, samples)[2])[1:]
    stationary = np.roots(np.concatenate([kc[::-1], [0.0], -kc.conj()]))
    thetas = np.concatenate([samples, 0.5 * np.angle(stationary)])
    thetas = math.pi / 2 - (math.pi / 2 - thetas) % math.pi
    x_a, x_b, misfit = _ray_fit(cluster, thetas)
    best = int(np.argmin(misfit))
    return (float(thetas[best]), x_a[best], x_b[best],
            math.sqrt(misfit[best] / (2 * len(cluster))))


def estimate_surface(x_a_star, x_a_virtual, theta: float) -> ReflectionSurface:
    """Reflecting surface as the perpendicular bisector of actual/virtual anchors.

    The anchors lie on a line at the path angle theta, so the plane has the X-Z
    normal (cos theta, sin theta) and passes through their midpoint.
    """
    a, v = as_xyz(x_a_star), as_xyz(x_a_virtual)
    nx, nz = math.cos(theta), math.sin(theta)
    return ReflectionSurface(nx, nz, float(0.5 * (nx * (a[0] + v[0]) + nz * (a[2] + v[2]))))


def fuse_clouds(clouds: list[np.ndarray], merge_radius: float) -> np.ndarray:
    """Union of mapped clouds with agglomeration of near-duplicate points.

    Points within ``merge_radius`` (transitively) collapse to their centroid,
    so overlapping per-path detections merge while distinct antennas survive.
    Each point starts labelled with its own index and takes the smallest label
    among its neighbours until no label changes; each then holds its
    component's first index, so rows keep the order their points first appear.
    """
    pts = np.concatenate([np.empty((0, 3))]
                         + [np.asarray(c, dtype=float).reshape(-1, 3) for c in clouds])
    if len(pts) == 0:
        raise ValueError("no points to fuse")
    near = distance_matrix(pts, pts) <= merge_radius
    labels = np.arange(len(pts))
    while ((smallest := np.where(near, labels[None, :], len(pts)).min(axis=1)) < labels).any():
        labels = smallest
    _, labels = np.unique(labels, return_inverse=True)
    counts = np.bincount(labels).astype(float)
    sums = [np.bincount(labels, weights=pts[:, dim]) for dim in range(3)]
    return np.stack(sums, axis=1) / counts[:, None]


def combine_cluster(cluster: list[VirtualDetection], merge_radius: float,
                    direct_path_tol: float) -> CombineResult:
    """Full fusion of one same-clock cluster of virtual detections.

    Sets each record's ``surface`` and ``mapped`` cloud.  Detections whose
    virtual anchor already coincides with the fused anchor (within
    ``direct_path_tol``) are direct-view paths: their clouds are taken as-is,
    since the perpendicular-bisector surface degenerates there.  The trial
    passes its imaged cluster (see ``search_theta_ref``), each path holding
    at least one peak, so ``fuse_clouds`` never sees an empty set.
    """
    theta_ref, x_a_star, x_b_star, residual = search_theta_ref(cluster)
    for det, theta in zip(cluster, _ray_angles(cluster, theta_ref)[0].tolist()):
        direct = float(np.linalg.norm(det.x_a_virtual - x_a_star)) <= direct_path_tol
        det.surface = None if direct else estimate_surface(x_a_star, det.x_a_virtual, theta)
        det.mapped = det.cloud if direct else mirror_point(det.surface, det.cloud)
    return CombineResult(theta_ref=theta_ref, x_a_star=x_a_star, x_b_star=x_b_star,
                         residual_m=residual,
                         actual_cloud=fuse_clouds([det.mapped for det in cluster], merge_radius))
