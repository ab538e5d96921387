"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force and shares no code with the
package internals it validates.
"""

import cmath
import math

import numpy as np

C = 299_792_458.0


def range_diff_ssq(points: np.ndarray, sv: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Sum of squared range-difference residuals for each candidate point."""
    out = np.empty(len(points))
    for lo in range(0, len(points), 65536):
        chunk = points[lo:lo + 65536]
        d = np.linalg.norm(chunk[:, None, :] - sv[None, :, :], axis=2)
        resid = (d[:, 1:] - d[:, :1]) - measured[None, :]
        out[lo:lo + 65536] = (resid**2).sum(axis=1)
    return out


def grid_search_anchor(measured: np.ndarray, sv: np.ndarray, center: np.ndarray,
                       half_span: float = 4.0, coarse_step: float = 0.1,
                       fine_step: float = 0.01) -> np.ndarray:
    """Two-stage exhaustive grid minimiser of the range-difference misfit.

    Stage one scans a cube of the given half-span at ``coarse_step``; stage two
    rescans a +-1.5*coarse_step cube around the winner on the ``fine_step``
    lattice.  The result is the best point of the fine lattice.
    """

    def scan(c, h, step):
        axes = [np.arange(c[i] - h, c[i] + h + 0.5 * step, step) for i in range(3)]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        return pts[int(np.argmin(range_diff_ssq(pts, sv, measured)))]

    best = scan(center, half_span, coarse_step)
    return scan(best, 1.5 * coarse_step, fine_step)


def mirror_across_trace(p, q, points) -> np.ndarray:
    """Reflection of each point's (x, z) across the line through the X-Z points
    ``p`` and ``q``, y kept: from the point to its foot on the line, then as
    far again."""
    (px, pz), (qx, qz) = p, q
    length = math.hypot(qx - px, qz - pz)
    ux, uz = (qx - px) / length, (qz - pz) / length
    out = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    for row in out:
        along = (row[0] - px) * ux + (row[2] - pz) * uz
        row[0] = 2.0 * (px + along * ux) - row[0]
        row[2] = 2.0 * (pz + along * uz) - row[2]
    return out


def path_length(trace, tx, rx) -> float:
    """Propagation distance: straight when ``trace`` is None, else from the
    mirror image of ``tx`` across ``trace``, a pair of X-Z points, to ``rx``."""
    t = tx if trace is None else mirror_across_trace(*trace, tx)[0]
    return math.dist(np.asarray(t, dtype=float), np.asarray(rx, dtype=float))


def specular_point(trace, tx, rx) -> np.ndarray:
    """Where the segment mirror(tx) -> rx crosses the line ``trace``.

    ``trace`` is as in ``path_length``.  Raises ValueError when the segment
    runs parallel to the trace.
    """
    rx = np.asarray(rx, dtype=float)
    t = mirror_across_trace(*trace, tx)[0]
    (px, pz), (qx, qz) = trace

    def side(x):  # X-Z cross product of q - p and x - p
        return (qx - px) * (x[2] - pz) - (qz - pz) * (x[0] - px)

    ft, fr = side(t), side(rx)
    if ft == fr:
        raise ValueError("segment is parallel to the surface")
    lam = ft / (ft - fr)
    return t + lam * (rx - t)


def least_squares_ray_fit(a_virtuals, b_virtuals, baseline_angles, theta_ref: float):
    """Anchors that fit the rays best at one reference angle, and their misfit.

    Path l's ray leaves its virtual anchor at theta_ref + (phi_l - phi_0)/2 in
    X-Z.  For each of the a- and b-anchor sets, the X-Z point closest in the
    least-squares sense to all L lines is solved from the stacked system
    [-sin, cos] . (x, z) = [-sin, cos] . p_l, with y the mean virtual y.
    Returns the a-anchor, the b-anchor and the sum over all 2L rays of the
    squared perpendicular distance from the fitted point.
    """
    n = len(baseline_angles)
    thetas = [theta_ref + 0.5 * (baseline_angles[l] - baseline_angles[0]) for l in range(n)]
    anchors, misfit = [], 0.0
    for virtuals in (a_virtuals, b_virtuals):
        rows, rhs = [], []
        for l in range(n):
            normal = (-math.sin(thetas[l]), math.cos(thetas[l]))
            rows.append(normal)
            rhs.append(normal[0] * virtuals[l][0] + normal[1] * virtuals[l][2])
        (x, z), *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        for l in range(n):
            misfit += (rows[l][0] * x + rows[l][1] * z - rhs[l]) ** 2
        anchors.append([x, sum(v[1] for v in virtuals) / n, z])
    return anchors[0], anchors[1], misfit


def ray_fit_misfits(a_virtuals, b_virtuals, baseline_angles, thetas) -> np.ndarray:
    """``least_squares_ray_fit``'s misfit at each of many reference angles.

    The same stacked least-squares systems, one per angle, each solved through
    its pseudo-inverse; vectorised over the angles for dense scans.
    """
    phi = np.asarray(baseline_angles, dtype=float)
    angles = np.asarray(thetas, dtype=float)[:, None] + 0.5 * (phi - phi[0])
    rows = np.stack([-np.sin(angles), np.cos(angles)], axis=-1)
    pinv = np.linalg.pinv(rows)
    misfit = np.zeros(len(angles))
    for virtuals in (a_virtuals, b_virtuals):
        v = np.asarray(virtuals, dtype=float)
        rhs = rows[..., 0] * v[:, 0] + rows[..., 1] * v[:, 2]
        xz = np.einsum("tkl,tl->tk", pinv, rhs)
        misfit += ((np.einsum("tlk,tk->tl", rows, xz) - rhs) ** 2).sum(axis=1)
    return misfit


def tan_form_recovery_map(points: np.ndarray, theta: float, x_a_star: np.ndarray,
                          x_a_virtual: np.ndarray) -> np.ndarray:
    """Closed-form virtual-to-actual map in its tan() form.

    x* = x + dx, z* = z + tan(theta)*dx with
    dx = tan/(1+tan^2) * ((xa_v + xa*)/tan + za_v + za* - 2x/tan - 2z).
    """
    t = math.tan(theta)
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    x, z = pts[:, 0].copy(), pts[:, 2].copy()
    dx = (t / (1 + t * t)) * ((x_a_virtual[0] + x_a_star[0]) / t
                              + x_a_virtual[2] + x_a_star[2] - 2 * x / t - 2 * z)
    pts[:, 0] = x + dx
    pts[:, 2] = z + t * dx
    return pts


def map_virtual_to_actual(points: np.ndarray, theta: float, x_a_star: np.ndarray,
                          x_a_virtual: np.ndarray) -> np.ndarray:
    """Virtual-to-actual map as a vector reflection: across the plane through
    the anchor midpoint with unit normal (cos(theta), 0, sin(theta)).  Unlike
    the tan() form it holds at every theta."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    normal = np.array([math.cos(theta), 0.0, math.sin(theta)])
    mid = 0.5 * (np.asarray(x_a_star, dtype=float) + np.asarray(x_a_virtual, dtype=float))
    return pts - 2.0 * ((pts - mid) @ normal)[:, None] * normal


def indicator_transform(points: np.ndarray, f_vectors: np.ndarray) -> np.ndarray:
    """Direct 3D transform of the antenna indicator, sum_n exp(-j*2*pi/c * f.x_n)."""
    phases = f_vectors @ points.T  # (nf, n_points)
    return np.exp(-2j * math.pi / C * phases).sum(axis=1)


def stratified_rect(n: int, width: float, height: float, jitter: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Jittered cell centres of a near-square grid, point by point: x draw, then y draw."""
    rows = max(1, int(math.floor(math.sqrt(n * height / max(width, 1e-9)))))
    cols = int(math.ceil(n / rows))
    cw, ch = width / cols, height / rows
    pts = []
    for i in range(n):
        r, c = divmod(i, cols)
        pts.append([-width / 2 + (c + 0.5) * cw + rng.uniform(-jitter, jitter) * cw,
                    -height / 2 + (r + 0.5) * ch + rng.uniform(-jitter, jitter) * ch])
    return np.array(pts)


def local_maxima_26(mag: np.ndarray, nu: float) -> list[tuple[int, int, int]]:
    """Voxels >= nu*max that no in-volume 26-neighbour exceeds, loop by loop.

    Sorted by descending magnitude, ties by (i, j, k).
    """
    nx, ny, nz = mag.shape
    threshold = nu * max(float(v) for v in mag.ravel())
    found = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                v = float(mag[i, j, k])
                if v < threshold:
                    continue
                dominant = True
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        for dk in (-1, 0, 1):
                            a, b, c = i + di, j + dj, k + dk
                            if 0 <= a < nx and 0 <= b < ny and 0 <= c < nz \
                                    and float(mag[a, b, c]) > v:
                                dominant = False
                if dominant:
                    found.append((-v, i, j, k))
    return [(i, j, k) for _, i, j, k in sorted(found)]


def two_exponential_remap(f_x, f_y, f_z, values, f1: float, delta: float,
                          ref_depth: float) -> np.ndarray:
    """Shell-to-grid resampling, one voxel at a time, with the depth carrier
    removed at both neighbouring shells by its own exponential:

    out = [(1-a) V_i exp(j*b*fz_i) + a V_(i+1) exp(j*b*fz_(i+1))] exp(-j*b*f_z),
    b = 2*pi*ref_depth/c, fz_i = sqrt(max(f_i^2 - rho^2, 0)); zero off the band.
    """
    tones = values.shape[2]
    beta = 2.0 * math.pi / C * ref_depth
    out = np.zeros((len(f_x), len(f_y), len(f_z)), dtype=complex)
    for i, fx in enumerate(f_x):
        for j, fy in enumerate(f_y):
            rho2 = fx * fx + fy * fy
            for k, fz in enumerate(f_z):
                f = math.sqrt(rho2 + fz * fz)
                if f < f1 or f > f1 + delta * (tones - 1):
                    continue
                pos = (f - f1) / delta
                lo = min(max(int(math.floor(pos)), 0), tones - 2)
                a = pos - lo
                f_lo = f1 + lo * delta
                fz_lo = math.sqrt(max(f_lo * f_lo - rho2, 0.0))
                fz_hi = math.sqrt(max((f_lo + delta) ** 2 - rho2, 0.0))
                out[i, j, k] = ((1.0 - a) * values[i, j, lo] * cmath.exp(1j * beta * fz_lo)
                                + a * values[i, j, lo + 1] * cmath.exp(1j * beta * fz_hi)) \
                    * cmath.exp(-1j * beta * fz)
    return out


def paired_bins(f) -> tuple[np.ndarray, np.ndarray]:
    """Lead bins and lags of the inverse's fold, one bin at a time.

    A positive bin whose exact negative is on the axis leads a pair, in index
    order, and its lag is that negative's index; every other bin follows in
    index order as a lead without a lag.
    """
    values = [float(v) for v in f]
    lead, lag = [], []
    for i, v in enumerate(values):
        if v > 0.0:
            for j, w in enumerate(values):
                if w == -v:
                    lead.append(i)
                    lag.append(j)
    single = [i for i in range(len(values)) if i not in lead and i not in lag]
    return np.array(lead + single, dtype=np.intp), np.array(lag, dtype=np.intp)


def direct_aperture_spectrum(samples: np.ndarray, grid_x, grid_y, f_x, f_y) -> np.ndarray:
    """sum_(i,j) s_ijk * exp(-j*2*pi/c * (f_x,a*x_i + f_y,b*y_j)) per bin (a, b) and tone k."""
    nx, ny, tones = samples.shape
    out = np.zeros((len(f_x), len(f_y), tones), dtype=complex)
    for a, fx in enumerate(f_x):
        for b, fy in enumerate(f_y):
            for i in range(nx):
                for j in range(ny):
                    phase = 2.0 * math.pi / C * (fx * grid_x[i] + fy * grid_y[j])
                    out[a, b] += samples[i, j] * cmath.exp(-1j * phase)
    return out


def direct_fourier_sum(values: np.ndarray, f_x, f_y, f_z, points: np.ndarray) -> np.ndarray:
    """sum_(i,j,k) V_ijk * exp(+j*2*pi/c * (f_x,i*x + f_y,j*y + f_z,k*z)) per point."""
    fx, fy, fz = np.meshgrid(f_x, f_y, f_z, indexing="ij")
    f_vectors = np.stack([fx.ravel(), fy.ravel(), fz.ravel()], axis=1)
    phases = np.asarray(points, dtype=float) @ f_vectors.T  # (n_points, n_bins)
    return np.exp(2j * math.pi / C * phases) @ values.ravel()


def rowwise_linear_resample(row_x: list, row_vals: list, row_y: np.ndarray,
                            gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Per-tone np.interp along x within each row, then along y across rows.

    ``row_x[i]`` ascending x of row i, ``row_vals[i]`` its (n_i, K) values,
    ``row_y`` ascending; zero outside the sampled span.  Returns (nx, ny, K).
    """
    k = row_vals[0].shape[1]

    def interp(x, xp, fp):
        return (np.interp(x, xp, fp.real, left=0.0, right=0.0)
                + 1j * np.interp(x, xp, fp.imag, left=0.0, right=0.0))

    per_row = np.array([[interp(gx, xs, vals[:, kk]) for kk in range(k)]
                        for xs, vals in zip(row_x, row_vals)])  # (rows, K, nx)
    out = np.zeros((len(gx), len(gy), k), dtype=complex)
    for kk in range(k):
        for ix in range(len(gx)):
            out[ix, :, kk] = interp(gy, row_y, per_row[:, kk, ix])
    return out


def backprojection(symbols: np.ndarray, sv_antennas, freqs, points) -> np.ndarray:
    """Matched-filter reference: sum_{m,k} y[m,k] * exp(+j*2*pi*f_k*D(x,p_m)/c) per point.

    Independent of the Fourier chain; the accuracy and coherent-gain oracle
    of the imaging tests.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ants = np.asarray(sv_antennas, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    out = np.zeros(len(pts), dtype=complex)
    for chunk in range(0, len(pts), 2048):
        p = pts[chunk:chunk + 2048]
        d = np.linalg.norm(p[:, None, :] - ants[None, :, :], axis=2)
        phase = 2.0 * math.pi / C * d[:, :, None] * freqs[None, None, :]
        out[chunk:chunk + 2048] = (symbols[None, :, :] * np.exp(1j * phase)).sum(axis=(1, 2))
    return out


def direct_sfcw(tv, sv, freqs, residual: float) -> np.ndarray:
    """y[r, k] = sum_t exp(j*2*pi*f_k*(residual - |tv_t - sv_r|/c)), term by term.

    ``tv`` are the (mirror-image, for a reflected path) transmit antennas.
    """
    out = np.zeros((len(sv), len(freqs)), dtype=complex)
    for r, rx in enumerate(sv):
        for k, f in enumerate(freqs):
            total = 0j
            for tx in tv:
                total += cmath.exp(2j * math.pi * float(f) * (residual - math.dist(tx, rx) / C))
            out[r, k] = total
    return out


def brute_hausdorff(a, b) -> float:
    """max(h(A, B), h(B, A)) with h the largest nearest-point gap, point by point."""

    def directed(src, dst):
        worst = 0.0
        for p in src:
            worst = max(worst, min(math.dist(p, q) for q in dst))
        return worst

    a, b = [tuple(map(float, p)) for p in a], [tuple(map(float, p)) for p in b]
    return max(directed(a, b), directed(b, a))


def transitive_merge(points, radius: float) -> np.ndarray:
    """Centroids of the groups of points linked by gaps <= radius, by union-find.

    Groups are listed in the order in which their first point appears.
    """
    parent = list(range(len(points)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if math.dist(points[i], points[j]) <= radius:
                parent[max(root(i), root(j))] = min(root(i), root(j))
    groups = {}
    for i, p in enumerate(points):
        groups.setdefault(root(i), []).append(p)
    return np.array([[sum(p[d] for p in g) / len(g) for d in range(3)] for g in groups.values()])


def cell_normals(seed: int, domain: int, path: int, antenna: int, n: int) -> np.ndarray:
    """The first n standard normals of noise cell (seed, domain, path, antenna).

    Each cell is numpy's own seed sequence with the cell as its spawn key,
    drawn through ``default_rng``: the stream the simulator must reproduce.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, path, antenna))
    return np.random.default_rng(ss).standard_normal(n)
