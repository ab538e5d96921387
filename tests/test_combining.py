import dataclasses
import math

import numpy as np
import pytest

from conftest import REF_DELTA, REF_SURFACES
from coposim.analysis import hausdorff
from coposim.combining import (VirtualDetection, _ray_fit, clock_distance, combine_cluster,
                               estimate_surface, fuse_clouds, group_by_clock, search_theta_ref)
from coposim.errors import DegenerateGeometryError
from coposim.geometry import ReflectionSurface, directed_angle_xz, mirror_point
from coposim.sync import SyncResult
from oracles import (least_squares_ray_fit, map_virtual_to_actual, mirror_across_trace,
                     ray_fit_misfits, tan_form_recovery_map, transitive_merge)

# The direct-path rule these tests were written for.
DIRECT_PATH_TOL = 1e-3
# A clock estimate is known modulo this period, 1/delta.
CLOCK_PERIOD = 1.0 / REF_DELTA


def detection(path_id, x_a, x_b, cloud=(), sigma=0.0):
    """A path's record with converged anchor solves at x_a and x_b, both on clock sigma."""
    sync_a, sync_b = (SyncResult(x_anchor=np.asarray(x, dtype=float), sigma_hat=sigma,
                                 covariance=np.zeros((3, 3)), iterations=1, converged=True)
                      for x in (x_a, x_b))
    return VirtualDetection(path_id, sync_a, sync_b, cloud)


def make_detection(path_id, surface, x_a, x_b, cloud, sigma=1e-8):
    return detection(path_id, mirror_point(surface, x_a), mirror_point(surface, x_b),
                     mirror_point(surface, cloud), sigma)


def reference_cluster(sigma=1e-8, surfaces=REF_SURFACES, seed=0):
    rng = np.random.default_rng(seed)
    x_a = np.array([7.0, 0.2, 2.6])
    x_b = np.array([5.2, -0.1, 2.2])
    cloud = np.vstack([x_a, x_b,
                       0.5 * (x_a + x_b) + rng.uniform(-1, 1, (12, 3)) * [1.5, 0.5, 0.3]])
    dets = [make_detection(i + 1, s, x_a, x_b, cloud, sigma) for i, s in enumerate(surfaces)]
    return dets, x_a, x_b, cloud


class TestCandidateAnchor:
    def test_hand_worked_intersection(self):
        # Rays through (1,0,0) at pi/2 and through (-4,0,11) at -pi/4 meet at (1,0,6).
        da = detection(1, [1.0, 0.0, 0.0], [1.5, 0.0, 0.0])
        db = detection(2, [-4.0, 0.0, 11.0], [-4.0, 0.0, 11.5])
        assert (da.baseline_angle, db.baseline_angle) == (0.0, math.pi / 2)
        # baseline gap pi/2 halves to a ray-angle gap of pi/4: with theta_ref =
        # pi/2 the second ray runs at 3*pi/4, the same line as -pi/4.
        ca, cb, misfit = _ray_fit([da, db], math.pi / 2)
        assert ca.shape == cb.shape == (1, 3) and misfit.shape == (1,)
        assert np.allclose(ca[0], [1.0, 0.0, 6.0], atol=1e-9)
        assert np.allclose(cb[0], [1.5, 0.0, 6.0], atol=1e-9)
        assert misfit[0] < 1e-18

    def test_y_is_mean_of_virtual_y(self):
        da = detection(1, [1.0, 0.4, 0.0], [1.5, 0.4, 0.0])
        db = detection(2, [-4.0, 0.8, 11.0], [-4.0, 0.8, 11.5])
        ca, _, _ = _ray_fit([da, db], math.pi / 2)
        assert ca[0, 1] == pytest.approx(0.6)


    def test_anchors_coincident_in_x_z_have_no_baseline(self):
        # the record is made at sync, so a path with no baseline fails there
        with pytest.raises(DegenerateGeometryError):
            detection(1, [1.0, 0.0, 2.0], [1.0, 0.5, 2.0])


class TestSearchTheta:
    def test_reference_topology_noiseless(self):
        dets, x_a, x_b, _ = reference_cluster()
        theta, xa, xb, _ = search_theta_ref(dets)
        assert np.linalg.norm(xa - x_a) < 1e-10
        assert np.linalg.norm(xb - x_b) < 1e-10

    def test_angle_lock_identity(self):
        # theta_i - theta_j == (phi_i - phi_j)/2 for planted mirror geometry.
        dets, x_a, _, _ = reference_cluster()
        thetas = [directed_angle_xz(d.x_a_virtual, x_a) for d in dets]
        for i in range(3):
            for j in range(3):
                lhs = thetas[i] - thetas[j]
                rhs = 0.5 * (dets[i].baseline_angle - dets[j].baseline_angle)
                diff = (lhs - rhs + math.pi / 2) % math.pi - math.pi / 2
                assert abs(diff) < 1e-9

    def test_objective_zero_at_truth(self):
        dets, x_a, _, _ = reference_cluster()
        theta_true = directed_angle_xz(dets[0].x_a_virtual, x_a)
        theta_found, _, _, _ = search_theta_ref(dets)
        misfit_true = _ray_fit(dets, theta_true)[2][0]
        assert misfit_true < 1e-18
        # the minimum is a simple root of the misfit's derivative, so the
        # closed form lands on it to within rounding
        assert _ray_fit(dets, theta_found)[2][0] <= misfit_true + 1e-15
        assert abs((theta_found - theta_true + math.pi / 2) % math.pi - math.pi / 2) < 1e-11

    def test_misfit_is_a_degree_three_polynomial_in_twice_the_angle(self, rng):
        # Seven samples theta_n = n pi / 7 fix harmonics 0-3 of 2 theta; the
        # polynomial they fix must give the loop oracle's misfit at any angle.
        samples = np.arange(7) * math.pi / 7
        for n in (3, 4, 5, 6, 3, 4, 5, 6):
            a, b = rng.uniform(-8, 8, (n, 3)), rng.uniform(-8, 8, (n, 3))
            phi = rng.uniform(-math.pi, math.pi, n)
            c = np.fft.rfft([least_squares_ray_fit(a, b, phi, t)[2] for t in samples])
            for theta in rng.uniform(-math.pi, math.pi, 50):
                harmonics = np.exp(2j * np.arange(1, 4) * theta)
                rebuilt = (c[0].real + 2 * (c[1:] * harmonics).real.sum()) / 7
                assert rebuilt == pytest.approx(least_squares_ray_fit(a, b, phi, theta)[2],
                                                rel=1e-9)

    def test_search_is_global(self, rng):
        # Noisy virtual anchors: no angle makes the rays meet, and the misfit
        # can have several local minima; the closed form must find the lowest.
        dense = np.arange(-math.pi / 2, math.pi / 2, 1e-4)
        for case in range(12):
            n = 3 + case % 4
            x_a, x_b = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
            noise = rng.uniform(0.0, 0.5)
            cluster = []
            for l in range(n):
                surface = ReflectionSurface.from_trace(rng.uniform(-3, 3), rng.uniform(-6, 6))
                va = mirror_point(surface, x_a) + rng.normal(0.0, noise, 3)
                vb = mirror_point(surface, x_b) + rng.normal(0.0, noise, 3)
                cluster.append(detection(l, va, vb))
            a = [d.x_a_virtual for d in cluster]
            b = [d.x_b_virtual for d in cluster]
            phi = [d.baseline_angle for d in cluster]
            scan = ray_fit_misfits(a, b, phi, dense)
            for k in (0, 7919, 22222):
                assert scan[k] == pytest.approx(least_squares_ray_fit(a, b, phi, dense[k])[2],
                                                rel=1e-9, abs=1e-12)
            theta, xa, xb, residual = search_theta_ref(cluster)
            assert -math.pi / 2 < theta <= math.pi / 2
            found = least_squares_ray_fit(a, b, phi, theta)
            assert found[2] <= scan.min() * (1 + 1e-12) + 1e-12
            assert np.allclose(xa, found[0], atol=1e-9) and np.allclose(xb, found[1], atol=1e-9)
            assert residual == pytest.approx(math.sqrt(found[2] / (2 * n)), rel=1e-9, abs=1e-12)

    def test_ray_fit_matches_loop_oracle(self, rng):
        grid = np.linspace(-math.pi / 2, math.pi / 2, 181)[1:]
        for case, n in enumerate((3, 3, 4, 4, 5, 5, 6, 6)):
            phi = rng.uniform(-math.pi, math.pi, n)
            if case % 2:
                phi[rng.integers(1, n)] = phi[0]  # one pair parallel at every angle
            # each b-anchor sits off its a-anchor along the path's baseline angle
            x_a = rng.uniform(-8, 8, (n, 3))
            x_b = x_a + rng.uniform(0.5, 8, (n, 1)) * np.column_stack(
                [np.cos(phi), rng.uniform(-1, 1, n), np.sin(phi)])
            cluster = [detection(l, x_a[l], x_b[l]) for l in range(n)]
            phi = [d.baseline_angle for d in cluster]
            ca, cb, misfit = _ray_fit(cluster, grid)
            assert ca.shape == cb.shape == (len(grid), 3) and misfit.shape == grid.shape
            for k, theta in enumerate(grid):
                oa, ob, om = least_squares_ray_fit(x_a, x_b, phi, theta)
                assert np.allclose(ca[k], oa, rtol=1e-9, atol=1e-9)
                assert np.allclose(cb[k], ob, rtol=1e-9, atol=1e-9)
                assert misfit[k] == pytest.approx(om, rel=1e-9, abs=1e-12)
            one = _ray_fit(cluster, float(grid[7]))
            assert np.allclose(one[0][0], ca[7], rtol=1e-12, atol=0.0)
            assert one[2][0] == pytest.approx(misfit[7], rel=1e-12)

    def test_parallel_pair_keeps_the_fitted_anchors(self):
        # a repeated detection is parallel to its twin at every angle
        dets, x_a, x_b, _ = reference_cluster()
        twin = detection(9, dets[1].x_a_virtual, dets[1].x_b_virtual, sigma=dets[1].sigma_hat)
        _, xa, xb, _ = search_theta_ref(dets + [twin])
        assert np.linalg.norm(xa - x_a) < 1e-4
        assert np.linalg.norm(xb - x_b) < 1e-4

    def test_all_parallel_degenerate(self):
        # identical baseline angles at every detection make all ray pairs parallel
        dets = [detection(i, [float(i), 0.0, 0.0], [float(i) + 1, 0.0, 0.0]) for i in range(3)]
        with pytest.raises(DegenerateGeometryError):
            search_theta_ref(dets)


class TestSurfaceAndMapping:
    def test_surface_hand_example(self):
        # the plane z = 3
        s = estimate_surface([1.0, 0.0, 6.0], [1.0, 0.0, 0.0], theta=math.pi / 2)
        assert s.nx == pytest.approx(0.0, abs=1e-12)
        assert s.nz == pytest.approx(1.0)
        assert s.offset == pytest.approx(3.0)

    def test_wall_along_z(self):
        # the plane x = 3, which no trace slope gives
        actual, virtual = np.array([2.0, 0.4, 1.0]), np.array([4.0, 0.4, 1.0])
        s = estimate_surface(actual, virtual, theta=0.0)
        assert (s.nx, s.nz, s.offset) == (1.0, 0.0, 3.0)
        assert np.array_equal(mirror_point(s, virtual), actual)

    def test_recovered_reference_surfaces(self):
        dets, x_a, _, _ = reference_cluster()
        res = combine_cluster(dets, merge_radius=0.05,
                              direct_path_tol=DIRECT_PATH_TOL)
        for det, planted in zip(dets, REF_SURFACES):
            est = det.surface
            assert est is not None
            # normal angle psi = atan2(nz, nx), known modulo pi; the offset
            # changes sign with the normal
            turn = math.atan2(est.nz, est.nx) - math.atan2(planted.nz, planted.nx)
            sign = round(math.cos(turn))
            assert abs((turn + math.pi / 2) % math.pi - math.pi / 2) < 1e-9
            assert sign * est.offset == pytest.approx(planted.offset, abs=1e-9)

    def test_mapping_matches_tan_form_oracle(self, rng):
        # The mirror across the estimated surface, as combine_cluster maps a
        # virtual cloud, must agree with the closed tan() expression where it
        # is defined, and with the vector reflection at every angle.
        for theta in [*rng.uniform(-math.pi / 2, math.pi / 2, 50), 0.0, math.pi / 2]:
            x_star = rng.uniform(-5, 5, 3)
            direction = np.array([math.cos(theta), 0.0, math.sin(theta)])
            x_virt = x_star + rng.uniform(0.5, 4.0) * direction
            pts = rng.uniform(-6, 6, (8, 3))
            ours = mirror_point(estimate_surface(x_star, x_virt, theta), pts)
            assert np.allclose(ours, map_virtual_to_actual(pts, theta, x_star, x_virt), atol=1e-9)
            assert np.allclose(ours[:, 1], pts[:, 1])
            if abs(math.sin(theta)) >= 0.05 and abs(math.cos(theta)) >= 0.05:
                oracle = tan_form_recovery_map(pts, theta, x_star, x_virt)
                assert np.allclose(ours, oracle, atol=1e-9)

    def test_mapping_is_involution_and_fixes_surface_points(self):
        theta = 0.7
        x_star = np.array([1.0, 0.0, 2.0])
        x_virt = x_star + 3.0 * np.array([math.cos(theta), 0.0, math.sin(theta)])
        surface = estimate_surface(x_star, x_virt, theta)
        foot = surface.offset * np.array([surface.nx, 0.0, surface.nz])
        along = np.array([-surface.nz, 0.0, surface.nx])
        on_surface = np.array([foot + [0.0, 0.3, 0.0], foot + 2.0 * along - [0.0, 0.1, 0.0]])
        assert np.allclose(mirror_point(surface, on_surface), on_surface, atol=1e-9)
        pts = np.array([[0.4, 0.2, 1.0], [-2.0, 0.0, 5.0]])
        assert np.allclose(mirror_point(surface, mirror_point(surface, pts)), pts, atol=1e-9)

    def test_mirror_matches_textbook_reflection(self, rng):
        for _ in range(30):
            slope = rng.uniform(-3, 3)
            intercept = rng.uniform(-5, 5)
            pts = rng.uniform(-8, 8, (5, 3))
            ours = mirror_point(ReflectionSurface.from_trace(slope, intercept), pts)
            trace = (0.0, intercept), (1.0, slope + intercept)
            assert np.allclose(ours, mirror_across_trace(*trace, pts), atol=1e-10)


class TestFuseAndCluster:
    def test_identical_clouds_merge(self):
        cloud = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        fused = fuse_clouds([cloud, cloud.copy(), cloud.copy()], merge_radius=0.05)
        assert fused.shape == (2, 3)
        assert np.allclose(np.sort(fused[:, 0]), [0.0, 1.0])
        # merged rows keep the order in which their points first appear
        assert np.array_equal(fused, cloud)

    def test_disjoint_clouds_union(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[5.0, 0.0, 0.0]])
        fused = fuse_clouds([a, b], merge_radius=0.1)
        assert fused.shape == (2, 3)

    def test_near_duplicates_average(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[0.02, 0.0, 0.0]])
        fused = fuse_clouds([a, b], merge_radius=0.05)
        assert fused.shape == (1, 3)
        assert fused[0, 0] == pytest.approx(0.01)

    def test_chain_merges_transitively(self):
        # A-B and B-C are within the radius, A-C is not: all three fuse.
        chain = np.array([[0.0, 0.0, 0.0], [0.04, 0.0, 0.0], [0.08, 0.0, 0.0]])
        fused = fuse_clouds([chain[[0, 2]], chain[[1]]], merge_radius=0.05)
        assert fused.shape == (1, 3)
        assert np.allclose(fused, [[0.04, 0.0, 0.0]])

    def test_points_exactly_merge_radius_apart_merge(self):
        fused = fuse_clouds([[[0.0, 0.0, 0.0]], [[0.5, 0.0, 0.0]]], merge_radius=0.5)
        assert np.array_equal(fused, [[0.25, 0.0, 0.0]])

    def test_interleaved_groups_keep_first_appearance_order(self):
        p, q, r = np.eye(3) * 4.0
        cloud_1 = np.array([q, p + 0.01])
        cloud_2 = np.array([r, p, q + 0.01, r + 0.01])
        fused = fuse_clouds([cloud_1, cloud_2], merge_radius=0.05)
        assert np.allclose(fused, [q + 0.005, p + 0.005, r + 0.005])

    def test_matches_union_find_on_random_clouds(self, rng):
        for _ in range(30):
            clouds = [rng.uniform(0, 1, size=(rng.integers(0, 25), 3)) for _ in range(3)]
            if not any(len(c) for c in clouds):
                continue
            radius = float(rng.uniform(0.05, 0.3))
            fused = fuse_clouds(clouds, merge_radius=radius)
            expected = transitive_merge(np.concatenate(clouds), radius)
            assert fused.shape == expected.shape
            assert np.allclose(fused, expected, rtol=0, atol=1e-12)

    def test_group_by_clock(self):
        def det(pid, sig):
            return detection(pid, [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], sigma=sig)
        same = [det(1, 1.00e-8), det(2, 1.01e-8), det(3, 0.99e-8)]
        clusters = group_by_clock(same, tolerance=5e-10, period=CLOCK_PERIOD)
        assert len(clusters) == 1 and len(clusters[0]) == 3
        other = same + [det(4, 2.0e-8), det(5, 2.005e-8)]
        clusters = group_by_clock(other, tolerance=5e-10, period=CLOCK_PERIOD)
        assert [len(c) for c in clusters] == [3, 2]
        # A clock is known only modulo 1/delta: estimates a period apart, and
        # estimates on either side of a period boundary, are the same clock.
        shifted = [det(1, 2.0e-8 + CLOCK_PERIOD), det(2, 2.0e-8), det(3, 2.01e-8 + CLOCK_PERIOD),
                   det(4, 5.0e-8)]
        clusters = group_by_clock(shifted, tolerance=5e-10, period=CLOCK_PERIOD)
        assert [[d.path_id for d in c] for c in clusters] == [[1, 2, 3], [4]]
        straddling = [det(1, 1e-10), det(2, CLOCK_PERIOD - 2e-10), det(3, 4e-8),
                      det(4, -1e-10)]
        clusters = group_by_clock(straddling, tolerance=5e-10, period=CLOCK_PERIOD)
        assert [[d.path_id for d in c] for c in clusters] == [[2, 4, 1], [3]]
        pair = [det(1, 1e-10), det(2, CLOCK_PERIOD - 1e-10)]
        assert [len(c) for c in group_by_clock(pair, 5e-10, CLOCK_PERIOD)] == [2]

    def test_clock_distance_is_the_gap_to_the_nearest_period(self):
        assert clock_distance(2e-8 + 3 * CLOCK_PERIOD, 2e-8, CLOCK_PERIOD) < 1e-20
        assert clock_distance(1e-10, CLOCK_PERIOD - 1e-10, CLOCK_PERIOD) == pytest.approx(2e-10)
        assert clock_distance(-3e-9, 4e-9, CLOCK_PERIOD) == pytest.approx(7e-9)
        gaps = clock_distance(np.array([0.0, 0.5, 1.0]) * CLOCK_PERIOD, 0.0, CLOCK_PERIOD)
        assert np.allclose(gaps, [0.0, 0.5 * CLOCK_PERIOD, 0.0], rtol=0, atol=1e-22)


class TestFullCombine:
    def test_noiseless_roundtrip(self):
        dets, x_a, x_b, cloud = reference_cluster()
        res = combine_cluster(dets, merge_radius=0.05,
                              direct_path_tol=DIRECT_PATH_TOL)
        assert np.linalg.norm(res.x_a_star - x_a) < 1e-4
        assert hausdorff(res.actual_cloud, cloud) < 1e-3

    def test_fourth_surface_still_exact(self):
        surfaces = REF_SURFACES + (ReflectionSurface.from_trace(-0.6, 3.5),)
        dets, x_a, _, cloud = reference_cluster(surfaces=surfaces)
        res = combine_cluster(dets, merge_radius=0.05,
                              direct_path_tol=DIRECT_PATH_TOL)
        assert np.linalg.norm(res.x_a_star - x_a) < 1e-4
        assert hausdorff(res.actual_cloud, cloud) < 1e-3

    def test_direct_path_passthrough(self):
        # a direct-view detection (virtual == actual) fuses without mirroring
        dets, x_a, x_b, cloud = reference_cluster()
        direct = detection(0, x_a, x_b, cloud.copy(), sigma=1e-8)
        res = combine_cluster([direct] + dets, merge_radius=0.05,
                              direct_path_tol=DIRECT_PATH_TOL)
        assert np.linalg.norm(res.x_a_star - x_a) < 1e-4
        assert direct.surface is None and direct.mapped is direct.cloud
        assert hausdorff(res.actual_cloud, cloud) < 1e-3

    def test_residual_reads_the_ray_spread(self):
        # Noiseless rays meet in one point; a spoiled anchor-b solve, turned
        # 0.05 rad about the path's a-anchor in X-Z, turns its rays off it, and
        # the residual says so.  Four paths: with three, a virtual pair turned
        # about its a-anchor is the mirror image of another transmitter pose,
        # so the rays meet again (residual ~1e-14, anchor 2-5 m off).
        surfaces = REF_SURFACES + (ReflectionSurface.from_trace(-0.6, 3.5),)
        dets, x_a, x_b, _ = reference_cluster(surfaces=surfaces)
        res = combine_cluster(dets, merge_radius=0.05,
                              direct_path_tol=DIRECT_PATH_TOL)
        assert res.residual_m < 1e-8
        assert np.linalg.norm(res.x_a_star - x_a) < 1e-7
        assert np.linalg.norm(res.x_b_star - x_b) < 1e-7
        va, vb = dets[1].x_a_virtual, dets[1].x_b_virtual
        c, s = math.cos(0.05), math.sin(0.05)
        dx, dz = vb[0] - va[0], vb[2] - va[2]
        turned = va + [c * dx - s * dz, vb[1] - va[1], s * dx + c * dz]
        spoiled = dataclasses.replace(
            dets[1], sync_b=dataclasses.replace(dets[1].sync_b, x_anchor=turned))
        turn = spoiled.baseline_angle - dets[1].baseline_angle
        assert (turn + math.pi) % (2 * math.pi) - math.pi == pytest.approx(0.05)
        res = combine_cluster([dets[0], spoiled, *dets[2:]], merge_radius=0.05,
                              direct_path_tol=DIRECT_PATH_TOL)
        assert res.residual_m >= 1e3 * 1e-8
