import math

import numpy as np
import pytest

from coposim.errors import DegenerateGeometryError
from coposim.geometry import (ReflectionSurface, Scene, directed_angle_xz, distance_matrix,
                              mirror_point)
from oracles import mirror_across_trace, path_length, specular_point


def trace_of(surface: ReflectionSurface):
    """Two X-Z points on a surface's trace, as the oracles take it: the foot of
    the origin on the trace and the point one unit along it."""
    fx, fz = surface.offset * surface.nx, surface.offset * surface.nz
    return (fx, fz), (fx - surface.nz, fz + surface.nx)


def random_surface(rng) -> ReflectionSurface:
    """One in five is a wall along Z, nx = 1 and nz = 0, which no trace slope gives."""
    if rng.random() < 0.2:
        return ReflectionSurface(1.0, 0.0, rng.uniform(-10, 10))
    return ReflectionSurface.from_trace(rng.uniform(-4, 4), rng.uniform(-10, 10))


class TestMirrorPoint:
    def test_horizontal_surface_flips_z(self):
        s = ReflectionSurface.from_trace(0.0, 3.0)
        assert np.allclose(mirror_point(s, [1.0, 0.0, 0.0]), [1.0, 0.0, 6.0])

    def test_point_on_surface_is_fixed(self):
        s = ReflectionSurface.from_trace(2.0, -1.0)
        p = np.array([1.5, 0.7, 2.0 * 1.5 - 1.0])
        assert np.allclose(mirror_point(s, p), p, atol=1e-12)

    def test_tilted_surface_hand_example(self):
        # Reflection of (1, 0, 6) across z = x + 10: signed distance to the line
        # is -5/sqrt(2) along normal (-1, 1)/sqrt(2), so the image is (-4, 0, 11).
        s = ReflectionSurface.from_trace(1.0, 10.0)
        assert np.allclose(mirror_point(s, [1.0, 0.0, 6.0]), [-4.0, 0.0, 11.0], atol=1e-12)

    def test_involution_and_midpoint(self, rng):
        for _ in range(200):
            s = random_surface(rng)
            p = rng.uniform(-20, 20, size=3)
            q = mirror_point(s, p)
            assert np.allclose(mirror_point(s, q), p, atol=1e-12)
            assert q[1] == p[1]
            mid = 0.5 * (p + q)
            assert abs(mid[0] * s.nx + mid[2] * s.nz - s.offset) < 1e-12

    def test_wall_along_z_flips_x(self):
        s = ReflectionSurface(1.0, 0.0, 3.0)
        assert np.array_equal(mirror_point(s, [1.0, 0.2, 5.0]), [5.0, 0.2, 5.0])

    def test_matches_trace_oracle(self, rng):
        for _ in range(100):
            s = random_surface(rng)
            pts = rng.uniform(-20, 20, size=(4, 3))
            assert np.allclose(mirror_point(s, pts), mirror_across_trace(*trace_of(s), pts),
                               rtol=0.0, atol=1e-10)

    def test_normal_must_be_a_finite_unit_vector(self):
        for nx, nz, offset in ((1.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, math.inf)):
            with pytest.raises(ValueError):
                ReflectionSurface(nx, nz, offset)

    def test_vectorized_matches_scalar(self, rng):
        s = ReflectionSurface.from_trace(-0.7, 2.2)
        pts = rng.uniform(-5, 5, size=(10, 3))
        batch = mirror_point(s, pts)
        for i in range(len(pts)):
            assert np.allclose(batch[i], mirror_point(s, pts[i]))


def path_lengths(surface, tx, rx) -> np.ndarray:
    """Lengths of the paths from each of ``tx`` to each of ``rx``, direct for a
    ``surface`` of None and off ``surface`` otherwise, read off the image of
    ``tx`` that a scene holds for the path."""
    tx, rx = np.atleast_2d(tx).astype(float), np.atleast_2d(rx)
    if len(tx) == 1:   # a scene holds two transmit antennas at least
        tx = np.vstack([tx, tx + 1.0])
    direct = surface is None
    scene = Scene(tx, (0, 1), rx, () if direct else (surface,), 0.0, direct)
    return distance_matrix(scene.images[0 if direct else 1], scene.sv_antennas)


def one_path_length(surface, tx, rx) -> float:
    """Length of the path from one transmitter to one receiver."""
    return float(path_lengths(surface, tx, rx)[0, 0])


class TestPathLength:
    def test_los_zero_and_direct(self):
        assert one_path_length(None, [0, 0, 8], [0, 0, 8]) == 0.0
        assert one_path_length(None, [0, 0, 8], [0, 0, 0]) == pytest.approx(8.0)

    def test_reflected_hand_example(self):
        s = ReflectionSurface.from_trace(0.0, 3.0)
        assert one_path_length(s, [1, 0, 0], [0, 0, 0]) == pytest.approx(math.sqrt(37.0))

    def test_reflected_equals_two_segments(self, rng):
        # The mirror construction must equal tx -> specular point -> rx.
        for _ in range(100):
            s = random_surface(rng)
            tx = rng.uniform(-8, 8, size=3)
            rx = rng.uniform(-8, 8, size=3)
            try:
                sp = specular_point(trace_of(s), tx, rx)
            except ValueError:
                continue
            two_leg = np.linalg.norm(tx - sp) + np.linalg.norm(sp - rx)
            # Same-side endpoints make the specular point a true bounce.
            nx, nz, d = s.nx, s.nz, s.offset
            same_side = (tx[0] * nx + tx[2] * nz - d) * (rx[0] * nx + rx[2] * nz - d) > 0
            if same_side:
                assert one_path_length(s, tx, rx) == pytest.approx(two_leg, abs=1e-9)

    def test_reflected_at_least_direct_same_side(self, rng):
        for _ in range(100):
            s = random_surface(rng)
            tx = rng.uniform(-8, 8, size=3)
            rx = rng.uniform(-8, 8, size=3)
            nx, nz, d = s.nx, s.nz, s.offset
            if (tx[0] * nx + tx[2] * nz - d) * (rx[0] * nx + rx[2] * nz - d) > 0:
                assert one_path_length(s, tx, rx) >= np.linalg.norm(tx - rx) - 1e-12

    def test_matrix_matches_scalar(self, rng):
        s = ReflectionSurface.from_trace(1.3, 4.0)
        tx = rng.uniform(-5, 5, size=(4, 3))
        rx = rng.uniform(-5, 5, size=(6, 3))
        mat = path_lengths(s, tx, rx)
        assert mat.shape == (4, 6)
        assert mat[2, 3] == pytest.approx(path_length(trace_of(s), tx[2], rx[3]))


class TestDirectedAngle:
    def test_axis_cases(self):
        assert directed_angle_xz([0, 0, 0], [1, 0, 0]) == pytest.approx(0.0)
        assert directed_angle_xz([0, 0, 0], [0, 0, 1]) == pytest.approx(math.pi / 2)

    def test_hand_example(self):
        assert directed_angle_xz([-4, 0, 11], [1, 0, 6]) == pytest.approx(-math.pi / 4)

    def test_antisymmetry_mod_2pi(self, rng):
        for _ in range(100):
            p, q = rng.uniform(-5, 5, size=(2, 3))
            a = directed_angle_xz(p, q)
            b = directed_angle_xz(q, p)
            assert math.isclose(math.cos(a - b), -1.0, abs_tol=1e-12)

    def test_range_is_half_open(self):
        assert directed_angle_xz([0, 0, 0], [-1, 0, 0]) == pytest.approx(math.pi)

    def test_degenerate_projection_raises(self):
        with pytest.raises(DegenerateGeometryError):
            directed_angle_xz([1, 0, 2], [1, 5, 2])


class TestSceneAndPoint:
    def test_scene_validations(self):
        tv = np.array([[0, 0, 8], [1, 0, 8]], dtype=float)
        sv = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        scene = Scene(tv, (0, 1), sv, (), 1e-9, True)
        assert len(scene.tv_antennas) == 2 and scene.n_sv == 2
        with pytest.raises(ValueError):
            Scene(tv[:1], (0, 1), sv, (), 0.0, True)
        with pytest.raises(ValueError):
            Scene(np.vstack([tv, tv[:1]]), (0, 1), sv, (), 0.0, True)
        with pytest.raises(ValueError):
            Scene(tv, (0, 0), sv, (), 0.0, True)

    def test_path_enumeration(self):
        # Path 0 exists with a line of sight, path i + 1 for surface i.
        tv = np.array([[0, 0, 8], [1, 0, 8]], dtype=float)
        sv = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        s = ReflectionSurface.from_trace(1.0, 3.0)
        assert list(Scene(tv, (0, 1), sv, (s,), 0.0, True).images) == [0, 1]
        assert list(Scene(tv, (0, 1), sv, (s,), 0.0, False).images) == [1]
        assert list(Scene(tv, (0, 1), sv, (), 0.0, False).images) == []

    def test_images_are_the_mirrored_antennas(self):
        # Path 0 propagates from the transmit antennas, path i + 1 from their
        # mirror image across surface i.  Every image is read-only.
        tv = np.array([[0, 0, 8], [1, 0, 8], [0.5, 0.3, 8.4]], dtype=float)
        sv = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        surfaces = (ReflectionSurface.from_trace(1.0, 3.0), ReflectionSurface(1.0, 0.0, -2.0))
        scene = Scene(tv, (0, 1), sv, surfaces, 0.0, True)
        assert list(scene.images) == [0, 1, 2]
        assert np.array_equal(scene.images[0], tv)
        hidden = Scene(tv, (0, 1), sv, surfaces, 0.0, False)
        for s in (scene, hidden):
            for pid, surface in enumerate(surfaces, start=1):
                assert np.array_equal(s.images[pid], mirror_point(surface, tv))
            for image in s.images.values():
                assert image.shape == (3, 3)
                with pytest.raises(ValueError):
                    image[0, 0] = 1.0
