import math

import numpy as np
import pytest

from conftest import REF_DELTA, REF_GRID, small_scene, square_array
from coposim import sync
from coposim.channel import simulate_signature
from coposim.errors import DegenerateGeometryError
from coposim.geometry import SPEED_OF_LIGHT as C
from coposim.geometry import Scene
from coposim.sync import (PdoaMeasurement, estimate_clock, initial_guess, locate_anchor,
                          locate_and_sync, measure_pdoa)
from oracles import grid_search_anchor, range_diff_ssq


def observed(scene, phase_sigma=0.0, seed=0):
    """Anchor a's (N_r, 2) signature block on the scene's first path."""
    return simulate_signature(scene, REF_GRID, phase_sigma, seed)[0][0]


def sphere_array(n: int, radius: float, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return radius * v / np.linalg.norm(v, axis=1, keepdims=True)


class TestMeasure:
    def test_noiseless_matches_range_differences(self):
        scene = small_scene(clock_offset=9e-9)
        meas = measure_pdoa(observed(scene), REF_DELTA)
        d = np.linalg.norm(scene.sv_antennas - scene.anchor_a[None, :], axis=1)
        assert np.allclose(meas.range_diffs, d[1:] - d[0], atol=1e-8)

    def test_equidistant_source_gives_zero(self):
        sv = sphere_array(12, 2.0)
        tv = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=4e-9, has_los=True)
        meas = measure_pdoa(observed(scene), REF_DELTA)
        assert np.allclose(meas.range_diffs, 0.0, atol=1e-8)

    def test_range_differences_are_formed_once(self):
        meas = PdoaMeasurement(phase_diffs=np.array([0.1, 0.4, -0.2]), delta=REF_DELTA)
        assert meas.range_diffs is meas.range_diffs

    def test_variance_of_range_differences(self):
        # Monte Carlo: each antenna's phase-difference error has std sigma_z, so
        # var(F_m) = 2 * (c * sigma_z / (2*pi*delta))^2.
        sigma_z = 0.1
        tv = np.array([[0.0, 0.0, 8.0], [0.8, 0.0, 8.0]])
        sv = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=3e-9, has_los=True)
        truth = measure_pdoa(observed(scene), REF_DELTA).range_diffs[0]
        errs = np.empty(10_000)
        for i in range(len(errs)):
            meas = measure_pdoa(observed(scene, sigma_z, i), REF_DELTA)
            errs[i] = meas.range_diffs[0] - truth
        expected = 2.0 * (C * sigma_z / (2 * math.pi * REF_DELTA)) ** 2
        assert np.var(errs) == pytest.approx(expected, rel=0.08)


class TestLocate:
    def test_noiseless_recovery(self):
        scene = small_scene(clock_offset=15e-9)
        meas = measure_pdoa(observed(scene), REF_DELTA)
        guess = initial_guess(meas, scene.sv_antennas)
        res = locate_anchor(meas, scene.sv_antennas, guess)
        assert res.converged
        assert np.linalg.norm(res.x_anchor - scene.anchor_a) < 1e-6

    def test_each_visited_point_is_evaluated_once(self, monkeypatch):
        # The residual and the Jacobian come from one evaluation per point the
        # loop visits, the accepted one's carried into the next step and, at
        # the final point, into the covariance.  From a guess 0.6 m off, a
        # noiseless solve takes full steps: it visits the start and one point
        # per iteration.
        scene = small_scene(clock_offset=15e-9)
        meas = measure_pdoa(observed(scene), REF_DELTA)
        visited = []
        misfit = sync._misfit

        def counted(x, sv, measured):
            visited.append(x.copy())
            return misfit(x, sv, measured)

        monkeypatch.setattr(sync, "_misfit", counted)
        res = locate_anchor(meas, scene.sv_antennas, scene.anchor_a + [0.3, -0.2, 0.5])
        assert res.converged and res.iterations > 2
        assert len(visited) == res.iterations + 1
        assert np.array_equal(visited[-1], res.x_anchor)

    def test_residual_zero_at_truth(self):
        scene = small_scene()
        meas = measure_pdoa(observed(scene), REF_DELTA)
        assert math.sqrt(range_diff_ssq(scene.anchor_a[None, :], scene.sv_antennas,
                                        meas.range_diffs)[0]) < 1e-7

    def test_matches_bruteforce_grid(self):
        # Gauss-Newton minimiser within one fine-grid cell of the exhaustive
        # search.  An enclosing array keeps the misfit curvature isotropic, so
        # the 1 cm lattice can actually localise its own minimiser; a flat
        # in-line valley (planar aperture, distant source) would let the
        # lattice minimiser slide several cells along the valley floor.
        rng = np.random.default_rng(5)
        for trial in range(4):
            sv = sphere_array(16, 2.7, seed=trial)
            anchor = rng.uniform(-1.0, 1.0, size=3)
            tv = np.vstack([anchor, anchor + [0.7, 0.1, 0.05]])
            scene = Scene(tv, (0, 1), sv, (), clock_offset=8e-9, has_los=True)
            meas = measure_pdoa(observed(scene, 1e-3, trial), REF_DELTA)
            res = locate_anchor(meas, sv, initial_guess(meas, sv))
            ref = grid_search_anchor(meas.range_diffs, sv, center=anchor, half_span=2.0)
            assert np.linalg.norm(res.x_anchor - ref) <= math.sqrt(3) * 0.01 + 1e-9

    def test_translation_equivariance(self):
        scene = small_scene()
        t = np.array([1.5, -2.0, 3.0])
        moved = Scene(scene.tv_antennas + t, scene.anchor_indices, scene.sv_antennas + t,
                      (), scene.clock_offset, True)
        m1 = measure_pdoa(observed(scene), REF_DELTA)
        m2 = measure_pdoa(observed(moved), REF_DELTA)
        r1 = locate_anchor(m1, scene.sv_antennas, initial_guess(m1, scene.sv_antennas))
        r2 = locate_anchor(m2, moved.sv_antennas, initial_guess(m2, moved.sv_antennas))
        assert np.allclose(r2.x_anchor - r1.x_anchor, t, atol=1e-6)

    def test_objective_non_increasing(self):
        scene = small_scene()
        meas = measure_pdoa(observed(scene, 0.01, 2), REF_DELTA)
        guess = np.array([4.0, 4.0, 2.0])
        costs = []
        for iters in range(1, 12):
            res = locate_anchor(meas, scene.sv_antennas, guess, max_iter=iters)
            costs.append(range_diff_ssq(res.x_anchor[None, :], scene.sv_antennas,
                                        meas.range_diffs)[0])
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_covariance_is_psd_and_scaled(self):
        scene = small_scene()
        meas = measure_pdoa(observed(scene), REF_DELTA)
        res1 = locate_anchor(meas, scene.sv_antennas, scene.anchor_a, phase_sigma=1.0)
        res2 = locate_anchor(meas, scene.sv_antennas, scene.anchor_a, phase_sigma=2.0)
        eig = np.linalg.eigvalsh(res1.covariance)
        assert np.all(eig >= -1e-12)
        assert np.allclose(res2.covariance, 4.0 * res1.covariance, rtol=1e-6)

    def test_noiseless_covariance_is_exactly_zero(self):
        scene = small_scene()
        res = locate_and_sync(observed(scene), REF_DELTA, scene.sv_antennas)
        assert res.covariance.shape == (3, 3)
        assert np.all(res.covariance == 0.0)

    def test_noisy_covariance_is_range_noise_times_normal_inverse(self, monkeypatch):
        # sigma_F = sqrt(2) * c * sigma_phi / (2*pi*delta): each range difference
        # is a difference of two antennas' phases.  G holds the unit vectors'
        # differences against antenna 1 at the solved anchor.  Started from its
        # mirror twin behind the array, the solve converges there and returns
        # the twin's mirror image, where G's z column changes sign.
        scene = small_scene()
        phase_sigma = 3e-3
        meas = measure_pdoa(observed(scene, phase_sigma, 7), REF_DELTA)
        start = initial_guess(meas, scene.sv_antennas)
        behind = []
        canonical = sync._canonical_halfspace
        monkeypatch.setattr(sync, "_canonical_halfspace",
                            lambda x, sv: behind.append(x[2] < 0.0) or canonical(x, sv))
        sigma_f = math.sqrt(2.0) * C * phase_sigma / (2.0 * math.pi * REF_DELTA)
        for twin in (False, True):
            guess = start * [1.0, 1.0, -1.0 if twin else 1.0]
            res = locate_anchor(meas, scene.sv_antennas, guess, phase_sigma)
            assert res.converged and behind == [twin] and res.x_anchor[2] > 0.0
            behind.clear()
            units = res.x_anchor - scene.sv_antennas
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            g = units[1:] - units[0]
            assert np.allclose(res.covariance, sigma_f**2 * np.linalg.pinv(g.T @ g),
                               rtol=1e-9, atol=0.0)

    def test_rank_deficiency_raises(self):
        sv = np.stack([np.linspace(0, 1, 6), np.zeros(6), np.zeros(6)], axis=1)
        tv = np.array([[0.3, 0.0, 5.0], [0.8, 0.0, 5.0]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=0.0, has_los=True)
        meas = measure_pdoa(observed(scene), REF_DELTA)
        with pytest.raises(DegenerateGeometryError):
            locate_anchor(meas, sv, np.array([0.3, 0.5, 5.0]))


class TestInitialGuess:
    def test_close_to_truth_noiseless(self):
        scene = small_scene()
        meas = measure_pdoa(observed(scene), REF_DELTA)
        guess = initial_guess(meas, scene.sv_antennas)
        assert np.linalg.norm(guess - scene.anchor_a) < 1e-6

    def test_planar_array_off_the_origin(self):
        # Rank-2 branch: the normal component comes from r^2 - |u|^2, on the
        # side of the plane z = 3 that holds the source.
        sv = square_array(4, 1.0, z=3.0)
        tv = np.array([[-1.2, 0.7, 9.5], [0.4, -0.3, 9.0]])
        scene = small_scene(sv=sv, tv=tv)
        guess = initial_guess(measure_pdoa(observed(scene), REF_DELTA), sv)
        assert np.linalg.norm(guess - scene.anchor_a) < 1e-6

    def test_non_planar_array(self):
        # Rank-3 branch: (u, r) solved directly, for a source inside and one
        # outside the enclosing array.
        sv = sphere_array(16, 2.0)
        for anchor in ([0.3, -0.5, 0.4], [4.0, 1.0, -6.0]):
            tv = np.array([anchor, [1.0, 0.0, 0.0]])
            scene = Scene(tv, (0, 1), sv, (), clock_offset=4e-9, has_los=True)
            guess = initial_guess(measure_pdoa(observed(scene), REF_DELTA), sv)
            assert np.linalg.norm(guess - scene.anchor_a) < 1e-6

    def test_collinear_array_raises(self):
        sv = np.stack([np.linspace(0, 1, 5), np.zeros(5), np.zeros(5)], axis=1)
        meas = PdoaMeasurement(phase_diffs=np.zeros(5), delta=REF_DELTA)
        with pytest.raises(DegenerateGeometryError):
            initial_guess(meas, sv)


class TestClock:
    def test_solve_returns_the_clock_at_its_anchor(self):
        scene = small_scene(clock_offset=22e-9)
        meas = measure_pdoa(observed(scene, 1e-3, 5), REF_DELTA)
        res = locate_anchor(meas, scene.sv_antennas, initial_guess(meas, scene.sv_antennas))
        assert res.sigma_hat == estimate_clock(res.x_anchor, meas, scene.sv_antennas)

    def test_noiseless_clock_exact(self):
        scene = small_scene(clock_offset=22e-9)
        res = locate_and_sync(observed(scene), REF_DELTA, scene.sv_antennas)
        assert abs(res.sigma_hat - scene.clock_offset) < 1e-12

    def test_zero_offset(self):
        scene = small_scene(clock_offset=0.0)
        res = locate_and_sync(observed(scene), REF_DELTA, scene.sv_antennas)
        assert abs(res.sigma_hat) < 1e-12

    def test_clock_noise_scaling(self):
        # Enclosing array: position-error leakage into the mean range is tiny,
        # so std(sigma) tracks sigma_z / (2*pi*delta*sqrt(N_r)).
        n_rx = 64
        sv = sphere_array(n_rx, 3.0)
        tv = np.array([[0.2, 0.1, 0.3], [0.9, 0.0, 0.1]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=6e-9, has_los=True)
        sigma_z = 0.02
        est = []
        for seed in range(300):
            obs = observed(scene, sigma_z, seed)
            meas = measure_pdoa(obs, REF_DELTA)
            res = locate_anchor(meas, sv, tv[0] + [0.3, -0.2, 0.4])
            est.append(estimate_clock(res.x_anchor, meas, sv))
        expected = sigma_z / (2 * math.pi * REF_DELTA * math.sqrt(n_rx))
        assert np.std(est) == pytest.approx(expected, rel=0.3)
