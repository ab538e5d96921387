import math

import numpy as np
import pytest

from coposim.analysis import (LinkBudgetParams, azimuth_resolution, hausdorff, range_resolution,
                              rcs, rmse_nearest, rx_power)
from coposim.geometry import SPEED_OF_LIGHT as C
from coposim.waveform import FrequencyGrid
from oracles import brute_hausdorff


class TestResolutions:
    def test_azimuth_reference_value(self):
        val = azimuth_resolution(8.0, 1.0, 58.5e9)
        expected = C * math.sqrt(4 * 64 + 1) / (2 * 58.5e9)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.0411, abs=2e-4)

    def test_azimuth_limit_and_scaling(self):
        assert azimuth_resolution(0.0, 1.0, 58.5e9) == pytest.approx(C / (2 * 58.5e9), rel=1e-12)
        r1 = azimuth_resolution(50.0, 1.0, 58.5e9)
        r2 = azimuth_resolution(100.0, 1.0, 58.5e9)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-3)

    def test_range_reference_value(self):
        grid = FrequencyGrid(f1=57e9, tones=256, delta=11.72e6)
        assert range_resolution(grid) == pytest.approx(C / (255 * 11.72e6), rel=1e-12)
        assert range_resolution(grid) == pytest.approx(0.1003, abs=2e-4)

    def test_range_scaling(self):
        g1 = FrequencyGrid(f1=57e9, tones=129, delta=11.72e6)
        g2 = FrequencyGrid(f1=57e9, tones=257, delta=11.72e6)
        assert range_resolution(g1) == pytest.approx(2 * range_resolution(g2), rel=1e-12)
        assert range_resolution(FrequencyGrid(f1=C, tones=2, delta=C)) == pytest.approx(1.0)


class TestRcs:
    def test_normal_incidence(self):
        assert rcs(0.0, 0.5, 0.8) == pytest.approx(abs(0.8) ** 2 / (2 * 0.5), rel=1e-12)

    def test_decay_with_incident_angle(self):
        # d(ln rcs)/dtheta = 2*tan(theta)*(2 - sec^2/s2): strictly monotone
        # decreasing only for s2 <= 1/2; for larger s2 a shallow rise precedes
        # the exponential collapse, so only the large-angle decay is asserted.
        angles = np.linspace(0.0, 1.3, 200)
        for s2 in (0.2, 0.35, 0.5):
            vals = [rcs(t, s2, 1.0) for t in angles]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        for s2 in (0.2, 0.5, 1.0):
            assert rcs(1.3, s2, 1.0) < 0.01 * rcs(0.0, s2, 1.0)

    def test_roughness_prefactor(self):
        assert rcs(0.3, 100.0, 1.0) < rcs(0.3, 1.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            rcs(math.pi / 2, 1.0, 1.0)


class TestRxPower:
    def params(self, **kw):
        base = dict(pt=1.0, gt=1.0, wavelength=C / 58.5e9, r=8.0,
                    r1=5.0, r2=6.0, theta_i=0.2, theta_i_surface=0.3, s2=0.5)
        base.update(kw)
        return LinkBudgetParams(**base)

    def test_one_way_reference_value(self):
        p = self.params()
        val = rx_power("compop_los", p)
        lam = C / 58.5e9
        assert val == pytest.approx((lam / (4 * math.pi * 8.0)) ** 2, rel=1e-12)
        assert val == pytest.approx(2.6e-9, rel=0.01)

    def test_radar_inverse_fourth_power(self):
        p8 = self.params(r=8.0)
        p4 = self.params(r=4.0)
        assert rx_power("radar_los", p4) / rx_power("radar_los", p8) == pytest.approx(16.0, rel=1e-9)

    def test_cooperative_gain_over_radar(self):
        # One-way beats round trip whenever the cross-section is below 4*pi*R^2.
        for r in (1.0, 2.0, 5.0, 10.0, 20.0):
            for sig in (0.1, 1.0, 10.0):
                s2 = 0.5
                gamma = math.sqrt(sig * 2 * s2)  # rcs at normal incidence == sig
                p = self.params(r=r, s2=s2, gamma_s0=gamma, theta_i=0.0)
                ratio = rx_power("compop_los", p) / rx_power("radar_los", p)
                assert ratio == pytest.approx(4 * math.pi * r * r / sig, rel=1e-9)
                assert ratio > 1.0

    def test_nlos_formulas(self):
        p = self.params()
        lam = C / 58.5e9
        sig = rcs(p.theta_i, p.s2, p.gamma_s0)
        sig_s = rcs(p.theta_i_surface, p.s2, p.gamma_s0)
        assert rx_power("radar_nlos", p) == pytest.approx(
            lam**2 * sig * sig_s**2 / (4.0**5 * math.pi**5 * 5.0**4 * 6.0**4), rel=1e-12)
        assert rx_power("compop_nlos", p) == pytest.approx(
            lam**2 * sig_s / (64.0 * math.pi**3 * 5.0**2 * 6.0**2), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rx_power("compop_los", self.params(r=None))
        with pytest.raises(ValueError):
            rx_power("warp", self.params())


class TestHausdorff:
    def test_identity_and_basic(self):
        a = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert hausdorff(a, a) == 0.0
        assert hausdorff([[0, 0, 0]], [[3, 0, 0]]) == pytest.approx(3.0)

    def test_asymmetric_h_resolved_by_max(self):
        a = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 0.0]])
        assert hausdorff(a, b) == pytest.approx(10.0)
        assert hausdorff(b, a) == pytest.approx(10.0)

    def test_metric_axioms_random_clouds(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5, size=(rng.integers(1, 8), 3))
            b = rng.uniform(-5, 5, size=(rng.integers(1, 8), 3))
            c = rng.uniform(-5, 5, size=(rng.integers(1, 8), 3))
            hab = hausdorff(a, b)
            assert hab == pytest.approx(hausdorff(b, a), rel=1e-12)
            assert hab >= 0.0
            assert hausdorff(a, a) == 0.0
            assert hab <= hausdorff(a, c) + hausdorff(c, b) + 1e-9

    def test_matches_brute_force_on_random_clouds(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5, size=(rng.integers(1, 30), 3))
            b = rng.uniform(-5, 5, size=(rng.integers(1, 30), 3))
            assert hausdorff(a, b) == pytest.approx(brute_hausdorff(a, b), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff(np.empty((0, 3)), [[0, 0, 0]])

    def test_rmse_diagnostic(self):
        truth = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        det = truth + np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.1]])
        assert rmse_nearest(det, truth) == pytest.approx(0.1, rel=1e-9)
