import math

import numpy as np
import pytest

from coposim.analysis import azimuth_resolution, hausdorff, range_resolution, rmse_nearest
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
        assert range_resolution(FrequencyGrid(f1=5 * C, tones=2, delta=C)) == pytest.approx(1.0)


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
