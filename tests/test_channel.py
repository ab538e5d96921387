import math

import numpy as np
import pytest

from conftest import REF_DELTA, REF_GRID, REF_SIGNATURE, small_scene, square_array
from coposim.channel import NOISELESS, NoiseModel, simulate_sfcw, simulate_signature
from coposim.geometry import SPEED_OF_LIGHT as C
from coposim.geometry import ReflectionSurface, Scene, path_length
from coposim.scenario import ScenarioConfig
from coposim.waveform import FrequencyGrid
from oracles import direct_sfcw, mirror_across_line


class TestSignature:
    def test_intertone_phase_encodes_clock_minus_delay(self):
        scene = small_scene(clock_offset=12e-9)
        obs = simulate_signature(scene, REF_SIGNATURE, NOISELESS)[0]
        for m, p in enumerate(scene.sv_antennas):
            tau = path_length(None, scene.anchor_a, p) / C
            expected = 2 * math.pi * REF_DELTA * (scene.clock_offset - tau)
            measured = np.angle(obs.sig_a[m, 1] * np.conj(obs.sig_a[m, 0]))
            assert math.isclose((measured - expected + math.pi) % (2 * math.pi) - math.pi,
                                0.0, abs_tol=1e-9)

    def test_magnitudes_equal_gamma(self):
        surf = ReflectionSurface(slope=0.5, intercept=3.0, gamma=0.6 * np.exp(1j * 0.3))
        scene = small_scene(surfaces=(surf,), has_los=True)
        obs = simulate_signature(scene, REF_SIGNATURE, NOISELESS)
        assert np.allclose(np.abs(obs[0].sig_a), 1.0)
        assert np.allclose(np.abs(obs[1].sig_b), 0.6)

    def test_large_clock_offset_phase_value(self):
        # tau = 0 at an antenna colocated with the anchor: the inter-tone phase
        # is 2*pi*delta*sigma mod 2*pi = 2*pi*0.72 ~ 4.524 rad.
        tv = np.array([[0.0, 0.0, 8.0], [1.0, 0.0, 8.0]])
        sv = np.array([[0.0, 0.0, 8.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=1e-6, has_los=True)
        obs = simulate_signature(scene, REF_SIGNATURE, NOISELESS)[0]
        measured = np.angle(obs.sig_a[0, 1] * np.conj(obs.sig_a[0, 0]))
        frac = (REF_DELTA * 1e-6) % 1.0
        expected = 2 * math.pi * frac
        expected = (expected + math.pi) % (2 * math.pi) - math.pi
        assert measured == pytest.approx(expected, abs=1e-9)

    def test_noiseless_roundtrip_recovers_clock(self):
        scene = small_scene(clock_offset=17e-9)
        obs = simulate_signature(scene, REF_SIGNATURE, NOISELESS)[0]
        eta = np.angle(obs.sig_a[:, 0] * np.conj(obs.sig_a[:, 1]))
        tau = np.array([path_length(None, scene.anchor_a, p) for p in scene.sv_antennas]) / C
        sigma = tau - eta / (2 * math.pi * REF_DELTA)
        assert np.allclose(sigma, scene.clock_offset, atol=1e-12)


class TestSfcw:
    def test_two_equidistant_transmitters_sum_coherently(self):
        tv = np.array([[1.0, 0.0, 8.0], [-1.0, 0.0, 8.0]])
        sv = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, -0.5, 0.0]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=5e-9, has_los=True)
        grid = FrequencyGrid(f1=57e9, tones=8, delta=REF_DELTA)
        obs = simulate_sfcw(scene, grid, NOISELESS, sigma_estimate=scene.clock_offset)[0]
        tau = path_length(None, tv[0], sv[0]) / C
        expected = 2.0 * np.exp(-2j * math.pi * grid.frequencies * tau)
        assert np.allclose(obs.sfcw[0], expected, atol=1e-9)

    def test_magnitude_bounded_by_antenna_count(self):
        scene = small_scene()
        grid = FrequencyGrid(f1=57e9, tones=16, delta=REF_DELTA)
        obs = simulate_sfcw(scene, grid, NOISELESS, sigma_estimate=scene.clock_offset)[0]
        assert np.all(np.abs(obs.sfcw) <= scene.n_tv + 1e-9)

    def test_residual_clock_shifts_phases(self):
        scene = small_scene()
        grid = FrequencyGrid(f1=57e9, tones=4, delta=REF_DELTA)
        exact = simulate_sfcw(scene, grid, NOISELESS, sigma_estimate=scene.clock_offset)[0]
        off = simulate_sfcw(scene, grid, NOISELESS, sigma_estimate=scene.clock_offset - 1e-10)[0]
        ramp = np.exp(2j * math.pi * grid.frequencies * 1e-10)
        assert np.allclose(off.sfcw, exact.sfcw * ramp[None, :], atol=1e-9)

    @pytest.mark.parametrize("tones", [2, 15, 16, 17, 33])
    def test_matches_direct_sum_over_blocks(self, tones):
        # Tone counts below, at and around the recurrence block, and a
        # partial last block; a direct and a reflected path with their own
        # residual clock offsets.
        surf = ReflectionSurface(slope=0.8, intercept=3.5, gamma=0.6 * np.exp(1j * 0.3))
        scene = small_scene(surfaces=(surf,), has_los=True, clock_offset=12e-9)
        grid = FrequencyGrid(f1=57e9, tones=tones, delta=3e9 / 32)
        est = {0: 11.2e-9, 1: 12.9e-9}
        obs = simulate_sfcw(scene, grid, NOISELESS, sigma_estimate=est)
        images = (scene.tv_antennas, mirror_across_line(0.8, 3.5, scene.tv_antennas))
        for o, tv in zip(obs, images):
            ref = direct_sfcw(tv, scene.sv_antennas, grid.frequencies,
                              scene.clock_offset - est[o.path_id], o.gamma)
            assert o.sfcw.shape == ref.shape == (scene.n_sv, tones)
            assert np.allclose(o.sfcw, ref, rtol=0.0, atol=1e-10 * np.abs(ref).max())

    def test_snr_calibration(self):
        # Empirical per-symbol SNR within 0.2 dB of the requested level.
        sv = square_array(10, 1.0)
        tv = np.array([[0.3, 0.1, 8.0], [-0.4, 0.0, 7.9], [0.0, 0.2, 8.2]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=0.0, has_los=True)
        grid = FrequencyGrid(f1=57e9, tones=100, delta=REF_DELTA)
        clean = simulate_sfcw(scene, grid, NOISELESS, sigma_estimate=0.0)[0].sfcw
        noisy = simulate_sfcw(scene, grid, NoiseModel(0.0, 10.0, 7), sigma_estimate=0.0)[0].sfcw
        snr = np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noisy - clean) ** 2)
        assert abs(10 * math.log10(snr) - 10.0) < 0.2

    def test_phase_noise_statistics(self):
        # Per-antenna inter-tone phase error should have std phase_sigma.
        scene = small_scene(sv=square_array(40, 1.0))
        errs = []
        for seed in range(8):
            noisy = simulate_signature(scene, REF_SIGNATURE, NoiseModel(0.05, None, seed))[0]
            clean = simulate_signature(scene, REF_SIGNATURE, NOISELESS)[0]
            d = np.angle(noisy.sig_a[:, 0] * np.conj(noisy.sig_a[:, 1])) \
                - np.angle(clean.sig_a[:, 0] * np.conj(clean.sig_a[:, 1]))
            errs.append((d + math.pi) % (2 * math.pi) - math.pi)
        std = np.concatenate(errs).std()
        assert std == pytest.approx(0.05, rel=0.05)


class TestDeterminismAndPlumbing:
    def test_bit_identical_for_fixed_seed(self):
        scene = small_scene(surfaces=(ReflectionSurface(slope=1.0, intercept=3.0),))
        grid = FrequencyGrid(f1=57e9, tones=32, delta=REF_DELTA)
        noise = NoiseModel(0.1, 10.0, 12345)
        a1 = simulate_signature(scene, REF_SIGNATURE, noise)
        a2 = simulate_signature(scene, REF_SIGNATURE, noise)
        s1 = simulate_sfcw(scene, grid, noise, sigma_estimate=1e-9)
        s2 = simulate_sfcw(scene, grid, noise, sigma_estimate=1e-9)
        for x, y in zip(a1 + s1, a2 + s2):
            for fx, fy in ((x.sig_a, y.sig_a), (x.sig_b, y.sig_b), (x.sfcw, y.sfcw)):
                if fx is not None:
                    assert np.array_equal(fx, fy)

    def test_path_subset_reproduces_the_full_run(self):
        # The pipeline simulates one path at a time with its own clock
        # estimate; noise is keyed by (seed, domain, path, antenna), so each
        # one-path run must equal that path of the full run bit for bit.
        surf = (ReflectionSurface(slope=1.0, intercept=3.0, gamma=0.7j),
                ReflectionSurface(slope=0.3, intercept=4.0, gamma=-0.5))
        scene = small_scene(surfaces=surf, has_los=True)
        grid = FrequencyGrid(f1=57e9, tones=40, delta=REF_DELTA)
        noise = NoiseModel(0.05, 10.0, 4242)
        est = {0: 11.9e-9, 1: 12.4e-9, 2: 10.7e-9}
        full = simulate_sfcw(scene, grid, noise, sigma_estimate=est)
        clean = simulate_sfcw(scene, grid, NOISELESS, sigma_estimate=est)
        assert [o.path_id for o in full] == [0, 1, 2]
        for p in est:
            sub = simulate_sfcw(scene, grid, noise, sigma_estimate={p: est[p]}, path_ids=[p])
            assert [o.path_id for o in sub] == [p]
            assert np.array_equal(sub[0].sfcw, full[p].sfcw)
            assert not np.allclose(full[p].sfcw, clean[p].sfcw)


def test_noise_model_defaults_follow_the_scenario_defaults():
    spec = ScenarioConfig().noise
    model = NoiseModel()
    assert (model.phase_sigma, model.snr_db) == (spec.phase_sigma_rad, spec.snr_db)
