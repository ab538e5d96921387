import math

import numpy as np
import pytest

from conftest import REF_DELTA, REF_GRID, small_scene, square_array
from coposim.channel import simulate_sfcw, simulate_signature
from coposim.geometry import SPEED_OF_LIGHT as C
from coposim.geometry import ReflectionSurface, Scene, distance_matrix
from coposim.waveform import FrequencyGrid
from oracles import cell_normals, direct_sfcw, mirror_across_trace, path_length


class TestSignature:
    def test_intertone_phase_encodes_clock_minus_delay(self):
        scene = small_scene(clock_offset=12e-9)
        sig_a = simulate_signature(scene, REF_GRID, 0.0, 0)[0][0]
        for m, p in enumerate(scene.sv_antennas):
            tau = path_length(None, scene.anchor_a, p) / C
            expected = 2 * math.pi * REF_DELTA * (scene.clock_offset - tau)
            measured = np.angle(sig_a[m, 1] * np.conj(sig_a[m, 0]))
            assert math.isclose((measured - expected + math.pi) % (2 * math.pi) - math.pi,
                                0.0, abs_tol=1e-9)

    def test_every_path_has_unit_magnitude(self):
        surf = ReflectionSurface.from_trace(0.5, 3.0)
        scene = small_scene(surfaces=(surf,), has_los=True)
        for symbols in simulate_signature(scene, REF_GRID, 0.0, 0).values():
            assert symbols.shape == (2, scene.n_sv, 2) and np.allclose(np.abs(symbols), 1.0)

    def test_large_clock_offset_phase_value(self):
        # tau = 0 at an antenna colocated with the anchor: the inter-tone phase
        # is 2*pi*delta*sigma mod 2*pi = 2*pi*0.72 ~ 4.524 rad.
        tv = np.array([[0.0, 0.0, 8.0], [1.0, 0.0, 8.0]])
        sv = np.array([[0.0, 0.0, 8.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=1e-6, has_los=True)
        sig_a = simulate_signature(scene, REF_GRID, 0.0, 0)[0][0]
        measured = np.angle(sig_a[0, 1] * np.conj(sig_a[0, 0]))
        frac = (REF_DELTA * 1e-6) % 1.0
        expected = 2 * math.pi * frac
        expected = (expected + math.pi) % (2 * math.pi) - math.pi
        assert measured == pytest.approx(expected, abs=1e-9)

    def test_noiseless_roundtrip_recovers_clock(self):
        scene = small_scene(clock_offset=17e-9)
        sig_a = simulate_signature(scene, REF_GRID, 0.0, 0)[0][0]
        eta = np.angle(sig_a[:, 0] * np.conj(sig_a[:, 1]))
        tau = np.array([path_length(None, scene.anchor_a, p) for p in scene.sv_antennas]) / C
        sigma = tau - eta / (2 * math.pi * REF_DELTA)
        assert np.allclose(sigma, scene.clock_offset, atol=1e-12)


class TestSfcw:
    def test_two_equidistant_transmitters_sum_coherently(self):
        tv = np.array([[1.0, 0.0, 8.0], [-1.0, 0.0, 8.0]])
        sv = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, -0.5, 0.0]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=5e-9, has_los=True)
        grid = FrequencyGrid(f1=57e9, tones=8, delta=REF_DELTA)
        for pid in scene.images:
            sfcw = simulate_sfcw(scene, grid, None, 0, pid, scene.clock_offset)
            tau = path_length(None, tv[0], sv[0]) / C
            expected = 2.0 * np.exp(-2j * math.pi * grid.frequencies * tau)
            assert np.allclose(sfcw[0], expected, atol=1e-9)

    def test_magnitude_bounded_by_antenna_count(self):
        scene = small_scene()
        grid = FrequencyGrid(f1=57e9, tones=16, delta=REF_DELTA)
        for pid in scene.images:
            sfcw = simulate_sfcw(scene, grid, None, 0, pid, scene.clock_offset)
            assert np.all(np.abs(sfcw) <= len(scene.tv_antennas) + 1e-9)

    def test_residual_clock_shifts_phases(self):
        scene = small_scene()
        grid = FrequencyGrid(f1=57e9, tones=4, delta=REF_DELTA)
        for pid in scene.images:
            exact = simulate_sfcw(scene, grid, None, 0, pid, scene.clock_offset)
            off = simulate_sfcw(scene, grid, None, 0, pid, scene.clock_offset - 1e-10)
            ramp = np.exp(2j * math.pi * grid.frequencies * 1e-10)
            assert np.allclose(off, exact * ramp[None, :], atol=1e-9)

    @pytest.mark.parametrize("tones", [2, 15, 16, 17, 33, 128, 300])
    def test_matches_direct_sum_over_blocks(self, tones):
        # The recurrence runs along the whole comb, so its rounding grows with
        # the tone count: up to the pipeline's 128 tones and past it, on a
        # direct and a reflected path with their own residual clock offsets.
        surf = ReflectionSurface.from_trace(0.8, 3.5)
        scene = small_scene(surfaces=(surf,), has_los=True, clock_offset=12e-9)
        grid = FrequencyGrid(f1=57e9, tones=tones, delta=3e9 / 32)
        est = {0: 11.2e-9, 1: 12.9e-9}
        trace = ((0.0, 3.5), (1.0, 4.3))   # z = 0.8 x + 3.5
        images = (scene.tv_antennas, mirror_across_trace(*trace, scene.tv_antennas))
        for pid, tv in zip(est, images):
            sfcw = simulate_sfcw(scene, grid, None, 0, pid, est[pid])
            ref = direct_sfcw(tv, scene.sv_antennas, grid.frequencies,
                              scene.clock_offset - est[pid])
            assert sfcw.shape == ref.shape == (scene.n_sv, tones)
            assert np.allclose(sfcw, ref, rtol=0.0, atol=1e-10 * np.abs(ref).max())

    def test_snr_calibration(self):
        # Empirical per-symbol SNR within 0.2 dB of the requested level.
        sv = square_array(10, 1.0)
        tv = np.array([[0.3, 0.1, 8.0], [-0.4, 0.0, 7.9], [0.0, 0.2, 8.2]])
        scene = Scene(tv, (0, 1), sv, (), clock_offset=0.0, has_los=True)
        grid = FrequencyGrid(f1=57e9, tones=100, delta=REF_DELTA)
        for pid in scene.images:
            clean = simulate_sfcw(scene, grid, None, 0, pid, 0.0)
            noisy = simulate_sfcw(scene, grid, 10.0, 7, pid, 0.0)
            snr = np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noisy - clean) ** 2)
            assert abs(10 * math.log10(snr) - 10.0) < 0.2

    def test_phase_noise_statistics(self):
        # Per-antenna inter-tone phase error should have std phase_sigma.
        scene = small_scene(sv=square_array(40, 1.0))
        errs = []
        for seed in range(8):
            noisy = simulate_signature(scene, REF_GRID, 0.05, seed)[0][0]
            clean = simulate_signature(scene, REF_GRID, 0.0, 0)[0][0]
            d = np.angle(noisy[:, 0] * np.conj(noisy[:, 1])) \
                - np.angle(clean[:, 0] * np.conj(clean[:, 1]))
            errs.append((d + math.pi) % (2 * math.pi) - math.pi)
        std = np.concatenate(errs).std()
        assert std == pytest.approx(0.05, rel=0.05)

    @pytest.mark.parametrize("snr_db", [math.inf, None])
    def test_infinite_or_no_snr_adds_no_sfcw_noise(self, snr_db):
        scene = small_scene()
        grid = FrequencyGrid(f1=57e9, tones=8, delta=REF_DELTA)
        assert np.array_equal(simulate_sfcw(scene, grid, snr_db, 5, 0, 1e-9),
                              simulate_sfcw(scene, grid, None, 0, 0, 1e-9))


class TestDeterminismAndPlumbing:
    def test_bit_identical_for_fixed_seed(self):
        scene = small_scene(surfaces=(ReflectionSurface.from_trace(1.0, 3.0),))
        grid = FrequencyGrid(f1=57e9, tones=32, delta=REF_DELTA)
        a1 = simulate_signature(scene, REF_GRID, 0.1, 12345)
        a2 = simulate_signature(scene, REF_GRID, 0.1, 12345)
        assert list(a1) == list(a2) == list(scene.images)
        for pid in a1:
            assert np.array_equal(a1[pid], a2[pid])
        for pid in scene.images:
            assert np.array_equal(simulate_sfcw(scene, grid, 10.0, 12345, pid, 1e-9),
                                  simulate_sfcw(scene, grid, 10.0, 12345, pid, 1e-9))

    def test_adding_a_surface_leaves_the_other_paths_unchanged(self):
        # The pipeline simulates one path at a time with its own clock
        # estimate; noise is keyed by (seed, domain, path, antenna), so a
        # path's symbols must not change, bit for bit, when the scene gains
        # another path.
        surf = (ReflectionSurface.from_trace(1.0, 3.0), ReflectionSurface.from_trace(0.3, 4.0))
        scene = small_scene(surfaces=surf, has_los=True)
        wider = small_scene(surfaces=surf + (ReflectionSurface.from_trace(-0.6, 3.5),),
                            has_los=True)
        grid = FrequencyGrid(f1=57e9, tones=40, delta=REF_DELTA)
        est = {0: 11.9e-9, 1: 12.4e-9, 2: 10.7e-9}
        assert list(scene.images) == [0, 1, 2]
        for p in est:
            for snr_db in (10.0, None):
                assert np.array_equal(simulate_sfcw(wider, grid, snr_db, 4242, p, est[p]),
                                      simulate_sfcw(scene, grid, snr_db, 4242, p, est[p]))
            assert not np.allclose(simulate_sfcw(scene, grid, 10.0, 4242, p, est[p]),
                                   simulate_sfcw(scene, grid, None, 4242, p, est[p]))


# Seeds of one to five 32-bit words: zero, the word edges, and a seed longer
# than the 4-word pool of the seed sequence.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128 + 3]


def six_path_scene(n_side: int) -> Scene:
    """Line of sight and five reflections (paths 0-5) onto n_side**2 receive antennas."""
    surfaces = tuple(ReflectionSurface.from_trace(slope, offset) for slope, offset in
                     ((1.02, 3.0), (0.25, 3.25), (3.0, 4.0), (-0.6, 3.5), (0.5, 5.0)))
    return small_scene(sv=square_array(n_side, 1.0), surfaces=surfaces, has_los=True)


class TestNoiseStreams:
    """Every (path, antenna) cell draws numpy's own stream for (seed, domain, path, antenna)."""

    @pytest.mark.parametrize("n_side", [8, 1])
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_signature_jitter_is_the_cell_stream(self, seed, n_side):
        # Domain 1.  The jitter rotates each tone symbol: the noisy symbols are
        # the noiseless phases plus tone_sigma times the cell's four normals.
        # The flight times are the scene's read-only lengths, formed once for
        # the direct path and each mirrored one, and the blocks are keyed and
        # ordered as the scene's images.
        scene = six_path_scene(n_side)
        f_a, f_b = REF_GRID.anchor_tones
        coef = 2.0 * math.pi * np.array([f_a, f_a + REF_DELTA, f_b, f_b + REF_DELTA])
        clean = simulate_signature(scene, REF_GRID, 0.0, 0)
        noisy = simulate_signature(scene, REF_GRID, 0.1, seed)
        assert list(noisy) == list(clean) == list(scene.images) == list(range(6))
        for pid, image in scene.images.items():
            lengths = scene.lengths[pid]
            assert np.array_equal(lengths, distance_matrix(image, scene.sv_antennas))
            with pytest.raises(ValueError):
                lengths[0, 0] = 0.0
            tau = lengths[list(scene.anchor_indices)] / C
            phase = coef * (scene.clock_offset - tau[[0, 0, 1, 1]].T)
            draws = np.array([cell_normals(seed, 1, pid, m, 4) for m in range(scene.n_sv)])
            assert np.array_equal(np.hstack(clean[pid]), np.exp(1j * phase))
            assert np.array_equal(np.hstack(noisy[pid]),
                                  np.exp(1j * (phase + draws * (0.1 / math.sqrt(2.0)))))

    @pytest.mark.parametrize("n_side", [8, 1])
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_sfcw_noise_is_the_cell_stream(self, seed, n_side):
        # Domain 2.  Antenna m's K complex noise samples take the cell's 2K
        # normals in (real, imaginary) pairs, scaled to the path's SNR.
        scene = six_path_scene(n_side)
        grid = FrequencyGrid(f1=57e9, tones=16, delta=REF_DELTA)
        for pid in scene.images:
            clean = simulate_sfcw(scene, grid, None, 0, pid, 11.5e-9)
            std = math.sqrt(float(np.mean(np.abs(clean) ** 2)) * 10.0 ** (-10.0 / 10.0) / 2.0)
            draws = np.array([cell_normals(seed, 2, pid, m, 2 * grid.tones)
                              for m in range(scene.n_sv)])
            assert np.array_equal(simulate_sfcw(scene, grid, 10.0, seed, pid, 11.5e-9),
                                  clean + std * (draws[:, 0::2] + 1j * draws[:, 1::2]))

    def test_numpy_integer_seed_draws_the_same_streams(self):
        scene = six_path_scene(2)
        grid = FrequencyGrid(f1=57e9, tones=8, delta=REF_DELTA)
        as_int, as_numpy = 2**40 + 7, np.uint64(2**40 + 7)
        for a, b in zip(simulate_signature(scene, REF_GRID, 0.1, as_int).values(),
                        simulate_signature(scene, REF_GRID, 0.1, as_numpy).values()):
            assert np.array_equal(a, b)
        assert np.array_equal(simulate_sfcw(scene, grid, 10.0, as_int, 3, 1e-9),
                              simulate_sfcw(scene, grid, 10.0, as_numpy, 3, 1e-9))

