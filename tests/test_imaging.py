import math
import tracemalloc

import numpy as np
import pytest

from conftest import REF_DELTA
from coposim import imaging
from coposim.errors import EmptySpectrumError, InterpolationDegeneracyError
from coposim.geometry import SPEED_OF_LIGHT as C
from coposim.geometry import Scene, distance_matrix
from coposim.imaging import (ApertureSamples, ImagingBox, PowerSpectrum, Spectrum2D,
                             Spectrum3D, detect_peaks, forward_2d_spectrum,
                             inverse_3d_spectrum, reconstruct, remap_to_sphere,
                             sample_aperture, _paired_bins, _SLAB_ENTRIES, _SLAB_ROWS)
from coposim.analysis import azimuth_resolution, range_resolution
from coposim.waveform import FrequencyGrid
from oracles import (backprojection, direct_aperture_spectrum, direct_fourier_sum,
                     local_maxima_26, paired_bins, rowwise_linear_resample,
                     two_exponential_remap)

GRID64 = FrequencyGrid(f1=57e9, tones=64, delta=3e9 / 63)


def grid_antennas(n_side=33, extent=1.0, z=0.0):
    ax = np.linspace(-extent / 2, extent / 2, n_side)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1)


def point_target_symbols(targets, sv, grid):
    tau = distance_matrix(np.atleast_2d(targets), sv) / C
    return np.exp(-2j * math.pi * tau[:, :, None] * grid.frequencies[None, None, :]).sum(axis=0)


def peak_position(ps: PowerSpectrum):
    mag = np.abs(ps.voxels)
    idx = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return ps.box.origin + np.array(idx, dtype=float) * ps.box.spacing


def factored_volume(vol, box: ImagingBox | None = None) -> PowerSpectrum:
    """A hand-built volume as a spectrum, factored exactly by identity x and y
    matrices; the box defaults to unit voxels from the origin."""
    vol = np.ascontiguousarray(vol, dtype=complex)
    nx, ny, _ = vol.shape
    if box is None:
        box = ImagingBox(origin=np.zeros(3), spacing=np.ones(3), shape=vol.shape)
    return PowerSpectrum(vol.view(float).reshape(nx, -1), np.eye(nx), np.eye(ny), box)


def held_spectrum2d(values, **fields) -> Spectrum2D:
    """A hand-built per-tone spectrum, factored exactly by an identity y matrix."""
    return Spectrum2D(xprod=values, ey=np.eye(values.shape[1], dtype=complex), **fields)


def assembled(spec: Spectrum2D) -> np.ndarray:
    """The full (nfx, nfy, K) per-tone spectrum, written row by row with ``spec.row``."""
    out = np.empty((len(spec.f_x), len(spec.f_y), spec.xprod.shape[2]), dtype=complex)
    for i in range(len(out)):
        spec.row(i, out[i])
    return out


def held_spectrum3d(values, **fields) -> Spectrum3D:
    """A hand-built spectrum whose rows are those of ``values``, in index order."""
    return Spectrum3D(rows=lambda: enumerate(values), **fields)


class TestSampleAperture:
    def test_identity_on_exact_grid(self):
        sv = grid_antennas(9, 0.5)
        rng = np.random.default_rng(0)
        sym = rng.normal(size=(81, 4)) + 1j * rng.normal(size=(81, 4))
        out = sample_aperture(sym, sv, FrequencyGrid(57e9, 4, REF_DELTA), 0.5 / 8)
        assert out.samples.shape == (9, 9, 4)
        assert np.allclose(out.samples, sym.reshape(9, 9, 4), atol=1e-12)

    def test_midpoints_average_neighbours(self):
        sv = grid_antennas(5, 0.4)
        sym = (np.arange(25, dtype=float)[:, None] + 0j) * np.ones((1, 2))
        out = sample_aperture(sym, sv, FrequencyGrid(57e9, 2, REF_DELTA), 0.05)
        vals = sym.reshape(5, 5, 2)
        # doubled grid: even indices hit antennas, odd indices are midpoints
        assert np.allclose(out.samples[::2, ::2], vals, atol=1e-12)
        assert np.allclose(out.samples[1, 0, 0], 0.5 * (vals[0, 0, 0] + vals[1, 0, 0]), atol=1e-12)
        assert np.allclose(out.samples[0, 1, 0], 0.5 * (vals[0, 0, 0] + vals[0, 1, 0]), atol=1e-12)

    def test_plane_projection_phase(self):
        # Antennas lifted off the plane get the exp(-j*2*pi*f*z/c) correction.
        sv = grid_antennas(3, 0.2, z=0.01)
        sym = np.ones((9, 2), dtype=complex)
        grid = FrequencyGrid(57e9, 2, REF_DELTA)
        out = sample_aperture(sym, sv, grid, 0.1)
        expected = np.exp(-2j * math.pi * grid.frequencies * 0.01 / C)
        assert np.allclose(out.samples[0, 0], expected, atol=1e-12)

    def test_matches_per_tone_interp_on_ragged_jittered_rows(self):
        # Rows of unequal length and span: grid points past a row's ends are zero.
        rng = np.random.default_rng(5)
        row_y = np.array([-0.3, -0.1, 0.12, 0.3])
        row_x = [np.sort(rng.uniform(-0.4, 0.4, n)) for n in (5, 7, 4, 6)]
        row_x[1][0], row_x[2][-1] = -0.45, 0.45   # these rows set the grid's x span
        sv = np.concatenate([np.stack([xs, np.full(len(xs), y + rng.uniform(-0.01, 0.01)),
                                       np.zeros(len(xs))], axis=1)
                             for xs, y in zip(row_x, row_y)])
        order = rng.permutation(len(sv))
        sv = sv[order]
        sym = rng.normal(size=(len(sv), 3)) + 1j * rng.normal(size=(len(sv), 3))
        out = sample_aperture(sym, sv, FrequencyGrid(57e9, 3, REF_DELTA), 0.03)

        rows = []
        for y in row_y:
            r = np.nonzero(np.abs(sv[:, 1] - y) < 0.05)[0]
            rows.append(r[np.argsort(sv[r, 0], kind="stable")])
        means = np.array([sv[r, 1].mean() for r in rows])
        ref = rowwise_linear_resample([sv[r, 0] for r in rows], [sym[r] for r in rows],
                                      means, out.grid_x, out.grid_y)
        assert np.allclose(out.samples, ref, rtol=0.0, atol=1e-12)
        assert np.any(out.samples == 0.0)

    def test_degenerate_rows_raise(self):
        sv = np.stack([np.linspace(0, 1, 8), np.zeros(8), np.zeros(8)], axis=1)
        with pytest.raises(InterpolationDegeneracyError):
            sample_aperture(np.ones((8, 2), complex), sv, FrequencyGrid(57e9, 2, REF_DELTA), 1 / 7)


class TestForwardSpectrum:
    def test_dc_impulse(self):
        sv_samples = np.ones((8, 8, 1), dtype=complex)
        ap = ApertureSamples(np.linspace(-0.5, 0.5, 8), np.linspace(-0.5, 0.5, 8),
                             sv_samples, FrequencyGrid(57e9, 2, REF_DELTA))
        spec = forward_2d_spectrum(ap, pad=ap.samples.shape[:2])
        mag = np.abs(assembled(spec)[:, :, 0])
        i0 = np.argmin(np.abs(spec.f_x))
        j0 = np.argmin(np.abs(spec.f_y))
        assert mag[i0, j0] == pytest.approx(64.0, rel=1e-12)
        mask = np.ones_like(mag, dtype=bool)
        mask[i0, j0] = False
        assert mag[mask].max() < 1e-9

    def test_single_sample_flat_spectrum(self):
        vals = np.zeros((8, 8, 1), dtype=complex)
        vals[3, 4, 0] = 2.0
        ap = ApertureSamples(np.linspace(0, 0.7, 8), np.linspace(0, 0.7, 8), vals,
                             FrequencyGrid(57e9, 2, REF_DELTA))
        spec = forward_2d_spectrum(ap, pad=ap.samples.shape[:2])
        assert np.allclose(np.abs(assembled(spec)[:, :, 0]), 2.0, atol=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(16, 12, 2)) + 1j * rng.normal(size=(16, 12, 2))
        gx = np.linspace(-0.4, 0.4, 16)
        gy = np.linspace(-0.3, 0.3, 12)
        ap = ApertureSamples(gx, gy, vals, FrequencyGrid(57e9, 2, REF_DELTA))
        spec = forward_2d_spectrum(ap, pad=ap.samples.shape[:2])
        # undo the origin phasing, then invert the plain FFT
        work = assembled(spec) / np.exp(-2j * math.pi * spec.f_x * gx[0] / C)[:, None, None]
        work = work / np.exp(-2j * math.pi * spec.f_y * gy[0] / C)[None, :, None]
        back = np.fft.ifft2(np.fft.ifftshift(work, axes=(0, 1)), axes=(0, 1))
        assert np.allclose(back, vals, atol=1e-10 * np.abs(vals).max())

    def test_matches_direct_sum_on_off_origin_grid(self):
        # Non-square grid away from the origin and bin counts that are not
        # powers of two: pins the kernel sign and the phase at each physical
        # sample coordinate.
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))
        gx = 0.83 + 0.031 * np.arange(5)
        gy = -0.47 + 0.043 * np.arange(4)
        ap = ApertureSamples(gx, gy, vals, FrequencyGrid(57e9, 3, REF_DELTA))
        spec = forward_2d_spectrum(ap, pad=(13, 10))

        dx, dy = ap.spacing
        assert np.allclose(spec.f_x, (np.arange(13) - 6) * C / (13 * dx), rtol=1e-12, atol=0.0)
        assert np.allclose(spec.f_y, (np.arange(10) - 5) * C / (10 * dy), rtol=1e-12, atol=0.0)
        ref = direct_aperture_spectrum(vals, gx, gy, spec.f_x, spec.f_y)
        values = assembled(spec)
        assert values.shape == (13, 10, 3)
        assert np.allclose(values, ref, rtol=1e-12, atol=0.0)


    def test_only_bins_within_the_band_are_formed(self):
        # Two columns 1e-9 m apart padded to 1e10 bins span +-1.5e17 Hz in x,
        # of which only the 2 * floor(f_K * px * dx / c) + 1 = 3901 bins within
        # the default band's f_K are formed (the whole axis would take 80 GB).
        # The product nfx * nfy * sample_area the inverse divides by stays
        # px * dx * py * dy.  At a pad small enough to build whole, the kept
        # bins are fftfreq's bit for bit.
        grid = FrequencyGrid(57e9, 128, 11.72e6)
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(2, 2, 128)) + 1j * rng.normal(size=(2, 2, 128))
        for dx, px in ((1e-9, 10**10), (1e-6, 10**6)):
            ap = ApertureSamples(np.array([0.0, dx]), np.array([0.0, 0.125]), vals, grid)
            spec = forward_2d_spectrum(ap, pad=(px, 4))
            rows = len(spec.f_x)
            assert rows <= 3901 and np.abs(spec.f_x).max() <= grid.f_max
            assert spec.xprod.shape == (rows, 2, 128)
            assert rows * 4 * spec.sample_area == pytest.approx(px * dx * 4 * 0.125, rel=1e-12)
        whole = np.fft.fftshift(np.fft.fftfreq(px, d=dx)) * C
        assert np.array_equal(spec.f_x, whole[np.abs(whole) <= grid.f_max])


class TestRemap:
    def make_spec(self):
        grid = FrequencyGrid(57e9, 8, 100e6)
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(4, 4, 8)) + 1j * rng.normal(size=(4, 4, 8))
        return forward_2d_spectrum(ApertureSamples(np.linspace(0, 1, 4), np.linspace(0, 1, 4),
                                                   vals, grid), pad=(4, 4))

    def test_exact_shell_at_broadside(self):
        spec = self.make_spec()
        shells = spec.grid.frequencies
        i0 = np.argmin(np.abs(spec.f_x))
        j0 = np.argmin(np.abs(spec.f_y))
        assert abs(spec.f_x[i0]) < 1e-6 and abs(spec.f_y[j0]) < 1e-6
        out = remap_to_sphere(spec, np.array([shells[3], shells[5]]))
        values = assembled(spec)
        assert out.values[i0, j0, 0] == pytest.approx(values[i0, j0, 3], rel=1e-12)
        assert out.values[i0, j0, 1] == pytest.approx(values[i0, j0, 5], rel=1e-12)

    def test_midpoint_is_average(self):
        spec = self.make_spec()
        shells = spec.grid.frequencies
        i0 = np.argmin(np.abs(spec.f_x))
        j0 = np.argmin(np.abs(spec.f_y))
        mid = 0.5 * (shells[2] + shells[3])
        out = remap_to_sphere(spec, np.array([mid, shells[-1]]))
        values = assembled(spec)
        expected = 0.5 * (values[i0, j0, 2] + values[i0, j0, 3])
        assert out.values[i0, j0, 0] == pytest.approx(expected, rel=1e-12)

    def test_out_of_band_zero(self):
        spec = self.make_spec()
        out = remap_to_sphere(spec, np.array([spec.grid.f1 * 0.5, spec.grid.f_max + 1e9]))
        assert np.all(out.values == 0.0)

    def test_depth_reference_preserves_shell_values(self):
        spec = self.make_spec()
        shells = spec.grid.frequencies
        i0 = np.argmin(np.abs(spec.f_x))
        j0 = np.argmin(np.abs(spec.f_y))
        out = remap_to_sphere(spec, np.array([shells[3], shells[5]]), ref_depth=7.5)
        assert out.values[i0, j0, 0] == pytest.approx(assembled(spec)[i0, j0, 3], rel=1e-9)

    @pytest.mark.parametrize("ref_depth", [7.5, -3.2])
    def test_depth_reference_matches_two_exponential_oracle(self, ref_depth):
        # Off broadside, between shells, and off both ends of the band.
        grid = FrequencyGrid(57e9, 8, 100e6)
        rng = np.random.default_rng(2)
        f_x = np.linspace(-3.1e9, 2.3e9, 5)
        f_y = np.linspace(-1.7e9, 4.4e9, 4)
        vals = rng.normal(size=(5, 4, 8)) + 1j * rng.normal(size=(5, 4, 8))
        spec = held_spectrum2d(f_x=f_x, f_y=f_y, values=vals, grid=grid, sample_area=1e-4)
        f_z = np.linspace(56.6e9, 57.75e9, 23)
        out = remap_to_sphere(spec, f_z, ref_depth=ref_depth).values
        ref = two_exponential_remap(f_x, f_y, f_z, vals, grid.f1, grid.delta, ref_depth)
        assert np.count_nonzero(ref) and np.count_nonzero(ref == 0.0)
        assert np.array_equal(out == 0.0, ref == 0.0)
        assert np.allclose(out, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ref_depth", [0.0, 7.5])
    def test_slab_boundaries_match_two_exponential_oracle(self, ref_depth):
        # Odd, asymmetric axes: no two columns share a squared frequency, and
        # the 13 f_x rows fall into at least three slabs, the last one shorter.
        grid = FrequencyGrid(57e9, 8, 100e6)
        rng = np.random.default_rng(5)
        f_x = np.linspace(-3.1e9, 2.3e9, 13)
        f_y = np.linspace(-1.7e9, 4.4e9, 8)
        f_z = np.linspace(56.6e9, 57.75e9, 701)
        assert len(np.unique(f_x**2)) == len(f_x) and len(np.unique(f_y**2)) == len(f_y)
        per_slab = _SLAB_ENTRIES // (len(f_y) * len(f_z))
        assert 1 <= per_slab and len(f_x) > 2 * per_slab and len(f_x) % per_slab
        vals = rng.normal(size=(13, 8, 8)) + 1j * rng.normal(size=(13, 8, 8))
        spec = held_spectrum2d(f_x=f_x, f_y=f_y, values=vals, grid=grid, sample_area=1e-4)
        out = remap_to_sphere(spec, f_z, ref_depth=ref_depth).values
        ref = two_exponential_remap(f_x, f_y, f_z, vals, grid.f1, grid.delta, ref_depth)
        assert np.count_nonzero(ref) and np.count_nonzero(ref == 0.0)
        assert np.array_equal(out == 0.0, ref == 0.0)
        assert np.allclose(out, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_reversed_frequency_axis_reverses_the_output(self, axis):
        # On fftshift(fftfreq(even)) axes +f and -f share a squared frequency
        # and the lone -Nyquist bin does not; reversing one axis of the
        # spectrum must reverse the same axis of the remap exactly.  The 9
        # distinct f_x^2 values span at least two slabs.
        grid = FrequencyGrid(57e9, 8, 100e6)
        rng = np.random.default_rng(6)
        f_x = np.fft.fftshift(np.fft.fftfreq(16, d=0.1)) * C
        f_y = np.fft.fftshift(np.fft.fftfreq(8, d=0.12)) * C
        f_z = np.linspace(56.6e9, 57.75e9, 1500)
        assert len(np.unique(f_x**2)) == 9 and len(np.unique(f_y**2)) == 5
        assert 9 > _SLAB_ENTRIES // (5 * len(f_z))
        vals = rng.normal(size=(16, 8, 8)) + 1j * rng.normal(size=(16, 8, 8))
        spec = held_spectrum2d(f_x=f_x, f_y=f_y, values=vals, grid=grid, sample_area=1e-4)
        axes = [f_x, f_y]
        axes[axis] = axes[axis][::-1]
        flipped = held_spectrum2d(f_x=axes[0], f_y=axes[1],
                                  values=np.ascontiguousarray(np.flip(vals, axis)),
                                  grid=grid, sample_area=1e-4)
        for ref_depth in (0.0, 9.3):
            out = remap_to_sphere(spec, f_z, ref_depth=ref_depth).values
            assert np.all(np.any(out != 0.0, axis=2))
            assert np.array_equal(remap_to_sphere(flipped, f_z, ref_depth=ref_depth).values,
                                  np.flip(out, axis))


def random_inverse_case(f_x, f_y, shape):
    """Random spectrum, a box well off the origin at a pitch unrelated to the
    spectral bin spacings (so no axis is an FFT-native grid), and the direct
    sum on the box's voxels."""
    rng = np.random.default_rng(4)
    f_z = 56.3e9 + 0.173e9 * np.arange(7)
    size = (len(f_x), len(f_y), len(f_z))
    vals = rng.normal(size=size) + 1j * rng.normal(size=size)
    spec = held_spectrum3d(f_x=f_x, f_y=f_y, f_z=f_z, values=vals,
                           shell_spacing=0.15e9, sample_area=2.5e-3)
    box = ImagingBox(origin=np.array([0.83, -0.41, 5.37]),
                     spacing=np.array([0.037, 0.041, 0.029]), shape=shape)

    z_ref = abs(box.origin[2] + 0.029 * (shape[2] - 1) / 2)
    weight = z_ref * C * 0.173e9 / (len(f_x) * len(f_y) * 2.5e-3 * 0.15e9 * f_z)
    idx = np.stack(np.meshgrid(*[np.arange(n) for n in box.shape], indexing="ij"),
                   axis=-1).reshape(-1, 3)
    points = box.origin + idx * box.spacing
    ref = direct_fourier_sum(vals * weight, f_x, f_y, f_z, points).reshape(box.shape)
    return spec, box, ref


def inverse_against_direct_sum(f_x, f_y, shape):
    """inverse_3d_spectrum of random values and the direct sum on its voxels."""
    spec, box, ref = random_inverse_case(f_x, f_y, shape)
    out = inverse_3d_spectrum(spec, box).voxels
    assert out.shape == box.shape and out.dtype == complex
    return out, ref


class TestPairedBins:
    @pytest.mark.parametrize("f", [
        np.fft.fftshift(np.fft.fftfreq(7, d=0.1)) * C,
        np.fft.fftshift(np.fft.fftfreq(8, d=0.1)) * C,
        np.fft.fftfreq(10, d=0.12) * C,
        np.random.default_rng(3).permutation(np.fft.fftfreq(11, d=0.07) * C),
        -1.3e9 + 0.23e9 * np.arange(13),
    ], ids=["fftfreq-odd", "fftfreq-even", "unshifted", "shuffled", "no-negative"])
    def test_matches_the_loop_oracle(self, f):
        lead, lag = _paired_bins(f)
        want_lead, want_lag = paired_bins(f)
        assert lead.dtype == lag.dtype == np.intp
        assert np.array_equal(lead, want_lead) and np.array_equal(lag, want_lag)


class TestInverse:
    def test_matches_direct_sum_in_off_centre_box(self):
        # Asymmetric axes: no bin has its exact negative, so nothing is paired.
        out, ref = inverse_against_direct_sum(-2.0e9 + 0.61e9 * np.arange(6),
                                              -1.1e9 + 0.47e9 * np.arange(5), (9, 4, 11))
        assert np.allclose(out, ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("f_x, f_y, shape", [
        # fftshift(fftfreq) axes of odd and even length: pairs, a zero bin and
        # an unpaired Nyquist bin.
        (np.fft.fftshift(np.fft.fftfreq(7)) * 4.4e9,
         np.fft.fftshift(np.fft.fftfreq(6)) * 3.1e9, (9, 4, 11)),
        # Unshifted fftfreq order along x, and an x extent of two full slabs
        # and a partial one.
        (np.fft.fftfreq(8) * 4.4e9, np.fft.fftshift(np.fft.fftfreq(5)) * 3.1e9,
         (2 * _SLAB_ROWS + 5, 3, 4)),
    ], ids=["fftfreq-odd-even", "slabs"])
    def test_matches_direct_sum_on_paired_axes_and_slabs(self, f_x, f_y, shape):
        out, ref = inverse_against_direct_sum(f_x, f_y, shape)
        assert np.allclose(out, ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())

    STREAM_BOX = ImagingBox(origin=np.array([0.31, -0.22, 6.4]),
                            spacing=np.array([0.037, 0.041, 0.029]), shape=(9, 4, 11))

    @staticmethod
    def streamed_spectrum(f_x, f_y) -> Spectrum3D:
        """A random per-tone spectrum remapped over several slabs of distinct f_x^2."""
        grid = FrequencyGrid(57e9, 8, 100e6)
        rng = np.random.default_rng(8)
        size = (len(f_x), len(f_y), 8)
        vals = rng.normal(size=size) + 1j * rng.normal(size=size)
        spec = held_spectrum2d(f_x=f_x, f_y=f_y, values=vals, grid=grid, sample_area=1e-4)
        f_z = np.linspace(56.6e9, 57.75e9, 1500)
        assert len(np.unique(f_x**2)) > _SLAB_ENTRIES // (len(np.unique(f_y**2)) * len(f_z))
        return remap_to_sphere(spec, f_z, ref_depth=6.4)

    @pytest.mark.parametrize("f_x, f_y", [
        # The zero bins are unpaired.
        (np.fft.fftshift(np.fft.fftfreq(15, d=0.1)) * C,
         np.fft.fftshift(np.fft.fftfreq(7, d=0.12)) * C),
        # The zero and Nyquist bins are unpaired.
        (np.fft.fftshift(np.fft.fftfreq(16, d=0.1)) * C,
         np.fft.fftshift(np.fft.fftfreq(8, d=0.12)) * C),
        # No bin has its exact negative.
        (-1.3e9 + 0.23e9 * np.arange(13), -0.9e9 + 0.31e9 * np.arange(8)),
    ], ids=["fftfreq-odd", "fftfreq-even", "unpaired"])
    def test_fold_does_not_depend_on_the_row_order(self, f_x, f_y):
        # The remap yields rows slab by slab, not in index order; the held
        # copy yields them in index order and reversed, so a pair's lag comes
        # before its lead and after it.
        spec = self.streamed_spectrum(f_x, f_y)
        order = [i for i, _ in spec.rows()]
        assert sorted(order) == list(range(len(f_x))) and order != sorted(order)
        folded = inverse_3d_spectrum(spec, self.STREAM_BOX).folded
        fields = dict(f_x=f_x, f_y=f_y, f_z=spec.f_z, shell_spacing=spec.shell_spacing,
                      sample_area=spec.sample_area)
        held = held_spectrum3d(values=spec.values.copy(), **fields)
        backwards = Spectrum3D(rows=lambda: reversed(list(held.rows())), **fields)
        for other in (held, backwards):
            assert np.array_equal(inverse_3d_spectrum(other, self.STREAM_BOX).folded, folded)

    def test_reading_values_changes_no_row_and_no_fold(self):
        # The assembled spectrum is kept once read, yet the rows stay those
        # the remap computes from the per-tone rows.
        f_xy = np.fft.fftshift(np.fft.fftfreq(16, d=0.1)) * C
        spec = self.streamed_spectrum(f_xy, f_xy[4:12])
        rows = [(i, row.copy()) for i, row in spec.rows()]
        folded = inverse_3d_spectrum(spec, self.STREAM_BOX).folded
        assert "values" not in vars(spec)
        values = spec.values
        assert [i for i, _ in spec.rows()] == [i for i, _ in rows]
        for (_, row), (i, again) in zip(rows, spec.rows()):
            assert np.array_equal(again, row) and np.array_equal(values[i], row)
        assert spec.values is values
        assert np.array_equal(inverse_3d_spectrum(spec, self.STREAM_BOX).folded, folded)

    def test_streamed_peak_search_allocates_a_quarter_of_the_volume(self):
        # Twenty slabs along x: the inverse and the peak search together hold
        # a few slabs of the volume, never the whole of it.
        n = 16
        f_xy = np.fft.fftshift(np.fft.fftfreq(n)) * 4.0e9
        f_z = 56.3e9 + 0.173e9 * np.arange(n)
        vals = np.ones((n, n, n), dtype=complex)
        spec = held_spectrum3d(f_x=f_xy, f_y=f_xy, f_z=f_z, values=vals,
                               shell_spacing=0.15e9, sample_area=2.5e-3)
        box = ImagingBox(origin=np.array([-1.0, -0.5, 6.0]), spacing=np.full(3, 0.01),
                         shape=(20 * _SLAB_ROWS, 48, n))
        tracemalloc.start()
        try:
            peaks = detect_peaks(inverse_3d_spectrum(spec, box), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(peaks) and peak < 16 * math.prod(box.shape) / 4


def point_spectrum(f_x, f_y, f_z, emitters):
    """Spectrum of point emitters (amplitude, x, y, z): its image peaks at each point."""
    vals = np.zeros((len(f_x), len(f_y), len(f_z)), dtype=complex)
    for amp, x, y, z in emitters:
        vals += amp * np.exp(-2j * math.pi / C * (f_x[:, None, None] * x + f_y[None, :, None] * y
                                                  + f_z[None, None, :] * z))
    return vals


class TestStreamedScan:
    F_X = np.fft.fftshift(np.fft.fftfreq(9)) * 4.4e9
    F_Y = np.fft.fftshift(np.fft.fftfreq(5)) * 3.1e9
    F_Z = 56.3e9 + 0.173e9 * np.arange(7)
    ORIGIN = np.array([0.11, -0.05, 5.9])
    SPACING = np.array([0.004, 0.02, 0.03])

    def spectrum(self, values):
        return held_spectrum3d(f_x=self.F_X, f_y=self.F_Y, f_z=self.F_Z, values=values,
                               shell_spacing=0.15e9, sample_area=2.5e-3)

    def point(self, row, iy=2, iz=3):
        return self.ORIGIN + self.SPACING * np.array([row, iy, iz])

    def values(self, case, nx):
        if case == "random":
            rng = np.random.default_rng(nx)
            size = (len(self.F_X), len(self.F_Y), len(self.F_Z))
            return rng.normal(size=size) + 1j * rng.normal(size=size)
        if case == "late-max":
            # A weaker emitter in the first slab and the global maximum in the
            # last row, so the running maximum only reaches it at the end.
            return point_spectrum(self.F_X, self.F_Y, self.F_Z,
                                  [(0.6, *self.point(1)), (1.0, *self.point(nx - 1))])
        # "boundary-tie": all power in the f_y = 0 bin makes the image exactly
        # constant along y, so the peak on the last row of the first slab ties
        # with its y neighbours.
        vals = point_spectrum(self.F_X, self.F_Y, self.F_Z,
                              [(1.0, *self.point(min(_SLAB_ROWS, nx) - 1))])
        vals[:, self.F_Y != 0.0] = 0.0
        return vals

    @pytest.mark.parametrize("nx", [_SLAB_ROWS - 12, 2 * _SLAB_ROWS, 2 * _SLAB_ROWS + 1])
    @pytest.mark.parametrize("case", ["random", "late-max", "boundary-tie"])
    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.0])
    def test_streamed_matches_the_assembled_volume(self, nx, case, nu):
        box = ImagingBox(origin=self.ORIGIN, spacing=self.SPACING, shape=(nx, 6, 7))
        spec = self.spectrum(self.values(case, nx))
        streamed = detect_peaks(inverse_3d_spectrum(spec, box), nu)
        vox = inverse_3d_spectrum(spec, box).voxels
        held = detect_peaks(factored_volume(vox, box), nu)
        expected = box.origin + np.array(local_maxima_26(np.abs(vox), nu), dtype=float).reshape(
            -1, 3) * box.spacing
        assert np.array_equal(streamed, held)
        assert len(streamed) and np.array_equal(streamed, expected)
        if case == "late-max":
            last_slab = (nx - 1) // _SLAB_ROWS * _SLAB_ROWS
            assert streamed[0][0] >= self.point(last_slab)[0]
        if case == "boundary-tie" and nu == 1.0:
            row = min(_SLAB_ROWS, nx) - 1
            assert np.array_equal(streamed, [self.point(row, iy) for iy in range(6)])

    def test_row_api_matches_the_volume(self):
        # Two full slabs and a one-row slab: each row's magnitudes equal the
        # assembled volume's bit for bit, from the inverse's factors or from
        # the volume factored by identities, and the inverse's bounds hold
        # every row.
        box = ImagingBox(origin=self.ORIGIN, spacing=self.SPACING, shape=(2 * _SLAB_ROWS + 1, 6, 7))
        ps = inverse_3d_spectrum(self.spectrum(self.values("random", 3)), box)
        vox = inverse_3d_spectrum(self.spectrum(self.values("random", 3)), box).voxels
        held = factored_volume(vox, box)
        mag = np.abs(vox)
        assert np.all(mag.max(axis=(1, 2)) <= ps.row_bounds())
        out = np.empty(box.shape[1:])
        for spectrum in (ps, held):
            for start in range(0, box.shape[0], _SLAB_ROWS):
                magnitudes = spectrum.row_magnitudes(start)
                for r in range(len(mag[start:start + _SLAB_ROWS])):
                    magnitudes(r, out)
                    assert np.array_equal(out, mag[start + r])
        assert "voxels" not in vars(ps)
        assert ps.box is box and np.array_equal(ps.voxels, vox)

    def test_all_zero_spectrum_raises(self):
        box = ImagingBox(origin=self.ORIGIN, spacing=self.SPACING, shape=(2 * _SLAB_ROWS, 6, 7))
        spec = self.spectrum(np.zeros((len(self.F_X), len(self.F_Y), len(self.F_Z)), complex))
        with pytest.raises(EmptySpectrumError):
            detect_peaks(inverse_3d_spectrum(spec, box), 0.5)

    @pytest.mark.parametrize("first_bad_row", [0, _SLAB_ROWS])
    def test_non_finite_rows_raise(self, first_bad_row):
        # A NaN spectrum bin makes every voxel NaN.  Otherwise an x pitch near
        # the float maximum overflows f_x * x to inf from row 32 on, so the x
        # matrix, and the image, hold NaN rows only from the second slab on.
        spacing = self.SPACING.copy()
        vals = self.values("random", 3)
        if first_bad_row:
            spacing[0] = np.finfo(float).max / (np.abs(self.F_X).max() * (_SLAB_ROWS - 0.5))
        else:
            vals[4, 2, 3] = np.nan
        box = ImagingBox(origin=np.array([0.0, 0.0, 5.9]), spacing=spacing,
                         shape=(2 * _SLAB_ROWS, 6, 7))
        with np.errstate(over="ignore", invalid="ignore"):
            ps = inverse_3d_spectrum(self.spectrum(vals), box)
            rows = np.isnan(inverse_3d_spectrum(self.spectrum(vals), box).voxels).any(axis=(1, 2))
            assert np.flatnonzero(rows)[0] == first_bad_row
            with pytest.raises(EmptySpectrumError):
                detect_peaks(ps, 0.5)


def spy_on_rows(ps: PowerSpectrum) -> list:
    """Rows whose magnitudes ``ps`` computes from now on, in call order."""
    rows = []
    row_magnitudes = ps.row_magnitudes

    def spied(start):
        magnitudes = row_magnitudes(start)

        def counted(r, out):
            rows.append(start + r)
            magnitudes(r, out)

        return counted

    ps.row_magnitudes = spied
    return rows


class TestRowBounds:
    F_X = np.fft.fftshift(np.fft.fftfreq(32)) * 8.0e9
    F_Y = np.fft.fftshift(np.fft.fftfreq(6)) * 3.1e9
    F_Z = 56.3e9 + 0.173e9 * np.arange(7)
    ORIGIN = np.array([-0.5, -0.05, 5.9])
    SPACING = np.array([0.0035, 0.02, 0.03])
    BOX = ImagingBox(origin=ORIGIN, spacing=SPACING, shape=(10 * _SLAB_ROWS, 6, 7))

    def point(self, row, iy, iz):
        return self.ORIGIN + self.SPACING * np.array([row, iy, iz])

    def emitters(self) -> PowerSpectrum:
        """Ten slabs along x imaging two point emitters, at rows 70 and 230."""
        vals = point_spectrum(self.F_X, self.F_Y, self.F_Z,
                              [(1.0, *self.point(70, 2, 3)), (0.7, *self.point(230, 4, 1))])
        return inverse_3d_spectrum(held_spectrum3d(f_x=self.F_X, f_y=self.F_Y, f_z=self.F_Z,
                                                   values=vals, shell_spacing=0.15e9,
                                                   sample_area=2.5e-3), self.BOX)

    @pytest.mark.parametrize("f_x, f_y", [
        (np.fft.fftshift(np.fft.fftfreq(7)) * 4.4e9, np.fft.fftshift(np.fft.fftfreq(6)) * 3.1e9),
        (-2.0e9 + 0.61e9 * np.arange(6), -1.1e9 + 0.47e9 * np.arange(5)),
    ], ids=["paired-odd-even", "unpaired"])
    def test_no_direct_sum_voxel_exceeds_its_row_bound(self, f_x, f_y):
        # Two full slabs and a partial one.
        spec, box, ref = random_inverse_case(f_x, f_y, (2 * _SLAB_ROWS + 5, 3, 4))
        bounds = inverse_3d_spectrum(spec, box).row_bounds()
        assert bounds.shape == (box.shape[0],) and np.isfinite(bounds).all()
        assert np.all(np.abs(ref) <= bounds[:, None, None])

    @pytest.mark.parametrize("low, high", [(1e-30, 1e-30), (1.0, 1.0), (1e38, 1e38), (1e-30, 1e38)])
    def test_bounds_hold_near_cancelling_rows(self, low, high):
        # The folded data holds rows a, float32 values times powers of two
        # from ``low`` to ``high``, and copies of -a that differ from them in
        # the 30th bit.  Every fourth voxel row takes one such pair, weighted
        # by 1/2 so that no product rounds: its x product nearly cancels, and
        # the bound holds the row because it sums |x| of that same product.
        # The other rows mix all the data.
        rng = np.random.default_rng(11)
        k, count, ny, nz = 8, 5, 6, 4
        exponents = rng.integers(math.floor(math.log2(low)), math.floor(math.log2(high)) + 1,
                                 size=(k, count * nz * 2))
        a = np.ldexp(rng.normal(size=exponents.shape).astype(np.float32).astype(float), exponents)
        folded = np.concatenate([a, -a * (1.0 - 2.0**-30)])
        nx = 2 * _SLAB_ROWS + 5
        mx = rng.uniform(-1.0, 1.0, size=(nx, 2 * k))
        cancelling = np.arange(0, nx, 4)
        pair = np.arange(len(cancelling)) % k
        mx[cancelling] = 0.0
        mx[cancelling, pair] = mx[cancelling, k + pair] = 0.5
        my = rng.uniform(-1.0, 1.0, size=(ny, count))
        box = ImagingBox(origin=np.zeros(3), spacing=np.ones(3), shape=(nx, ny, nz))
        ps = PowerSpectrum(folded, mx, my, box)
        bounds = ps.row_bounds()
        mag = np.abs(ps.voxels)
        top = mag.max(axis=(1, 2))
        assert np.all(top <= bounds)
        assert np.all((top[cancelling] > 0.0) & (top[cancelling] < 1e-6 * top.max()))
        # The rest stay within 1e-6 of the bound one whole x product gives.
        sums = np.abs(mx @ folded).reshape(nx, count, nz, 2).sum(axis=1)
        plain = np.hypot(sums[..., 0], sums[..., 1]).max(axis=1)
        mixing = np.setdiff1d(np.arange(nx), cancelling)
        assert np.all(bounds[mixing] <= (1.0 + 1e-6) * plain[mixing])
        for nu in (0.2, 0.5, 1.0):
            expected = np.array(local_maxima_26(mag, nu), dtype=float).reshape(-1, 3)
            assert np.array_equal(detect_peaks(PowerSpectrum(folded, mx, my, box), nu), expected)

    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.0])
    def test_search_takes_few_rows_and_matches_the_volume(self, nu):
        ps = self.emitters()
        rows = spy_on_rows(ps)
        peaks = detect_peaks(ps, nu)
        assert "voxels" not in vars(ps)
        assert len(rows) == len(set(rows)) and len(rows) < self.BOX.shape[0] / 4
        expected = np.array(local_maxima_26(np.abs(ps.voxels), nu), dtype=float).reshape(-1, 3)
        assert np.array_equal(peaks, self.BOX.origin + expected * self.BOX.spacing)
        assert np.array_equal(peaks[0], self.point(70, 2, 3))

    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.0])
    def test_loose_bounds_change_no_detection(self, nu):
        # Bounds a million times too high make the search take every row, and
        # it finds the same points: a bound decides only which rows it skips.
        ps = self.emitters()
        peaks = detect_peaks(ps, nu)
        bounds = ps.row_bounds()
        ps.row_bounds = lambda: bounds * 1e6
        rows = spy_on_rows(ps)
        assert np.array_equal(detect_peaks(ps, nu), peaks)
        assert sorted(rows) == list(range(self.BOX.shape[0]))

    def test_skipped_row_next_to_peaks_counts_as_zero(self):
        # Row 41 stays below the threshold, so it is never computed; the peaks
        # in rows 40 and 42 beside it still dominate its real values.
        vol = np.full((3 * _SLAB_ROWS, 5, 4), 0.01 + 0.0j)
        vol[40, 2, 2] = 1.0
        vol[39, 2, 3] = 0.6          # shoulder of the row-40 peak
        vol[41, 2, 2] = vol[41, 1, 1] = 0.45
        vol[42, 1, 1] = 0.55
        ps = factored_volume(vol)
        rows = spy_on_rows(ps)
        peaks = detect_peaks(ps, 0.5)
        assert 41 not in rows and {39, 40, 42} <= set(rows)
        assert np.array_equal(peaks, [[40.0, 2.0, 2.0], [42.0, 1.0, 1.0]])
        assert np.array_equal(peaks, local_maxima_26(np.abs(vol), 0.5))

    def test_non_finite_value_in_a_skipped_row_raises(self):
        # Row 300 is far from both emitters: the search never computes it.
        ps = self.emitters()
        rows = spy_on_rows(ps)
        detect_peaks(ps, 0.5)
        assert 300 not in rows
        mx = ps.mx.copy()
        mx[300, 5] = np.nan
        bad = PowerSpectrum(ps.folded, mx, ps.my, ps.box)
        with pytest.raises(EmptySpectrumError, match="NaN or infinite"):
            detect_peaks(bad, 0.5)

    def test_non_finite_y_matrix_raises(self):
        # The row bounds take no y matrix: a NaN there shows up only in the
        # magnitudes of the first row taken.
        ps = self.emitters()
        my = ps.my.copy()
        my[4, 1] = np.nan
        bad = PowerSpectrum(ps.folded, ps.mx, my, ps.box)
        assert np.isfinite(bad.row_bounds()).all()
        with pytest.raises(EmptySpectrumError, match="NaN or infinite"):
            detect_peaks(bad, 0.5)

    def test_reading_voxels_changes_no_row_read(self):
        # The assembled volume is kept once read, yet the bounds and the rows
        # the search computes stay those of the factors.
        ps = self.emitters()
        bounds = ps.row_bounds()
        rows = spy_on_rows(ps)
        peaks = detect_peaks(ps, 0.5)
        before = list(rows)
        ps.voxels
        rows.clear()
        assert np.array_equal(ps.row_bounds(), bounds)
        assert np.array_equal(detect_peaks(ps, 0.5), peaks)
        assert rows == before


class TestWindow:
    # Odd and even voxel counts on off-grid spacings.
    BOX = ImagingBox.centered([0.37, -0.21, 7.9], (2.3, 1.7, 2.9), (0.013, 0.029, 0.1))

    @pytest.mark.parametrize("extent", [(0.4, 0.3, 0.5), (1.0, 5.0, 0.0), (0.9, 0.11, 1.3)])
    def test_window_is_a_centered_slice_of_the_grid(self, extent):
        box, window = self.BOX, self.BOX.window(extent)
        assert np.array_equal(window.center, box.center)
        for i in range(3):
            lo = window.first[i]
            assert np.array_equal(window.axis(i), box.axis(i)[lo:lo + window.shape[i]])
            assert window.shape[i] % 2 == box.shape[i] % 2
            span = window.axis(i)[-1] - window.axis(i)[0]
            assert span >= min(extent[i], box.axis(i)[-1] - box.axis(i)[0])

    def test_window_is_clipped_to_the_grid(self):
        window = self.BOX.window((100.0, 0.3, 100.0))
        assert window.first[0] == window.first[2] == 0
        assert window.shape[0] == self.BOX.shape[0] and window.shape[2] == self.BOX.shape[2]
        assert window.shape[1] < self.BOX.shape[1] and window.rim == (0, 1, 0)

    def test_window_covering_the_grid_is_the_grid(self):
        for extent in ((2.3, 1.7, 2.9), (9.0, 9.0, 9.0)):
            window = self.BOX.window(extent)
            assert window.shape == self.BOX.shape and window.first == window.rim == (0, 0, 0)
            assert all(np.array_equal(window.axis(i), self.BOX.axis(i)) for i in range(3))

    def test_window_keeps_the_whole_grids_detections_inside_it(self):
        # The window spans voxels 4-10, 3-7 and 2-6.  Beside each of three of
        # its faces a voxel just inside is topped by one just outside, so it
        # is no detection of the whole grid; a corner voxel is a detection.
        box = ImagingBox(origin=np.zeros(3), spacing=np.ones(3), shape=(15, 11, 9))
        window = box.window((6.0, 4.0, 4.0))
        vol = np.full(box.shape, 0.01 + 0.0j)
        vol[7, 5, 4] = 1.0
        vol[10, 5, 4], vol[11, 5, 4] = 0.7, 0.8
        vol[7, 3, 4], vol[7, 2, 4] = 0.6, 0.65
        vol[5, 5, 6], vol[5, 5, 7] = 0.6, 0.9
        vol[4, 7, 6] = 0.55
        inside = tuple(slice(f, f + n) for f, n in zip(window.first, window.shape))
        whole = detect_peaks(factored_volume(vol, box), 0.5)
        assert len(whole) == 5
        kept = whole[np.all((whole >= [4, 3, 2]) & (whole <= [10, 7, 6]), axis=1)]
        assert np.array_equal(kept, [[7.0, 5.0, 4.0], [4.0, 7.0, 6.0]])
        assert np.array_equal(detect_peaks(factored_volume(vol[inside], window), 0.5), kept)

    def test_windowed_reconstruction_is_a_slice_of_the_whole_one(self):
        sv = grid_antennas(17, 0.4)
        targets = np.array([[0.05, -0.04, 6.0], [-0.1, 0.06, 6.2]])
        grid = FrequencyGrid(57e9, 32, 3e9 / 31)
        sym = point_target_symbols(targets, sv, grid)
        box = ImagingBox.centered([0.0, 0.0, 6.1], (0.8, 0.8, 1.2), (0.04, 0.04, 0.06))
        whole = reconstruct(sym, sv, grid, box, 0.4 / 16, 1.6)
        part = reconstruct(sym, sv, grid, box, 0.4 / 16, 1.6, (0.4, 0.3, 0.6))
        inside = tuple(slice(f, f + n) for f, n in zip(part.box.first, part.box.shape))
        assert math.prod(part.box.shape) < math.prod(box.shape) // 4
        scale = np.abs(whole.voxels).max()
        assert np.abs(part.voxels - whole.voxels[inside]).max() <= 1e-12 * scale
        peaks = detect_peaks(whole, 0.5)
        assert len(peaks) == 2
        assert np.array_equal(detect_peaks(part, 0.5), peaks)


class TestReconstruct:
    def test_single_target_peak_and_gain(self):
        sv = grid_antennas(33, 1.0)
        target = np.array([0.0, 0.0, 8.0])
        sym = point_target_symbols(target, sv, GRID64)
        dy = azimuth_resolution(8.0, 1.0, GRID64.center)
        dz = range_resolution(GRID64)
        box = ImagingBox.centered(target, (1.2, 1.2, 2.0), (dy / 2, dy / 2, dz / 2))
        ps = reconstruct(sym, sv, GRID64, box, 1.0 / 32, 1.6)
        pos = peak_position(ps)
        assert np.all(np.abs(pos - target) <= np.array([dy, dy, dz]))
        # coherent gain within 10% of direct matched-filter back-projection
        bp = abs(backprojection(sym, sv, GRID64.frequencies, target[None, :])[0])
        assert np.abs(ps.voxels).max() >= 0.9 * bp
        assert len(detect_peaks(ps, 0.5)) == 1

    def test_matches_backprojection_argmax(self):
        # alias-free aperture: grating lobes would otherwise tie with the peak
        sv = grid_antennas(17, 0.4)
        target = np.array([0.15, -0.1, 6.0])
        grid = FrequencyGrid(57e9, 32, 3e9 / 31)
        sym = point_target_symbols(target, sv, grid)
        box = ImagingBox.centered([0.0, 0.0, 6.0], (0.8, 0.8, 1.2), (0.04, 0.04, 0.06))
        ps = reconstruct(sym, sv, grid, box, 0.4 / 16, 1.6)
        pos = peak_position(ps)
        pts = np.stack(np.meshgrid(ps.box.axis(0), ps.box.axis(1), ps.box.axis(2), indexing="ij"),
                       axis=-1).reshape(-1, 3)
        bp = np.abs(backprojection(sym, sv, grid.frequencies, pts)).reshape(ps.voxels.shape)
        bp_pos = ps.box.origin + np.array(np.unravel_index(np.argmax(bp), bp.shape), float) * ps.box.spacing
        assert np.linalg.norm(pos - bp_pos) <= np.linalg.norm(ps.box.spacing) + 1e-12

    def test_exact_odd_bin_counts_match_backprojection(self, monkeypatch):
        # The box asks for 46.08 x 30.72 bins: exactly 47 x 31 are used,
        # odd and not powers of two, and the image still peaks where
        # back-projection does.
        pads = []

        def recording_forward(samples, pad=None):
            pads.append(pad)
            return forward_2d_spectrum(samples, pad=pad)

        monkeypatch.setattr(imaging, "forward_2d_spectrum", recording_forward)
        sv = grid_antennas(17, 0.4)
        target = np.array([0.1, -0.05, 6.1])
        grid = FrequencyGrid(57e9, 32, 3e9 / 31)
        sym = point_target_symbols(target, sv, grid)
        box = ImagingBox.centered([0.0, 0.0, 6.0], (0.72, 0.48, 1.2), (0.04, 0.04, 0.06))
        ps = reconstruct(sym, sv, grid, box, 0.4 / 16, pad_factor=1.6)

        extent = box.spacing * (np.array(box.shape) - 1)
        d = 0.4 / 16
        expected = tuple(max(17, math.ceil(1.6 * e / d)) for e in extent[:2])
        assert pads == [expected] == [(47, 31)]
        pts = np.stack(np.meshgrid(ps.box.axis(0), ps.box.axis(1), ps.box.axis(2), indexing="ij"),
                       axis=-1).reshape(-1, 3)
        bp = np.abs(backprojection(sym, sv, grid.frequencies, pts)).reshape(ps.voxels.shape)
        bp_pos = ps.box.origin + np.array(np.unravel_index(np.argmax(bp), bp.shape), float) * ps.box.spacing
        assert np.linalg.norm(peak_position(ps) - bp_pos) <= np.linalg.norm(ps.box.spacing) + 1e-12

    def test_linearity(self):
        sv = grid_antennas(9, 0.6)
        grid = FrequencyGrid(57e9, 16, 3e9 / 15)
        s1 = point_target_symbols([0.0, 0.0, 5.0], sv, grid)
        s2 = point_target_symbols([0.2, 0.1, 5.4], sv, grid)
        box = ImagingBox.centered([0.0, 0.0, 5.2], (0.8, 0.8, 1.2), (0.05, 0.05, 0.1))
        p1 = reconstruct(s1, sv, grid, box, 0.6 / 8, 1.6).voxels
        p2 = reconstruct(s2, sv, grid, box, 0.6 / 8, 1.6).voxels
        p12 = reconstruct(s1 + s2, sv, grid, box, 0.6 / 8, 1.6).voxels
        assert np.allclose(p12, p1 + p2, atol=1e-10 * np.abs(p12).max())

    def test_two_antennas_resolve_at_three_delta(self):
        sv = grid_antennas(33, 1.0)
        dy = azimuth_resolution(8.0, 1.0, GRID64.center)
        dz = range_resolution(GRID64)
        sep = 3 * dy
        targets = np.array([[0.0, -sep / 2, 8.0], [0.0, sep / 2, 8.0]])
        sym = point_target_symbols(targets, sv, GRID64)
        box = ImagingBox.centered([0.0, 0.0, 8.0], (0.8, 0.8, 1.2), (dy / 2, dy / 2, dz / 2))
        peaks = detect_peaks(reconstruct(sym, sv, GRID64, box, 1.0 / 32, 1.6), 0.5)
        assert len(peaks) == 2
        found_y = np.sort(peaks[:, 1])
        assert np.allclose(found_y, [-sep / 2, sep / 2], atol=dy)

    def test_two_antennas_merge_below_resolution(self):
        sv = grid_antennas(33, 1.0)
        dy = azimuth_resolution(8.0, 1.0, GRID64.center)
        dz = range_resolution(GRID64)
        sep = 0.3 * dy
        targets = np.array([[0.0, -sep / 2, 8.0], [0.0, sep / 2, 8.0]])
        sym = point_target_symbols(targets, sv, GRID64)
        box = ImagingBox.centered([0.0, 0.0, 8.0], (0.8, 0.8, 1.2), (dy / 2, dy / 2, dz / 2))
        peaks = detect_peaks(reconstruct(sym, sv, GRID64, box, 1.0 / 32, 1.6), 0.5)
        assert len(peaks) == 1

    def test_shift_covariance_one_voxel_in_z(self):
        sv = grid_antennas(17, 0.8)
        grid = FrequencyGrid(57e9, 32, 3e9 / 31)
        box = ImagingBox.centered([0.0, 0.0, 6.0], (0.6, 0.6, 1.2), (0.04, 0.04, 0.05))
        s_a = point_target_symbols([0.0, 0.0, 6.0], sv, grid)
        s_b = point_target_symbols([0.0, 0.0, 6.0 + box.spacing[2]], sv, grid)
        pa = peak_position(reconstruct(s_a, sv, grid, box, 0.8 / 16, 1.6))
        pb = peak_position(reconstruct(s_b, sv, grid, box, 0.8 / 16, 1.6))
        assert pb[2] - pa[2] == pytest.approx(box.spacing[2], abs=1e-12)
        assert np.allclose(pa[:2], pb[:2], atol=1e-12)

    def test_jittered_antennas_move_peak_less_than_voxel(self):
        rng = np.random.default_rng(11)
        spacing = 1.0 / 32
        sv = grid_antennas(33, 1.0)
        jit = sv.copy()
        jit[:, :2] += rng.uniform(-0.1, 0.1, size=(len(sv), 2)) * spacing
        target = np.array([0.05, -0.03, 8.0])
        dy = azimuth_resolution(8.0, 1.0, GRID64.center)
        dz = range_resolution(GRID64)
        box = ImagingBox.centered(target, (0.6, 0.6, 1.0), (dy / 2, dy / 2, dz / 2))
        p_ref = peak_position(reconstruct(point_target_symbols(target, sv, GRID64), sv, GRID64, box,
                                          spacing, 1.6))
        p_jit = peak_position(reconstruct(point_target_symbols(target, jit, GRID64), jit, GRID64, box,
                                          spacing, 1.6))
        assert np.all(np.abs(p_jit - p_ref) <= box.spacing + 1e-12)


class TestDetectPeaks:
    def test_single_voxel(self):
        vol = np.zeros((4, 4, 4))
        vol[1, 2, 3] = 1.0
        peaks = detect_peaks(factored_volume(vol), 0.5)
        assert peaks.shape == (1, 3)
        assert np.allclose(peaks[0], [1.0, 2.0, 3.0])

    def test_nu_one_keeps_argmax_only(self):
        vol = np.zeros((5, 5, 5))
        vol[1, 1, 1] = 0.8
        vol[3, 3, 3] = 1.0
        peaks = detect_peaks(factored_volume(vol), 1.0)
        assert peaks.shape == (1, 3)
        assert np.allclose(peaks[0], [3.0, 3.0, 3.0])

    def test_threshold_and_local_max(self):
        vol = np.zeros((7, 7, 7))
        vol[1, 1, 1] = 1.0
        vol[1, 1, 2] = 0.9   # shoulder of the first peak: not a local max
        vol[5, 5, 5] = 0.7
        vol[5, 5, 4] = 0.3   # below threshold
        peaks = detect_peaks(factored_volume(vol), 0.5)
        assert len(peaks) == 2
        assert np.allclose(peaks[0], [1.0, 1.0, 1.0])
        assert np.allclose(peaks[1], [5.0, 5.0, 5.0])

    @staticmethod
    def tie_volume(rng, nx):
        # Few levels give plateaus and ties; peaks go on corners, edges and faces.
        vol = rng.integers(0, 4, size=(nx, 6, 4)).astype(float)
        vol[0, 0, 0] = vol[-1, -1, -1] = 6.0
        vol[0, 3, -1] = 5.0
        vol[2, 0, 2] = vol[2, 0, 3] = 5.0
        vol[rng.integers(0, nx), rng.integers(0, 6), 0] = 6.0
        vol[3, 2, 1:3] = 4.0
        return vol

    def assert_matches_brute_force(self, rng, vol, nu):
        signs = rng.choice([-1.0, 1.0], size=vol.shape)
        peaks = detect_peaks(factored_volume(vol * signs), nu)
        expected = np.array(local_maxima_26(vol, nu), dtype=float).reshape(-1, 3)
        assert len(peaks) and np.array_equal(peaks, expected)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.0])
    def test_matches_brute_force_with_ties_and_border_peaks(self, seed, nu):
        rng = np.random.default_rng(seed)
        self.assert_matches_brute_force(rng, self.tie_volume(rng, 5), nu)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.0])
    def test_matches_brute_force_across_slabs(self, seed, nu):
        # Three full slabs and a partial one: the second slab is below every
        # threshold, and a tie and a dominating neighbour straddle the
        # boundary of the last full slab and the partial one.
        rng = np.random.default_rng(seed)
        vol = self.tie_volume(rng, 3 * _SLAB_ROWS + 5)
        vol[_SLAB_ROWS:2 * _SLAB_ROWS] *= 0.1
        b = 3 * _SLAB_ROWS
        vol[b - 1, 1, 1] = vol[b, 1, 1] = 6.0
        vol[b - 1, 4, 2], vol[b, 5, 3] = 5.0, 5.5
        self.assert_matches_brute_force(rng, vol, nu)

    @pytest.mark.parametrize("nu", [0.2, 0.5, 0.7, 1.0])
    def test_running_max_rises_two_slabs_late(self, nu):
        # Local maxima in the first slab clear nu times the running maximum
        # there; the global maximum arrives two slabs later and must still
        # filter them.
        rng = np.random.default_rng(9)
        vol = 0.05 * rng.random((2 * _SLAB_ROWS + 1, 5, 4))
        vol[5, 2, 2], vol[20, 1, 3] = 0.6, 0.3
        vol[2 * _SLAB_ROWS, 1, 1] = 1.0
        self.assert_matches_brute_force(rng, vol, nu)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)])
    @pytest.mark.parametrize("row", [0, _SLAB_ROWS + 3])
    def test_non_finite_magnitude_raises(self, bad, row):
        vol = np.zeros((2 * _SLAB_ROWS, 4, 4), dtype=complex)
        vol[5, 1, 1] = 1.0
        vol[row, 2, 3] = bad
        # The identity products take 0 * inf.
        with np.errstate(invalid="ignore"), pytest.raises(EmptySpectrumError):
            detect_peaks(factored_volume(vol), 0.5)

    def test_all_zero_raises(self):
        with pytest.raises(EmptySpectrumError):
            detect_peaks(factored_volume(np.zeros((3, 3, 3))), 0.5)

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            detect_peaks(factored_volume(np.ones((2, 2, 2))), 0.0)

    def test_search_holds_one_x_slab_at_a_time(self):
        # One strong row in each of four slabs, so the search takes the x
        # product of every slab; each is freed before the next is taken.
        # Holding two at once peaks at about twice one slab.
        vol = 1e-3 * np.random.default_rng(4).random((4 * _SLAB_ROWS, 16, 16))
        for k in range(4):
            vol[k * _SLAB_ROWS + 7, 3 + k, 5] = 1.0 - 0.1 * k
        ps = factored_volume(vol)
        slab_bytes = _SLAB_ROWS * ps.folded.shape[1] * ps.folded.itemsize
        tracemalloc.start()
        try:
            peaks = detect_peaks(ps, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(peaks, np.array(local_maxima_26(vol, 0.5), dtype=float))
        assert len(peaks) == 4 and peak < 1.5 * slab_bytes

