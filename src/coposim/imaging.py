"""Fourier reconstruction of the transmit-antenna indicator from aperture data.

The receive array, projected onto the plane z = 0, samples a spherical wave
field s(x, y, f_k).  Per tone, a 2D spatial-frequency transform of those
samples equals (up to a smooth diffraction amplitude) the 3D transform of the
antenna indicator evaluated on the sphere f = ||f_vec||.  Resampling that
sphere onto a uniform (f_x, f_y, f_z) grid and inverting yields a complex
volume whose magnitude peaks at the transmit antennas.

The resampling interpolates between adjacent shells after each shell value
has been multiplied by its own depth carrier exp(j*2*pi*z0*f_z,k/c), f_z,k =
sqrt(f_k^2 - f_x^2 - f_y^2), so the phase turn over the range z0 of the box
does not wash out the interpolated values.  That geometry depends on
(f_x^2, f_y^2) only, so it is tabulated once per distinct pair (about a
quarter of the columns on symmetric FFT axes), in cache-sized slabs of
distinct f_x^2 values that each fill the f_x rows, a row and its mirror,
sharing them.  Both transforms are evaluated
axis by axis as dense products with small (frequency x coordinate) phase
matrices exp(+-j*(2*pi/c)*f*t): an aperture holds only a few samples per
axis and a box a few hundred voxels, so the direct sums beat padded FFTs.
The forward phases are taken at the physical grid coordinates, and the
inverse ones at the voxel coordinates, so the voxel grid can sit anywhere
(boxes are centered on the clock-sync anchor estimate) at any pitch; the
1/f_z weights ride in the z matrix.  The configured box sets the spectral
bins, the deramp center and the depth reference, while the inverse may run
on a centered window of its voxels (``ImagingBox.window``): that shrinks the
z product, the folded data, the row bounds, the x slabs and the magnitude
buffer, and leaves the forward transform and the remap as they are.  The
inverse's transverse products are real: each spatial-frequency bin is paired
with its exact negative, so cos and sin matrices act on pair sums and
differences.  Neither spectrum is held whole: the forward transform keeps
its x product, and the inverse streams one f_x row at a time through the
forward y product, the sphere remap, its own z product and the fold into
pair sums and differences, which it adds into the folded data in any row
order.  The peak search bounds before it computes.  The x product bounds
every voxel row: the y matrix holds cosines and sines, so no |voxel| of row
i exceeds the largest, over z, of hypot(sum |Re x_i|, sum |Im x_i|) over the
y bins.  The bound sums the very x product the magnitudes read, so only the
y product's rounding widens it.  Rows are then visited in descending bound,
and a row gets its y product and magnitudes only while its bound reaches nu
times the running peak; a row left out cannot hold a voxel above the
threshold, so it counts as zero beside the peaks.  The inverse is held as
its factors, the folded z product and the x and y matrices, and never as a
volume: ``PowerSpectrum.voxels`` assembles the full volume for a caller that
asks, and the search does not read it.  Amplitudes are calibrated so that,
for a Nyquist-sampled aperture, the peak of a single emitter matches the
coherent gain of direct matched-filter back-projection over (antenna, tone)
pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EmptySpectrumError, InterpolationDegeneracyError
from .geometry import SPEED_OF_LIGHT as C
from .waveform import FrequencyGrid


@dataclass(frozen=True)
class ApertureSamples:
    """Wave-field samples on a uniform grid in the plane z = 0, two or more per axis."""

    grid_x: np.ndarray
    grid_y: np.ndarray
    samples: np.ndarray  # (nx, ny, K) complex
    grid: FrequencyGrid

    @property
    def spacing(self) -> tuple[float, float]:
        return float(self.grid_x[1] - self.grid_x[0]), float(self.grid_y[1] - self.grid_y[0])


@dataclass(frozen=True)
class Spectrum2D:
    """Per-tone spatial spectrum S(f_x, f_y, f_k); frequencies in Hz.

    Held as the factors of the forward transform: ``xprod`` (nfx, ny, K) is
    the x product of the aperture samples and ``ey`` (nfy, ny) the y phase
    matrix.  ``row(i, out)`` writes row i, the (nfy, K) spectrum at f_x[i],
    as ey @ xprod[i].  The remap reads one row at a time, so the full
    (nfx, nfy, K) spectrum is never assembled.
    """

    f_x: np.ndarray
    f_y: np.ndarray
    xprod: np.ndarray  # (nfx, ny, K)
    ey: np.ndarray     # (nfy, ny)
    grid: FrequencyGrid
    sample_area: float

    def row(self, i: int, out: np.ndarray) -> np.ndarray:
        """Row i, the spectrum at f_x[i], written into ``out`` (nfy, K)."""
        return np.matmul(self.ey, self.xprod[i], out=out)


@dataclass(frozen=True)
class Spectrum3D:
    """Spectrum on a uniform (f_x, f_y, f_z) grid after sphere resampling.

    Read one f_x row at a time: ``rows()`` yields ``(i, row)`` once for each
    f_x bin i, in an order of the producer's choosing, where ``row`` is the
    (nfy, nfz) spectrum at f_x[i] and may be a buffer that the next row
    overwrites.  ``values`` assembles the full volume from ``rows()`` on first
    access; it is kept once read, and ``rows()`` never reads it.
    """

    f_x: np.ndarray
    f_y: np.ndarray
    f_z: np.ndarray
    rows: Callable[[], Iterator[tuple[int, np.ndarray]]]
    shell_spacing: float
    sample_area: float

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The full (nfx, nfy, nfz) spectrum, assembled on first access."""
        out = np.empty((len(self.f_x), len(self.f_y), len(self.f_z)), dtype=complex)
        for i, row in self.rows():
            out[i] = row
        return out


@dataclass(frozen=True)
class ImagingBox:
    """Axis-aligned voxel grid, or a window of one.

    ``origin`` is the center of voxel (0, 0, 0) of the configured grid, and
    ``first`` the configured index of this grid's first voxel, so voxel
    (i, j, k) sits at origin + spacing * (first + (i, j, k)).  A window
    (``window``) keeps the configured origin and spacing, so its axes are
    exact slices of the configured axes and its center is the configured
    center bit for bit.  ``rim[i]`` is 1 where a window's end voxels on axis
    i lie past its faces: the peak search reads them as neighbours only.
    """

    origin: np.ndarray
    spacing: np.ndarray
    shape: tuple[int, int, int]
    first: tuple[int, int, int] = (0, 0, 0)
    rim: tuple[int, int, int] = (0, 0, 0)

    @classmethod
    def centered(cls, center, extent, spacing) -> "ImagingBox":
        center = np.asarray(center, dtype=float)
        extent = np.broadcast_to(np.asarray(extent, dtype=float), (3,))
        spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (3,)).copy()
        shape = tuple(max(1, int(round(e / s)) + 1) for e, s in zip(extent, spacing))
        origin = center - spacing * (np.array(shape) - 1) / 2.0
        return cls(origin=origin, spacing=spacing, shape=shape)

    def axis(self, i: int) -> np.ndarray:
        return self.origin[i] + self.spacing[i] * np.arange(self.first[i],
                                                            self.first[i] + self.shape[i])

    @property
    def center(self) -> np.ndarray:
        return self.origin + self.spacing * np.add(self.first, (np.array(self.shape) - 1) / 2.0)

    def window(self, extent) -> "ImagingBox":
        """The centered sub-grid that spans at least ``extent``, clipped to this grid.

        Each axis keeps the parity of its voxel count, so the window's center
        is this grid's center.  An axis it does not fill gets a rim, one voxel
        past each face, so each face voxel meets its neighbours in this grid.
        """
        extent = np.broadcast_to(np.asarray(extent, dtype=float), (3,))
        n = np.array(self.shape)
        w = np.minimum(n, np.ceil(extent / self.spacing).astype(int) + 1)
        w += (n - w) % 2
        rim = (w < n).astype(int)
        w += 2 * rim
        first = np.array(self.first) + (n - w) // 2
        return ImagingBox(self.origin, self.spacing, tuple(w.tolist()), tuple(first.tolist()),
                          tuple(rim.tolist()))


class PowerSpectrum:
    """Complex reconstruction volume on ``box``, held as the factors of the inverse.

    ``inverse_3d_spectrum`` stops before the x and y products: it keeps the
    folded z product and the x and y [cos | sin] matrices, and voxel row i
    along x is the y product my @ x_i of its block x_i of the x product,
    which is taken per slab of ``_SLAB_ROWS`` rows.  ``voxels`` assembles
    the full volume the same way; it is kept once read, and no row method
    reads it.

    The peak search reads the spectrum through two methods.  ``row_bounds()``
    gives each row a bound that none of its |voxel| exceeds, and
    ``row_magnitudes(start)`` writes |voxel| of single rows of the slab at
    ``start``.  The bound costs the x product only: every entry of my is a
    cosine or a sine, so for each z,
    |phi(i, y, z)| <= hypot(sum_b |Re x_i[b, z]|, sum_b |Im x_i[b, z]|)
    over the y bins b, and the row bound is the largest of these over z.
    ``row_bounds`` takes each slab's x product with the call that
    ``row_magnitudes`` makes, so it sums |x| of the very numbers the
    magnitudes read, widened by ``_BOUND_MARGIN``.
    """

    def __init__(self, folded: np.ndarray, mx: np.ndarray, my: np.ndarray, box: ImagingBox):
        self.folded = folded
        self.mx = mx
        self.my = my
        self.box = box

    @functools.cached_property
    def voxels(self) -> np.ndarray:
        """The full complex volume, assembled on first access."""
        volume = np.empty(self.box.shape, dtype=complex)
        x_part = np.empty((min(_SLAB_ROWS, len(self.mx)), self.folded.shape[1]))
        for start in range(0, len(self.mx), _SLAB_ROWS):
            x = self._x_slab(start, x_part)
            np.matmul(self.my, x, out=volume[start:start + len(x)].view(float))
        return volume

    def row_bounds(self) -> np.ndarray:
        """Per voxel row along x, a bound that no |voxel| of the row exceeds."""
        nx, _, nz = self.box.shape
        bounds = np.empty(nx)
        x_part = np.empty((min(_SLAB_ROWS, nx), self.folded.shape[1]))
        for start in range(0, nx, _SLAB_ROWS):
            x = self._x_slab(start, x_part)
            sums = np.abs(x, out=x).sum(axis=1).reshape(len(x), nz, 2)
            bounds[start:start + len(x)] = np.hypot(sums[..., 0], sums[..., 1]).max(axis=1)
        return bounds * (1.0 + _BOUND_MARGIN)

    def row_magnitudes(self, start: int):
        """Function ``(r, out)`` writing |voxel| of row ``start + r`` into ``out``.

        ``start`` is the first row of a slab.  The slab's x product is taken
        here, with the call that ``voxels`` makes, and each call of the
        function takes the y product of one row.  That is the GEMM the
        batched product over the slab makes for the row, so its bits are
        those of the assembled volume.
        """
        x = self._x_slab(start, np.empty((min(_SLAB_ROWS, len(self.mx) - start),
                                          self.folded.shape[1])))
        row = np.empty(self.box.shape[1:], dtype=complex)

        def magnitudes(r: int, out: np.ndarray) -> None:
            np.matmul(self.my, x[r], out=row.view(float))
            np.abs(row, out=out)

        return magnitudes

    def _x_slab(self, start: int, out: np.ndarray) -> np.ndarray:
        """x product of the slab at ``start`` into ``out``: (rows, 2 y leads, 2 nz) real."""
        rows = self.mx[start:start + _SLAB_ROWS]
        np.matmul(rows, self.folded, out=out[:len(rows)])
        return out[:len(rows)].reshape(len(rows), self.my.shape[1], -1)


def _cluster_rows(y_coords: np.ndarray, row_tol: float) -> list[np.ndarray]:
    """Group antenna indices into rows: a gap in sorted y wider than ``row_tol`` starts a row."""
    order = np.argsort(y_coords, kind="stable")
    ys = y_coords[order]
    gaps = np.diff(ys)
    breaks = np.nonzero(gaps > row_tol)[0]
    return [seg for seg in np.split(order, breaks + 1)]


def _interp_weights(x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """Matrix W with W @ fp == np.interp(x, xp, fp, left=0, right=0) for ascending ``xp``."""
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    t = (x - xp[j]) / (xp[j + 1] - xp[j])
    inside = (x >= xp[0]) & (x <= xp[-1])
    w = np.zeros((len(x), len(xp)))
    rows = np.arange(len(x))
    w[rows, j] = np.where(inside, 1.0 - t, 0.0)
    w[rows, j + 1] = np.where(inside, t, 0.0)
    return w


def sample_aperture(symbols, sv_antennas, grid: FrequencyGrid, pitch: float,
                    deramp_center=None) -> ApertureSamples:
    """Project antenna symbols onto z = 0 and resample onto a uniform grid.

    ``symbols`` holds the SFCW symbols, one row per antenna of
    ``sv_antennas`` and one column per tone of ``grid``.  ``pitch`` is the
    row pitch of the array: a new row starts wherever the sorted antenna y
    values jump by more than ``pitch/2``.  Each grid axis spreads
    round(span/pitch) + 1 points evenly over its span (of the antennas in x,
    of the row means in y), at least two across x, so a near-grazing bearing
    gets two columns closer together than a pitch.

    Antennas off the plane are phase-shifted by exp(-j*2*pi*f_k*p_z/c), which
    is tight while the target distance is large against the array size.  The
    scattered samples are then interpolated linearly along X within rows, and
    linearly along Y across rows; grid points outside the sampled region are
    zero.

    The raw field's phase turns by radians per millimetre, so interpolating it
    between antennas spaced many wavelengths apart scrambles the phase.  With
    ``deramp_center`` the nominal point response from that location is divided
    out before interpolation and restored afterwards, making interpolated
    values phase-faithful for content near the reference point.
    """
    symbols = np.asarray(symbols, dtype=complex)
    ants = np.asarray(sv_antennas, dtype=float)

    freqs = grid.frequencies
    ref = None if deramp_center is None else np.asarray(deramp_center, dtype=float)
    projected = symbols * np.exp(-2j * math.pi * np.outer(ants[:, 2], freqs) / C)
    if ref is not None:
        r_ant = np.sqrt((ants[:, 0] - ref[0]) ** 2 + (ants[:, 1] - ref[1]) ** 2 + ref[2] ** 2)
        projected = projected * np.exp(2j * math.pi * np.outer(r_ant, freqs) / C)

    rows = [r for r in _cluster_rows(ants[:, 1], pitch / 2) if len(r) >= 2]
    if len(rows) < 2:
        raise InterpolationDegeneracyError(
            "resampling needs at least two antenna rows of at least two antennas each")

    # Rows come from the y sort: their means ascend and span over pitch/2, so ny >= 2.
    row_y = np.array([ants[r, 1].mean() for r in rows])
    x_lo = min(ants[r, 0].min() for r in rows)
    x_hi = max(ants[r, 0].max() for r in rows)
    nx = max(2, int(round((x_hi - x_lo) / pitch)) + 1)
    ny = int(round((row_y[-1] - row_y[0]) / pitch)) + 1
    gx = np.linspace(x_lo, x_hi, nx)
    gy = np.linspace(row_y[0], row_y[-1], ny)

    # One weight matrix per axis, applied to every tone at once: along X it
    # maps all antennas to (row, gx) samples, along Y it maps rows to gy.
    wx = np.zeros((len(rows), nx, len(ants)))
    for i, r in enumerate(rows):
        r = r[np.argsort(ants[r, 0], kind="stable")]
        wx[i][:, r] = _interp_weights(gx, ants[r, 0])
    per_row = (wx.reshape(-1, len(ants)) @ projected).reshape(len(rows), nx, -1)
    out = _interp_weights(gy, row_y) @ per_row.transpose(1, 0, 2)
    if ref is not None:
        r_grid = np.sqrt((gx[:, None] - ref[0]) ** 2 + (gy[None, :] - ref[1]) ** 2 + ref[2] ** 2)
        out = out * np.exp(-2j * math.pi / C * r_grid[:, :, None] * freqs[None, None, :])
    return ApertureSamples(grid_x=gx, grid_y=gy, samples=out, grid=grid)


def _phase_matrix(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(+j*(2*pi/c)*f_i*t_j): rows are spectral bins, columns coordinates."""
    return np.exp(2j * math.pi / C * np.multiply.outer(f, t))


def forward_2d_spectrum(samples: ApertureSamples, pad: tuple[int, int]) -> Spectrum2D:
    """Per-tone 2D transform with kernel exp(-j*(2*pi/c)*(f_x*x + f_y*y)).

    Spatial frequencies are in Hz, ascending, and span +-c/(2*spacing) in
    ``pad`` bins per axis (the bins of a zero-padded DFT); more bins give a
    denser spectrum and a longer periodicity of the reconstructed image.
    Only the x bins within the band, |f_x| <= f_K, are formed, each as
    ``np.fft.fftfreq`` forms it: the remap reads a shell at ||f|| >= |f_x|,
    so any other row is zero, and ``sample_area`` = dx*dy*px/nfx keeps the
    inverse's scale.  Each axis is one product with a (bins x samples) phase
    matrix taken at the physical grid coordinates.  Only the x product is
    taken here; the y product of each f_x row is taken when the row is read
    (see ``Spectrum2D``), so the spectrum is never held whole.
    """
    dx, dy = samples.spacing
    nx, ny, tones = samples.samples.shape
    px, py = pad

    step = 1.0 / (px * dx)
    k_max = min(px // 2, int(samples.grid.f_max / (step * C)) + 1)
    f_x = np.arange(-k_max, min(k_max, (px - 1) // 2) + 1) * step * C
    f_x = f_x[np.abs(f_x) <= samples.grid.f_max]
    f_y = np.fft.fftshift(np.fft.fftfreq(py, d=dy)) * C
    xprod = _phase_matrix(-f_x, samples.grid_x) @ samples.samples.reshape(nx, -1)
    return Spectrum2D(f_x=f_x, f_y=f_y, xprod=xprod.reshape(len(f_x), ny, tones),
                      ey=_phase_matrix(-f_y, samples.grid_y), grid=samples.grid,
                      sample_area=dx * dy * (px / len(f_x)))


# Geometry-table entries per slab of the sphere remap.  A slab tabulates a run
# of distinct f_x^2 values and fills the f_x rows that have them; about 32k
# entries keep its tables, and each row's temporaries, in a core's L2 cache.
_SLAB_ENTRIES = 32768


def remap_to_sphere(spec: Spectrum2D, f_z: np.ndarray, ref_depth: float = 0.0) -> Spectrum3D:
    """Resample the per-tone shells onto a uniform (f_x, f_y, f_z) grid.

    Each voxel reads the spectrum at f = ||(f_x, f_y, f_z)||, linearly
    interpolated between the two nearest tone shells; voxels outside the
    measured band [f_1, f_K] are zero.

    At range R the spectrum's phase turns by 2*pi*delta*R/c between adjacent
    shells, so interpolating the raw phasor washes out its magnitude far from
    the origin.  ``ref_depth`` = z0 removes the depth carrier before
    interpolating and restores it afterwards: each shell value is multiplied
    once by its own carrier exp(j*2*pi*z0*sqrt(f_k^2 - rho^2)/c), rho^2 =
    f_x^2 + f_y^2, and each interpolated voxel by exp(-j*2*pi*z0*f_z/c).
    Values at exact shell crossings are unchanged; at the default z0 = 0 both
    carriers are 1, the plain linear rule.

    The geometry (lower shell, the two weights holding the in-band mask, and
    the shell carrier) depends on (f_x^2, f_y^2) only, so it is computed once
    per distinct pair: on FFT axes, which are symmetric about zero, that is
    about a quarter of the columns.  The distinct f_x^2 values are taken in
    slabs of about ``_SLAB_ENTRIES`` table entries, and each slab fills the
    f_x rows that have its values, a row and its mirror sharing one table.

    The resampling runs when the rows are read: the returned spectrum's
    ``rows()`` runs the slabs, and per row it takes the forward transform's y product
    (``Spectrum2D.row``), applies the shell carrier, gathers both shells
    through one flat index array, blends them and applies the output carrier,
    into one (nfy, nfz) buffer that the next row reuses.  No full-size array
    is built.
    """
    f_z = np.asarray(f_z, dtype=float)
    shells = spec.grid.frequencies
    tones = spec.grid.tones
    nfy, nfz = len(spec.f_y), len(f_z)
    beta = 2.0 * math.pi / C * ref_depth
    out_carrier = np.exp(-1j * beta * f_z)

    def rows() -> Iterator[tuple[int, np.ndarray]]:
        fx2, ix = np.unique(spec.f_x**2, return_inverse=True)
        fy2, iy = np.unique(spec.f_y**2, return_inverse=True)
        offset = (tones * np.arange(nfy))[:, None]  # lower shell in the flat row
        shell_row = np.empty((nfy, tones), dtype=complex)
        row = np.empty((nfy, nfz), dtype=complex)
        step = max(1, _SLAB_ENTRIES // (len(fy2) * nfz))
        for u in range(0, len(fx2), step):
            rho2 = (fx2[u:u + step, None] + fy2[None, :]).reshape(-1, 1)  # one table row per pair
            f = np.sqrt(rho2 + f_z**2)
            in_band = (f >= shells[0]) & (f <= shells[-1])
            pos = (f - shells[0]) / spec.grid.delta
            lower = np.clip(np.floor(pos), 0, tones - 2)
            frac = pos - lower
            w_low = np.where(in_band, 1.0 - frac, 0.0)
            w_high = np.where(in_band, frac, 0.0)
            lower = lower.astype(np.intp)
            phase = beta * np.sqrt(np.maximum(shells**2 - rho2, 0.0))
            shell_carrier = np.empty(phase.shape, dtype=complex)   # exp(j*phase)
            np.cos(phase, out=shell_carrier.real)
            np.sin(phase, out=shell_carrier.imag)

            for i in np.flatnonzero((ix >= u) & (ix < u + step)):
                col = (ix[i] - u) * len(fy2) + iy  # table row of each f_y
                # Keep carrier times value in this order: the vectorised complex
                # product is not bitwise commutative, and the output is pinned
                # bit for bit.
                flat = np.multiply(shell_carrier[col], spec.row(i, shell_row),
                                   out=shell_row).reshape(-1)
                idx = lower[col]
                idx += offset
                # Every index is in range; "clip" lets take write straight into the row.
                np.take(flat, idx, out=row, mode="clip")
                row *= w_low[col]
                high = np.take(flat[1:], idx, mode="clip")
                high *= w_high[col]
                row += high
                row *= out_carrier
                yield i, row

    return Spectrum3D(f_x=spec.f_x, f_y=spec.f_y, f_z=f_z, rows=rows,
                      shell_spacing=spec.grid.delta, sample_area=spec.sample_area)


# Voxel rows along x per slab of the inverse's x product.  A slab and its
# intermediates stay a few MB; the pipeline holds one slab of a path's x
# product at a time and never the whole volume.
_SLAB_ROWS = 32

# Relative widening of the row bounds for the rounding of the y product and of
# the bound's own sums, below 1e-13 relative at the pipeline's bin counts.
_BOUND_MARGIN = 1e-9


def _paired_bins(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lead bins (the paired ones first) and, for the first of them, the bin at -f.

    Pairs are matched by exact value in any order; a zero, a Nyquist or any
    other bin without an exact negative is a lead without a lag.  The bins
    must be distinct, as on every spectral axis.
    """
    order = np.argsort(f)
    pos = np.flatnonzero(f > 0.0)
    at = np.minimum(np.searchsorted(f[order], -f[pos]), len(f) - 1)
    hit = f[order[at]] == -f[pos]
    lead, lag = pos[hit], order[at[hit]]
    single = np.setdiff1d(np.arange(len(f)), np.concatenate([lead, lag]))
    return np.concatenate([lead, single]), lag


def _cos_sin_matrix(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """[cos | sin] of (2*pi/c)*f*t: rows are coordinates, columns lead bins."""
    arg = 2.0 * math.pi / C * np.multiply.outer(t, f)
    return np.concatenate([np.cos(arg), np.sin(arg)], axis=1)


def _fold(values: np.ndarray, lead: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """Rows v_lead + v_lag, then j*(v_lead - v_lag), along the first axis (v_lag = 0 past ``lag``).

    With them, sum_i exp(j*a*f_i*t) v_i = [cos | sin](a*f_lead*t) @ rows for
    a real matrix: a pair of bins +-f gives cos on their sum and sin on j times
    their difference, and an unpaired bin cos on v and sin on j*v.
    """
    rows = values[np.concatenate([lead, lead])]
    n, k = len(lead), len(lag)
    rows[:k] += values[lag]
    rows[n:n + k] -= values[lag]
    rows[n:] *= 1j
    return rows


def inverse_3d_spectrum(spec: Spectrum3D, box: ImagingBox) -> PowerSpectrum:
    """Inverse transform with kernel exp(+j*(2*pi/c)*f.x) on the voxel grid.

    The spectrum is weighted by 1/f_z (the Jacobian of the shell-to-grid
    change of variables) and scaled so that voxel magnitudes are directly
    comparable with matched-filter back-projection over (antenna, tone) pairs,
    referenced to the box-center height above the aperture plane.  Each axis
    is one product with a (spectral bins x voxel coordinates) matrix taken at
    the voxel coordinates, so the voxel grid can sit anywhere at any pitch;
    the weights ride in the z matrix.

    The z product is complex.  The transverse products are real: each f_x and
    f_y bin is paired with its exact negative, the z product is folded once
    into pair sums and j-times pair differences (``_fold``), and cos and sin
    matrices multiply the float view of the folded data.  On fftshift(fftfreq)
    axes only the zero and Nyquist bins stay unpaired, so that halves the real
    multiplies.

    The spectrum is read one f_x row at a time (``Spectrum3D.rows()``), and
    each row's z product is folded along y and added into the zeroed folded
    data at once: into the pair sum of its x pair, and into the pair
    difference, or subtracted there when the row is the lag of its pair.
    IEEE addition is commutative and 0 + a is a, so the folded data does not
    depend on the order the rows come in, and it is the only full-size array
    the inverse builds.  This function stops there: the ``PowerSpectrum`` it
    returns is the folded data and the x and y matrices, and the x and y
    products run later, the x product per slab of ``_SLAB_ROWS`` voxel rows
    along x, when the spectrum's rows or ``voxels`` are read.  Taking x before
    y is what bounds a row before its y product (see ``PowerSpectrum``), and
    it also costs 13-28% fewer multiplies than y before x on the pipeline's
    boxes, which are wider in x than in y.
    """
    nfx, nfy = len(spec.f_x), len(spec.f_y)
    dfz = float(spec.f_z[1] - spec.f_z[0])

    z_ref = abs(float(box.center[2]))
    scale = z_ref * C * dfz / (nfx * nfy * spec.sample_area
                               * spec.shell_spacing * np.maximum(spec.f_z, 1.0))

    ez = _phase_matrix(spec.f_z, box.axis(2)) * scale[:, None]
    x_lead, x_lag = _paired_bins(spec.f_x)
    y_lead, y_lag = _paired_bins(spec.f_y)
    n = len(x_lead)
    pair = np.empty(nfx, dtype=np.intp)   # the folded row of each f_x bin's pair
    pair[x_lead] = np.arange(n)
    pair[x_lag] = np.arange(len(x_lag))
    is_lag = np.zeros(nfx, dtype=bool)
    is_lag[x_lag] = True
    folded = np.zeros((2 * n, 2 * len(y_lead), ez.shape[1]), dtype=complex)
    for i, row in spec.rows():
        part = _fold(row @ ez, y_lead, y_lag)
        folded[pair[i]] += part
        if is_lag[i]:
            folded[n + pair[i]] -= part
        else:
            folded[n + pair[i]] += part
    folded[n:] *= 1j
    folded = folded.view(float).reshape(len(folded), -1)   # (2 x leads, 2 y leads * 2 nz)
    mx = _cos_sin_matrix(spec.f_x[x_lead], box.axis(0))
    my = _cos_sin_matrix(spec.f_y[y_lead], box.axis(1))
    return PowerSpectrum(folded, mx, my, box)


def detect_peaks(spectrum: PowerSpectrum, nu: float = 0.5) -> np.ndarray:
    """Voxel centers that clear the relative threshold and are local maxima.

    A voxel is kept when |phi| >= nu * max|phi| and it dominates its full
    26-voxel neighbourhood, with zero outside the volume, and is not on a
    window's rim (``ImagingBox.rim``); bare thresholding would return blobs
    instead of point detections.  Rows are ordered by descending magnitude
    (index order breaks ties) so output is deterministic.  A NaN or infinite
    bound or magnitude, wherever it sits, or an all-zero volume, raises
    ``EmptySpectrumError``.

    The search bounds first and computes second.  ``row_bounds()`` gives
    each voxel row along x a bound B_i on its magnitudes (see
    ``PowerSpectrum``).  Slabs are then visited in descending order of their
    largest B_i, and within a slab the rows in descending B_i, keeping a
    running peak: a row's magnitudes are taken (``row_magnitudes``) only
    while B_i >= nu * peak, and the search stops at the first slab whose
    largest B_i is below that.  The running peak never exceeds the final one,
    so a row left out has B_i < nu * max|phi|: it holds neither the maximum
    nor a voxel above the threshold, and it counts as zero in the
    26-neighbour test, which gives the same answer because every candidate
    is at least nu * max|phi| > B_i.  The rows taken sit in visiting order in
    one buffer with a zero border in y and z and a zero slot for rows left
    out and rows outside the volume; the first row, which has the largest
    bound, sizes that buffer, since no row with B_i below nu times its
    maximum can be taken after it.  No full-size array is built.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    box = spectrum.box
    nx, ny, nz = box.shape
    bounds = spectrum.row_bounds()
    if not np.isfinite(bounds).all():
        raise EmptySpectrumError("power spectrum has a NaN or infinite magnitude")
    if not bounds.max() > 0.0:
        raise EmptySpectrumError("power spectrum is identically zero")
    starts = np.arange(0, nx, _SLAB_ROWS)
    tops = np.maximum.reduceat(bounds, starts)
    slot = np.zeros(nx + 2, dtype=np.intp)    # slot of row i - 1 in ``mags``; slot 0 is zero
    rows = []                                  # the row in each slot from 1 on
    mags = None
    peak = 0.0
    for start in starts[np.argsort(-tops, kind="stable")]:
        if tops[start // _SLAB_ROWS] < nu * peak:
            break
        magnitudes = spectrum.row_magnitudes(start)
        block = bounds[start:start + _SLAB_ROWS]
        for r in np.argsort(-block, kind="stable"):
            if block[r] < nu * peak:
                break
            row = np.empty((ny, nz)) if mags is None else mags[len(rows) + 1, 1:-1, 1:-1]
            magnitudes(r, row)
            top = float(row.max())
            if not math.isfinite(top):
                raise EmptySpectrumError("power spectrum has a NaN or infinite magnitude")
            peak = max(peak, top)
            if mags is None:
                mags = np.zeros((np.count_nonzero(bounds >= nu * peak) + 1, ny + 2, nz + 2))
                mags[1, 1:-1, 1:-1] = row
            rows.append(start + r)
            slot[start + r + 1] = len(rows)
        del magnitudes   # frees this slab's x product before the next slab takes its own
    if peak == 0.0:
        raise EmptySpectrumError("power spectrum is identically zero")

    plane = (ny + 2) * (nz + 2)
    flat = mags.reshape(-1)
    above = mags[1:len(rows) + 1] >= nu * peak
    rim = box.rim     # a window's rim holds neighbours, never detections
    above[np.isin(rows, [rim[0] - 1, nx - rim[0]])] = False
    above[:, [rim[1], ny + 1 - rim[1]]] = above[:, :, [rim[2], nz + 1 - rim[2]]] = False
    cand = np.flatnonzero(above) + plane
    m = flat[cand]
    s, rest = np.divmod(cand, plane)
    ix = np.array(rows)[s - 1]
    for dx in (-1, 0, 1):
        base = slot[ix + 1 + dx] * plane + rest
        for dy, dz in itertools.product((-1, 0, 1), repeat=2):
            if dx or dy or dz:
                keep = m >= flat[base + dy * (nz + 2) + dz]
                m, ix, rest, base = m[keep], ix[keep], rest[keep], base[keep]
    iy, iz = np.divmod(rest, nz + 2)
    iy, iz = iy - 1, iz - 1
    order = np.lexsort((iz, iy, ix, -m))
    return np.stack([box.axis(0)[ix[order]], box.axis(1)[iy[order]], box.axis(2)[iz[order]]],
                    axis=1)


def default_fz_axis(grid: FrequencyGrid, f_x: np.ndarray, f_y: np.ndarray,
                    spacing: float) -> np.ndarray:
    """Uniform f_z axis, ``spacing`` apart, covering the band over the (f_x, f_y) grid."""
    fxy_max = max(float(np.abs(f_x).max()), float(np.abs(f_y).max()))
    lo = math.sqrt(max(grid.f1**2 - 2.0 * fxy_max**2, 0.0))
    n = max(2, int(math.ceil((grid.f_max - lo) / spacing)) + 1)
    return lo + spacing * np.arange(n)


def reconstruct(symbols, sv_antennas, grid: FrequencyGrid, box: ImagingBox,
                pitch: float, pad_factor: float, window_extent=None) -> PowerSpectrum:
    """Full chain: resample aperture, transform, remap to the sphere, invert.

    ``symbols`` holds the SFCW symbols, one row per antenna, and ``pitch`` is
    the antenna row pitch, which also spaces the resampled aperture grid (see
    ``sample_aperture``).  ``pad_factor`` controls spectral bin density so the
    periodic image repeat exceeds the box extent by that factor: each
    transverse axis gets max(n, ceil(pad_factor * extent / spacing)) bins,
    the fewest that do so (the phase-matrix transforms take any bin count, so
    none is rounded up to an FFT size).  The f_z spacing is the tone gap,
    reduced when the box is deep enough to need it.  The resampling is
    phase-referenced to the box center.

    ``box`` sets all of that.  The inverse, and so the voxels and the peak
    search, covers ``box.window(window_extent)``, or the whole box when
    ``window_extent`` is None.  A window has the box's center, so the same
    amplitude reference, and a subset of its voxel coordinates, so each of
    its voxels holds the value it has in the whole box, up to the rounding
    of the narrower matrix products (about 1e-16 of the image maximum).

    No spectrum is held whole: the forward transform keeps its x product,
    and the inverse streams each f_x row from it through the y product, the
    sphere remap, the z product and the fold (see ``remap_to_sphere`` and
    ``inverse_3d_spectrum``), so the x product and the folded data are the
    only full-size arrays of a path.  The returned spectrum is the factored
    inverse and computes its voxels when they are read (see
    ``PowerSpectrum``).
    """
    samples = sample_aperture(symbols, sv_antennas, grid, pitch, deramp_center=box.center)
    dx, dy = samples.spacing
    nx, ny, _ = samples.samples.shape

    extent = box.spacing * (np.array(box.shape) - 1)
    need_x = pad_factor * max(extent[0], 1e-6)
    need_y = pad_factor * max(extent[1], 1e-6)
    px = max(nx, math.ceil(need_x / dx))
    py = max(ny, math.ceil(need_y / dy))
    spec2d = forward_2d_spectrum(samples, pad=(px, py))
    del samples   # the x product holds all that the rows read of the samples

    fz_spacing = min(grid.delta, C / (pad_factor * max(extent[2], 1e-6)))
    f_z = default_fz_axis(grid, spec2d.f_x, spec2d.f_y, spacing=fz_spacing)
    spec3d = remap_to_sphere(spec2d, f_z, ref_depth=float(box.center[2]))
    return inverse_3d_spectrum(spec3d, box if window_extent is None else box.window(window_extent))
