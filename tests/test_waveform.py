import numpy as np
import pytest

from conftest import REF_DELTA, REF_GRID, small_scene, square_array
from coposim.errors import ConfigError
from coposim.geometry import SPEED_OF_LIGHT as C
from coposim.geometry import ReflectionSurface
from coposim.waveform import (FrequencyGrid, aperture_spacing_bound, max_unambiguous_range,
                              sync_spacing_bound, validate_scene)


class TestFrequencyGrid:
    def test_comb_structure(self):
        g = FrequencyGrid(f1=57e9, tones=256, delta=11.72e6)
        f = g.frequencies
        assert len(f) == 256
        assert f[0] == 57e9
        assert g.f_max - g.f1 == pytest.approx(255 * 11.72e6)
        assert g.center == pytest.approx(0.5 * (f[0] + f[-1]))

    def test_invalid_grid(self):
        with pytest.raises(ConfigError):
            FrequencyGrid(f1=0.0, tones=4, delta=1e6)
        with pytest.raises(ConfigError):
            FrequencyGrid(f1=1e9, tones=1, delta=1e6)

    @pytest.mark.parametrize("f1, delta", [(57e9, 11.72e6), (57e9, 3e9 / 31), (1.0, 0.2),
                                           (77e9 + 0.1, 1e-3)])
    def test_anchor_tones_and_period(self, f1, delta):
        # Bit for bit: the anchor tones two and four gaps below the comb, and
        # the beat period modulo which clocks are read.
        g = FrequencyGrid(f1=f1, tones=2, delta=delta)
        assert g.anchor_tones == (f1 - 2 * delta, f1 - 4 * delta)
        assert g.period == 1.0 / delta

    def test_signature_tones_must_be_positive(self):
        # f1 = 4 delta puts anchor b's lower tone at 0 Hz; just above, it is positive.
        with pytest.raises(ConfigError, match="^signature tones and delta must be positive$"):
            FrequencyGrid(f1=4 * REF_DELTA, tones=2, delta=REF_DELTA)
        assert FrequencyGrid(f1=5 * REF_DELTA, tones=2, delta=REF_DELTA).anchor_tones[1] > 0


class TestBounds:
    def test_max_range_reference_value(self):
        # Direct evaluation of c / delta.
        assert max_unambiguous_range(REF_DELTA) == pytest.approx(C / 11.72e6, rel=1e-12)
        assert max_unambiguous_range(REF_DELTA) == pytest.approx(25.58, abs=0.01)

    def test_max_range_scalings(self):
        assert max_unambiguous_range(C) == pytest.approx(1.0)
        assert max_unambiguous_range(REF_DELTA / 2) == pytest.approx(2 * max_unambiguous_range(REF_DELTA))

    def test_sync_spacing(self):
        assert sync_spacing_bound(REF_DELTA) == pytest.approx(C / (2 * 11.72e6), rel=1e-12)
        assert sync_spacing_bound(REF_DELTA) == pytest.approx(12.79, abs=0.01)
        assert sync_spacing_bound(2 * REF_DELTA) == pytest.approx(0.5 * sync_spacing_bound(REF_DELTA))
        # A 1 m aperture passes by a wide margin.
        assert 1.0 < sync_spacing_bound(REF_DELTA)

    def test_aperture_spacing_value(self):
        assert aperture_spacing_bound(58.5e9) == pytest.approx(C / (4 * 58.5e9), rel=1e-12)
        assert aperture_spacing_bound(58.5e9) == pytest.approx(1.281e-3, abs=1e-6)


class TestValidateScene:
    def test_reference_configuration_scaled_is_clean(self):
        # Dense aperture at the alias-free spacing: nothing to report.
        spacing = aperture_spacing_bound(REF_GRID.center) * 0.9
        sv = square_array(5, 4 * spacing)
        scene = small_scene(sv=sv)
        assert validate_scene(scene, REF_GRID) == []

    def test_sparse_aperture_warns_but_passes(self):
        scene = small_scene(sv=square_array(8, 1.0))
        warnings = validate_scene(scene, REF_GRID)
        assert any("alias-free" in w for w in warnings)

    def test_too_few_antennas_is_error(self):
        scene = small_scene(sv=square_array(4, 1.0)[:3])
        with pytest.raises(ConfigError, match="4 receive antennas"):
            validate_scene(scene, REF_GRID)

    def test_hidden_scene_needs_three_surfaces(self):
        surfaces = (ReflectionSurface.from_trace(1.0, 3.0),
                    ReflectionSurface.from_trace(0.3, 4.0))
        scene = small_scene(surfaces=surfaces, has_los=False)
        with pytest.raises(ConfigError, match="3 reflection surfaces"):
            validate_scene(scene, REF_GRID)

    def test_hidden_scene_without_surfaces_has_no_paths(self):
        # No line of sight and no surface: no image, so no range spread to
        # read, and the surface count is the one error.
        with pytest.raises(ConfigError) as raised:
            validate_scene(small_scene(has_los=False), REF_GRID)
        assert str(raised.value) == ("recovery without line of sight needs at least 3 "
                                     "reflection surfaces, got 0")

    def test_unwrap_bound_holds_for_consecutive_antennas(self):
        # Sync unwraps phases in antenna-index order.  Two 2x2 clusters 20 m
        # apart, listed alternately: every antenna's nearest neighbour is
        # 0.5 m away, but each step to the next antenna is 20-20.01 m, past
        # c/(2 delta) = 12.8 m.
        near = square_array(2, 0.5)
        sv = np.stack([near, near + [20.0, 0.0, 0.0]], axis=1).reshape(-1, 3)
        with pytest.raises(ConfigError) as raised:
            validate_scene(small_scene(sv=sv), REF_GRID)
        assert [e for e in str(raised.value).split("; ") if "phase-unwrap" in e] == [
            "consecutive antenna spacing 20.01 m exceeds the phase-unwrap bound 12.79 m"]
        # One cluster alone steps within the bound.
        validate_scene(small_scene(sv=near), REF_GRID)

    def test_transmitter_at_or_behind_the_array_is_error(self):
        # Sync folds a solution behind the planar array to its front, so an
        # antenna there, or its mirror image in a surface, cannot be located.
        on_array = small_scene(tv=np.array([[0.5, 0.1, 0.0], [-0.4, -0.2, 1.0]]))
        mirrored = small_scene(surfaces=(ReflectionSurface.from_trace(0.0, 4.0),))
        for scene in (on_array, mirrored):
            with pytest.raises(ConfigError, match="at or behind the receive array"):
                validate_scene(scene, REF_GRID)

    def test_range_spread_overflow(self):
        tv = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 40.0]])
        scene = small_scene(tv=tv)
        coarse = FrequencyGrid(f1=57e9, tones=16, delta=11.72e6)
        with pytest.raises(ConfigError, match="unambiguous range"):
            validate_scene(scene, coarse)
