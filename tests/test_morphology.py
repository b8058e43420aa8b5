"""Morphology operators against the naive clipped-window oracle."""

import numpy as np
import pytest

import oracles
from cloudseg import (
    GradientConfig,
    MultiChannelImage,
    Raster2D,
    StructuringElement,
    Units,
    dilate,
    erode,
    morphological_gradient,
    multiscale_gradient,
    multispectral_gradient,
)

RAMP = Raster2D([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]], Units.KELVIN)


class TestDilateErode:
    def test_dilate_ramp_radius_one(self):
        out = dilate(RAMP, StructuringElement(1))
        np.testing.assert_array_equal(out.values, [[5, 6, 6], [8, 9, 9], [8, 9, 9]])
        np.testing.assert_array_equal(out.values, oracles.window_max(RAMP.values, 1))

    def test_erode_ramp_radius_one(self):
        out = erode(RAMP, StructuringElement(1))
        np.testing.assert_array_equal(out.values, [[1, 1, 2], [1, 1, 2], [4, 4, 5]])
        np.testing.assert_array_equal(out.values, oracles.window_min(RAMP.values, 1))

    def test_constant_raster_is_fixed_point(self):
        const = Raster2D(np.full((5, 4), 7.25))
        for radius in (0, 1, 3):
            np.testing.assert_array_equal(dilate(const, StructuringElement(radius)).values, const.values)
            np.testing.assert_array_equal(erode(const, StructuringElement(radius)).values, const.values)

    def test_radius_zero_is_identity(self, rng):
        f = Raster2D(rng.normal(size=(6, 7)))
        np.testing.assert_array_equal(dilate(f, StructuringElement(0)).values, f.values)
        np.testing.assert_array_equal(erode(f, StructuringElement(0)).values, f.values)

    def test_units_preserved(self):
        assert dilate(RAMP, StructuringElement(1)).units is Units.KELVIN

    def test_duality_exact(self, rng):
        for _ in range(20):
            f = rng.normal(size=(9, 8))
            radius = int(rng.integers(1, 4))
            se = StructuringElement(radius)
            lhs = dilate(Raster2D(f), se).values
            rhs = -erode(Raster2D(-f), se).values
            np.testing.assert_array_equal(lhs, rhs)

    def test_ordering_and_scale_extensivity(self, rng):
        f = Raster2D(rng.normal(size=(10, 10)))
        prev_d = f.values
        prev_e = f.values
        for radius in (1, 2, 3):
            d = dilate(f, StructuringElement(radius)).values
            e = erode(f, StructuringElement(radius)).values
            assert (e <= f.values).all() and (f.values <= d).all()
            assert (d >= prev_d).all() and (e <= prev_e).all()
            prev_d, prev_e = d, e

    def test_matches_oracle_on_random_rasters(self, rng):
        for k in range(700):
            h, w = rng.integers(1, 17, size=2)
            if k % 2:
                f = rng.integers(0, 4, size=(h, w)).astype(float)  # plateaus and ties
            else:
                f = rng.normal(size=(h, w)) * 50
            radius = k % 7
            se = StructuringElement(radius)
            np.testing.assert_array_equal(dilate(Raster2D(f), se).values, oracles.window_max(f, radius))
            np.testing.assert_array_equal(erode(Raster2D(f), se).values, oracles.window_min(f, radius))


class TestMorphologicalGradient:
    def test_ramp_example(self):
        out = morphological_gradient(RAMP, StructuringElement(1))
        np.testing.assert_array_equal(out.values, [[4, 5, 4], [7, 8, 7], [4, 5, 4]])

    def test_constant_gives_zero_field(self):
        out = morphological_gradient(Raster2D(np.full((4, 4), 3.0)), StructuringElement(2))
        assert not out.values.any()

    def test_rejects_radius_zero(self):
        with pytest.raises(ValueError, match="radius"):
            morphological_gradient(RAMP, StructuringElement(0))

    def test_single_bright_pixel_support(self):
        f = np.zeros((7, 7))
        f[3, 3] = 9.0
        out = morphological_gradient(Raster2D(f), StructuringElement(1)).values
        expected_support = np.zeros((7, 7), dtype=bool)
        expected_support[2:5, 2:5] = True
        np.testing.assert_array_equal(out > 0, expected_support)


class TestMultiscaleGradient:
    def test_single_scale_collapses_to_plain_gradient(self, rng):
        f = Raster2D(rng.normal(size=(8, 8)))
        a = multiscale_gradient(f, GradientConfig(n_scales=1)).values
        b = morphological_gradient(f, StructuringElement(1)).values
        np.testing.assert_array_equal(a, b)

    def test_constant_is_zero_for_default_scales(self):
        out = multiscale_gradient(Raster2D(np.full((9, 9), 250.0)))
        assert not out.values.any()

    def test_three_scale_oracle_composition(self, rng):
        f = rng.normal(size=(12, 12)) * 30
        got = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=3)).values
        want = oracles.multiscale_reference(f, 3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_oracle_on_2000_grids(self):
        rng = np.random.default_rng(1107)
        for k in range(2000):
            h, w = (int(v) for v in rng.integers(1, 10, size=2))
            if k % 2:
                f = rng.integers(0, 4, size=(h, w)).astype(float)  # plateaus and ties
            else:
                f = rng.normal(size=(h, w)) * 30
            n = k % 6 + 1
            got = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=n)).values
            np.testing.assert_array_equal(got, oracles.multiscale_reference(f, n), err_msg=repr(f))

    def test_non_negative(self, rng):
        f = Raster2D(rng.normal(size=(15, 15)) * 100)
        assert multiscale_gradient(f).values.min() >= 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradientConfig(n_scales=0)


class TestMultispectralGradient:
    def _img(self, *channel_values):
        return MultiChannelImage(tuple(
            (f"c{i}", Raster2D(v, Units.KELVIN)) for i, v in enumerate(channel_values)
        ))

    def test_single_channel_identity(self, rng):
        f = rng.normal(size=(10, 10))
        got = multispectral_gradient(self._img(f), GradientConfig(n_scales=3)).values
        want = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=3)).values
        np.testing.assert_array_equal(got, want)

    def test_identical_channels_double(self, rng):
        f = rng.normal(size=(10, 10))
        single = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=2)).values
        both = multispectral_gradient(self._img(f, f), GradientConfig(n_scales=2)).values
        np.testing.assert_array_equal(both, 2 * single)

    def test_distinct_channels_sum(self, rng):
        f = rng.normal(size=(9, 11))
        g = rng.normal(size=(9, 11))
        cfg = GradientConfig(n_scales=2)
        want = multiscale_gradient(Raster2D(f), cfg).values + multiscale_gradient(Raster2D(g), cfg).values
        got = multispectral_gradient(self._img(f, g), cfg).values
        np.testing.assert_array_equal(got, want)

    def test_normalized_channels(self, rng):
        f = rng.normal(size=(8, 8)) * 4
        g = rng.normal(size=(8, 8)) * 40
        cfg = GradientConfig(n_scales=2, normalize_channels=True)
        a = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=2)).values
        b = multiscale_gradient(Raster2D(g), GradientConfig(n_scales=2)).values
        want = a / a.max() + b / b.max()
        np.testing.assert_array_equal(multispectral_gradient(self._img(f, g), cfg).values, want)

    def test_normalization_skips_flat_channel(self, rng):
        flat = np.full((6, 6), 300.0)
        varying = rng.normal(size=(6, 6))
        cfg = GradientConfig(n_scales=2, normalize_channels=True)
        out = multispectral_gradient(self._img(flat, varying), cfg).values
        base = multiscale_gradient(Raster2D(varying), GradientConfig(n_scales=2)).values
        np.testing.assert_array_equal(out, base / base.max())
