"""Morphology operators against the naive clipped-window oracle."""

import time
import tracemalloc

import numpy as np
import pytest

import oracles
from cloudseg import morphology
from cloudseg import (
    GradientConfig,
    MultiChannelImage,
    Raster2D,
    StructuringElement,
    Units,
    dilate,
    erode,
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
    """The single-scale gradient, dilation minus erosion over the 3x3 square."""

    ONE_SCALE = GradientConfig(n_scales=1)

    def test_ramp_example(self):
        out = multiscale_gradient(RAMP, self.ONE_SCALE)
        np.testing.assert_array_equal(out.values, [[4, 5, 4], [7, 8, 7], [4, 5, 4]])

    def test_constant_gives_zero_field(self):
        out = multiscale_gradient(Raster2D(np.full((4, 4), 3.0)), self.ONE_SCALE)
        assert not out.values.any()

    def test_single_bright_pixel_support(self):
        f = np.zeros((7, 7))
        f[3, 3] = 9.0
        out = multiscale_gradient(Raster2D(f), self.ONE_SCALE).values
        expected_support = np.zeros((7, 7), dtype=bool)
        expected_support[2:5, 2:5] = True
        np.testing.assert_array_equal(out > 0, expected_support)


class TestMultiscaleGradient:
    def test_single_scale_collapses_to_plain_gradient(self, rng):
        f = Raster2D(rng.normal(size=(8, 8)))
        a = multiscale_gradient(f, GradientConfig(n_scales=1)).values
        b = dilate(f, StructuringElement(1)).values - erode(f, StructuringElement(1)).values
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
            n = k % 20 + 1 if k % 3 == 0 else k % 6 + 1  # a third of the grids go beyond their side
            got = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=n)).values
            np.testing.assert_array_equal(got, oracles.multiscale_reference(f, n), err_msg=repr(f))

    def test_row_strips_match_oracle(self, monkeypatch):
        """Strips of 1-3 rows put a strip edge beside nearly every row, so a
        halo one row short of 2n - 1 fails here."""
        rng = np.random.default_rng(1717)
        kinds = (
            lambda h, w: rng.integers(0, 4, size=(h, w)).astype(float),  # plateaus and ties
            lambda h, w: rng.normal(size=(h, w)) * 30,
            lambda h, w: (rng.normal(size=(h, w)) * 64).astype(np.float32).astype(float),
        )

        def normalized(field):
            return field / field.max() if field.max() > 0 else field

        for k in range(80):  # sides 1..40, each twice; n cycles 1..8 and the kinds cycle
            h, w, n = k // 2 + 1, int(rng.integers(1, 13)), k % 8 + 1
            rows, normalize = int(rng.integers(1, 4)), bool(rng.integers(2))
            f, g = kinds[k % 3](h, w), kinds[(k + 1) % 3](h, w)
            want = [oracles.multiscale_reference(v, n) for v in (f, g)]
            if normalize:
                want = [normalized(v) for v in want]
            monkeypatch.setattr(morphology, "_STRIP_BYTES", rows * 8 * w)
            img = MultiChannelImage((("f", Raster2D(f)), ("g", Raster2D(g))))
            got = multispectral_gradient(img, GradientConfig(n_scales=n, normalize_channels=normalize)).values
            np.testing.assert_array_equal(got, want[0] + want[1],
                                          err_msg=f"{h}x{w}, n={n}, {rows}-row strips, normalize={normalize}")

    def test_scales_have_no_superlinear_blowup(self):
        """Erosions stop at the raster's size, so 400 scales on 16 x 16 cost
        400 short runs of steps, not 80,000 steps."""
        f = np.random.default_rng(400).normal(size=(16, 16))
        start = time.perf_counter()
        got = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=400)).values
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"400 scales on 16 x 16: {elapsed:.2f} s"
        # from scale 15 on, a window covers the raster: each term is max - min
        first = multiscale_gradient(Raster2D(f), GradientConfig(n_scales=40)).values
        np.testing.assert_allclose(got * 400, first * 40 + 360 * (f.max() - f.min()), rtol=1e-12)

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


def test_gradient_memory_is_its_output_and_one_strip():
    """Two 1024 x 1024 channels: the output, one channel's field and one
    strip's working set are alive at once, about 2.5 planes, where whole
    planes for every step reached 7."""
    rng = np.random.default_rng(1024)
    img = MultiChannelImage(tuple(
        (cid, Raster2D(rng.normal(250.0, 10.0, size=(1024, 1024)), Units.KELVIN)) for cid in ("a", "b")
    ))
    plane = 1024 * 1024 * 8
    for normalize in (False, True):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            multispectral_gradient(img, GradientConfig(normalize_channels=normalize))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * plane, f"normalize={normalize}: {peak / plane:.2f} planes"
