"""Scene generator: determinism, truth-support construction, presets,
spec-file round trips."""

import math

import numpy as np
import pytest

from cloudseg import (
    CloudSpec,
    PRESETS,
    SceneSpec,
    ccs_cloud_mask,
    ccs_segment,
    deck,
    derive_truth_mask,
    generate_scene,
    make_preset,
    read_scene_spec,
    two_cloud_gap_scene,
    write_scene_spec,
)
from cloudseg.synth import TRUTH_DEPRESSION_K, WV_SMOOTH_SIGMA, _gaussian_blur


def single_cloud_spec(min_bt=265.0, noise=0.0, **kw):
    return SceneSpec(
        width=64, height=64,
        clouds=(CloudSpec(center=(32.0, 32.0), radius_px=6.0, min_bt=min_bt),),
        noise_sigma=noise, rng_seed=3, **kw,
    )


class TestGeneration:
    def test_bit_identical_regeneration(self):
        spec = make_preset("mixed", rng_seed=42)
        img1, vol1 = generate_scene(spec)
        img2, vol2 = generate_scene(spec)
        for (cid1, r1), (_, r2) in zip(img1.channels, img2.channels):
            np.testing.assert_array_equal(r1.values, r2.values)
        np.testing.assert_array_equal(vol1.values, vol2.values)

    def test_zero_clouds_is_flat_background_plus_noise(self):
        spec = SceneSpec(width=20, height=10, clouds=(), noise_sigma=0.0)
        img, vol = generate_scene(spec)
        np.testing.assert_array_equal(img.raster("ir_window").values, np.full((10, 20), 290.0))
        assert not derive_truth_mask(vol).flags.any()

    def test_single_warm_cloud_marks_a_disk_above_253(self):
        img, vol = generate_scene(single_cloud_spec())
        truth = derive_truth_mask(vol).flags
        assert truth.any() and not truth.all()
        ir = img.raster("ir_window").values
        assert (ir[truth] > 253.0).all()
        assert ir.min() == pytest.approx(265.0, abs=1e-6)

    def test_truth_equals_closed_form_support(self):
        spec = SceneSpec(
            width=48, height=40, noise_sigma=1.0, rng_seed=9,
            clouds=(
                CloudSpec(center=(16.0, 12.0), radius_px=4.0, min_bt=260.0),
                CloudSpec(center=(20.0, 30.0), radius_px=5.0, min_bt=230.0),
            ),
        )
        _, vol = generate_scene(spec)
        yy, xx = np.mgrid[0:40, 0:48].astype(float)
        expected = np.zeros((40, 48), dtype=bool)
        for cloud in spec.clouds:
            depth = 290.0 - cloud.min_bt
            d2 = (yy - cloud.center[0]) ** 2 + (xx - cloud.center[1]) ** 2
            expected |= depth * np.exp(-d2 / (2 * cloud.radius_px ** 2)) > TRUTH_DEPRESSION_K
        np.testing.assert_array_equal(derive_truth_mask(vol).flags, expected)

    def test_noise_changes_ir_only(self):
        spec = single_cloud_spec(noise=0.7, channels=("ir_window", "water_vapor"))
        img_a, _ = generate_scene(spec)
        import dataclasses
        img_b, _ = generate_scene(dataclasses.replace(spec, rng_seed=4))
        assert not np.array_equal(img_a.raster("ir_window").values, img_b.raster("ir_window").values)
        np.testing.assert_array_equal(
            img_a.raster("water_vapor").values, img_b.raster("water_vapor").values
        )

    def test_water_vapor_construction(self):
        from scipy.ndimage import gaussian_filter
        # on a 0 K background the noiseless IR channel is exactly minus the
        # depression (290 - (290 - d) may round), so the check can be exact
        spec = single_cloud_spec(min_bt=-25.0, channels=("ir_window", "water_vapor"), background_bt=0.0)
        img, _ = generate_scene(spec)
        depression = -img.raster("ir_window").values
        expected = 10.0 - 0.6 * gaussian_filter(depression, 2.0)
        np.testing.assert_array_equal(img.raster("water_vapor").values, expected)

    def test_volume_vertical_profile_is_triangular(self):
        _, vol = generate_scene(single_cloud_spec())
        support = vol.values.sum(axis=0).max(axis=0) > 0
        column = vol.values[:, :, support].sum(axis=0)  # (levels, n)
        peak = column[2]
        np.testing.assert_allclose(column[1], peak / 2)
        np.testing.assert_allclose(column[0], 0.0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (17, 40), (64, 64), (300, 211), (512, 512)])
def test_blur_equals_scipy_bit_for_bit(shape):
    # sides shorter than the kernel radius (8) exercise repeated reflection
    from scipy.ndimage import gaussian_filter
    values = np.random.default_rng(shape[0] * 1000 + shape[1]).normal(0.0, 10.0, size=shape)
    np.testing.assert_array_equal(_gaussian_blur(values), gaussian_filter(values, WV_SMOOTH_SIGMA))


class TestValidation:
    def test_centre_outside_grid(self):
        with pytest.raises(ValueError, match="outside"):
            SceneSpec(width=32, height=32,
                      clouds=(CloudSpec(center=(40.0, 10.0), radius_px=3.0, min_bt=260.0),))

    def test_min_bt_must_be_below_background(self):
        with pytest.raises(ValueError, match="below background"):
            SceneSpec(width=16, height=16,
                      clouds=(CloudSpec(center=(8.0, 8.0), radius_px=3.0, min_bt=295.0),))

    def test_peak_must_clear_truth_threshold(self):
        with pytest.raises(ValueError, match="hydrometeor_peak"):
            CloudSpec(center=(1.0, 1.0), radius_px=2.0, min_bt=260.0, hydrometeor_peak=1e-7)

    def test_unknown_channel(self):
        with pytest.raises(ValueError, match="unknown channel"):
            SceneSpec(width=8, height=8, channels=("visible",))

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            SceneSpec(width=8, height=8, noise_sigma=-0.1)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise(self, noise):
        with pytest.raises(ValueError, match="noise"):
            SceneSpec(width=8, height=8, noise_sigma=noise)


class TestPresets:
    def test_registry(self):
        assert set(PRESETS) == {"warm_stratiform", "wyoming_like", "harvey_like", "mixed"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_preset("tornado")

    def test_warm_preset_has_no_cold_pixels_noiseless(self):
        img, _ = generate_scene(make_preset("warm_stratiform", noise_sigma=0.0))
        assert img.raster("ir_window").values.min() > 253.0

    def test_warm_preset_defeats_threshold_growing(self):
        img, vol = generate_scene(make_preset("warm_stratiform", noise_sigma=0.0))
        mask = ccs_cloud_mask(ccs_segment(img.raster("ir_window")))
        assert not mask.flags.any()
        assert derive_truth_mask(vol).flags.any()

    def test_gap_scene_geometry(self):
        img, _ = generate_scene(two_cloud_gap_scene())
        v = img.raster("ir_window").values
        assert 253.0 < v[96, 192] < 258.0          # warm bridge bottleneck
        assert v.min() > 235.0                      # junction dips stay bounded
        assert abs(v[96, 131] - 250.0) < 1.5        # deck plateau near its target

    def test_deck_overlap_compensation(self):
        clouds = deck((40.0, 40.0), 20.0, 262.0)
        spec = SceneSpec(width=80, height=80, clouds=tuple(clouds), noise_sigma=0.0)
        img, _ = generate_scene(spec)
        centre_bt = img.raster("ir_window").values[40, 40]
        assert abs(centre_bt - 262.0) < 1.5


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = SceneSpec(
            width=48, height=36, background_bt=288.5,
            channels=("ir_window", "water_vapor"), noise_sigma=0.25, rng_seed=77,
            clouds=(
                CloudSpec(center=(10.5, 20.25), radius_px=3.75, min_bt=261.125),
                CloudSpec(center=(30.0, 12.0), radius_px=5.0, min_bt=214.0, hydrometeor_peak=3e-4),
            ),
        )
        path = tmp_path / "scene.spec"
        write_scene_spec(spec, path)
        back = read_scene_spec(path)
        assert back == spec
        img_a, vol_a = generate_scene(spec)
        img_b, vol_b = generate_scene(back)
        np.testing.assert_array_equal(img_a.raster("ir_window").values, img_b.raster("ir_window").values)
        np.testing.assert_array_equal(vol_a.values, vol_b.values)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("# a scene\n\nwidth = 8\nheight = 6\n")
        spec = read_scene_spec(path)
        assert (spec.width, spec.height) == (8, 6)
        assert spec.clouds == ()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("width = 8\nheight = 6\nwetness = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_scene_spec(path)

    def test_cloud_indices_must_be_dense(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text(
            "width = 8\nheight = 6\n"
            "cloud.1.center_row = 2\ncloud.1.center_col = 2\n"
            "cloud.1.radius_px = 1\ncloud.1.min_bt = 260\n"
        )
        with pytest.raises(ValueError, match="0..N-1"):
            read_scene_spec(path)

    def test_missing_required_scalar(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("width = 8\n")
        with pytest.raises(ValueError, match="height"):
            read_scene_spec(path)
