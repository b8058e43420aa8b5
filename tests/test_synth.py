"""Scene generator: determinism, truth-support construction, presets,
spec-file round trips."""

import dataclasses
import math
import re

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cloudseg import synth
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
from cloudseg.synth import _TAIL_CUTOFF_K, TRUTH_DEPRESSION_K, WV_SMOOTH_SIGMA, _gaussian_blur
from cloudseg.verification import MIXING_RATIO_THRESHOLD


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


def scene_bytes(spec):
    image, volume = generate_scene(spec)
    return [raster.values.tobytes() for _, raster in image.channels] + [volume.values.tobytes()]


def assert_renders_like_reference(spec):
    """The run renderer's planes, and generate_scene's channel and volume bytes,
    equal those of the one-cloud-at-a-time reference."""
    expected = oracles.render_reference(spec)
    assert [plane.tobytes() for plane in synth._render(spec)] == [plane.tobytes() for plane in expected]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(synth, "_render", lambda _: expected)
        implied = scene_bytes(spec)
    assert scene_bytes(spec) == implied


def _border_rows(height, width):
    """Identical clouds strung along each border, so every run is clipped."""
    clouds = []
    for col in range(2, width - 2, 3):
        clouds += [CloudSpec((0.0, col), 1.6, 255.0), CloudSpec((height - 1.0, col), 1.6, 255.0)]
    for row in range(2, height - 2, 3):
        clouds += [CloudSpec((row, 0.0), 2.5, 220.0), CloudSpec((row, width - 1.0), 2.5, 220.0)]
    corners = [(0.0, 0.0), (0.0, width - 1.0), (height - 1.0, 0.0), (height - 1.0, width - 1.0)]
    return clouds + [CloudSpec(c, 4.0, 230.0) for c in corners]


def _cutoff_clouds(bg):
    """Clouds whose depth is one to three ulps either side of _TAIL_CUTOFF_K."""
    centre = bg - _TAIL_CUTOFF_K
    down, up = [centre], [centre]
    for _ in range(3):
        down.append(math.nextafter(down[-1], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    min_bts = sorted(set(down + up))
    depths = [bg - m for m in min_bts]
    assert min(depths) <= _TAIL_CUTOFF_K < max(depths)
    return [CloudSpec((5.0 + i, 3.5 + 2 * i), 1.6, m) for i, m in enumerate(min_bts)]


_REFERENCE_CASES = {
    **{name: make_preset(name, rng_seed=7) for name in sorted(PRESETS)},
    "gap": two_cloud_gap_scene(),
    "deck_512": SceneSpec(   # its big deck's run fills several 2 ** 17-entry stacks
        width=512, height=520, channels=("ir_window", "water_vapor"), rng_seed=11,
        clouds=tuple(deck((260.0, 250.0), 150.0, 262.0) + deck((90.0, 420.0), 40.0, 212.0)),
    ),
    "borders": SceneSpec(width=41, height=37, clouds=tuple(_border_rows(37, 41)),
                         channels=("ir_window", "water_vapor")),
    "one_by_one": SceneSpec(width=1, height=1, clouds=(CloudSpec((0.0, 0.0), 2.0, 250.0),)),
    "one_by_one_empty": SceneSpec(width=1, height=1),
    "no_clouds": SceneSpec(width=23, height=9, channels=("ir_window", "water_vapor")),
    "tail_cutoff": SceneSpec(width=20, height=16, noise_sigma=0.0,
                             clouds=tuple(_cutoff_clouds(290.0) + [CloudSpec((8.0, 8.0), 2.0, 250.0)])),
    "window_covers_scene": SceneSpec(width=384, height=400, clouds=(CloudSpec((200.0, 190.0), 80.0, 215.0),),
                                     channels=("ir_window", "water_vapor")),
}


class TestRunRendering:
    @pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
    def test_equals_one_cloud_at_a_time(self, name):
        assert_renders_like_reference(_REFERENCE_CASES[name])

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        groups=st.lists(st.tuples(
            st.integers(1, 6),                                   # clouds in the group
            st.sampled_from([0.6, 1.6, 2.5]),                    # radius_px
            st.sampled_from([200.0, 240.0, 253.0, 254.0, 270.0, 289.5]),   # min_bt, cold and warm
            st.sampled_from([2e-4, 3.5e-4]),                     # hydrometeor_peak
            st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans()),
                     min_size=6, max_size=6),                    # positions, on the grid or not
        ), max_size=8),
        run_entries=st.sampled_from([1, 40, 2 ** 17]),
    )
    def test_random_runs_equal_reference(self, size, groups, run_entries):
        height, width = size
        clouds = []
        for count, radius, min_bt, peak, positions in groups:
            for u, v, on_grid in positions[:count]:
                row, col = u * (height - 1), v * (width - 1)
                if on_grid:
                    row, col = float(round(row)), float(round(col))
                clouds.append(CloudSpec((row, col), radius, min_bt, peak))
        spec = SceneSpec(width=width, height=height, clouds=tuple(clouds),
                         channels=("ir_window", "water_vapor"), noise_sigma=0.3, rng_seed=len(clouds))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(synth, "_RUN_ENTRIES", run_entries)
            assert_renders_like_reference(spec)


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

    @pytest.mark.parametrize("field, kwargs", [
        ("center", dict(center=(math.nan, 1.0))),
        ("center", dict(center=(1.0, math.inf))),
        ("radius_px", dict(radius_px=math.inf)),
        ("radius_px", dict(radius_px=math.nan)),
        ("radius_px", dict(radius_px=1e300)),       # radius_px ** 2 overflows
        ("radius_px", dict(radius_px=1e154)),       # 2 * radius_px ** 2 overflows
        ("radius_px", dict(radius_px=1e-200)),      # radius_px ** 2 underflows to 0
        ("radius_px", dict(radius_px=1e-160)),      # subnormal: dist2 / denominator overflows
        ("radius_px", dict(radius_px=0.0)),
        ("radius_px", dict(radius_px=-2.0)),
        ("min_bt", dict(min_bt=-math.inf)),
        ("min_bt", dict(min_bt=math.nan)),
        ("hydrometeor_peak", dict(hydrometeor_peak=math.inf)),
        ("hydrometeor_peak", dict(hydrometeor_peak=math.nan)),
    ])
    def test_non_finite_or_overflowing_cloud_field(self, field, kwargs):
        args = dict(center=(1.0, 1.0), radius_px=2.0, min_bt=260.0) | kwargs
        with pytest.raises(ValueError, match=field):
            CloudSpec(**args)

    @pytest.mark.parametrize("background", [math.inf, -math.inf, math.nan])
    def test_non_finite_background(self, background):
        with pytest.raises(ValueError, match="background_bt"):
            SceneSpec(width=8, height=8, background_bt=background)

    def test_depth_must_be_finite(self):
        with pytest.raises(ValueError, match="below background"):
            SceneSpec(width=8, height=8, background_bt=1e308,
                      clouds=(CloudSpec(center=(1.0, 1.0), radius_px=2.0, min_bt=-1e308),))

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

    @pytest.mark.parametrize("key", ["width", "cloud.0.min_bt"])
    def test_repeated_key_rejected(self, tmp_path, key):
        path = tmp_path / "s.spec"
        path.write_text(
            "width = 8\nheight = 6\n"
            "cloud.0.center_row = 2\ncloud.0.center_col = 3\n"
            f"cloud.0.radius_px = 1\ncloud.0.min_bt = 260\n{key} = 7\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"s.spec:7: duplicate key '{key}'")):
            read_scene_spec(path)

    @pytest.mark.parametrize("key, value", [("width", "8x"), ("noise_sigma", "cold"), ("rng_seed", "1.5")])
    def test_malformed_scalar_names_file_and_key(self, tmp_path, key, value):
        path = tmp_path / "s.spec"
        fields = {"width": 8, "height": 6} | {key: value}
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        with pytest.raises(ValueError, match=re.escape(f"s.spec: {key}: ")):
            read_scene_spec(path)

    def test_channel_list_may_have_spaces(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("width = 8\nheight = 6\nchannels = ir_window, water_vapor\n")
        assert read_scene_spec(path).channels == ("ir_window", "water_vapor")

    def test_left_out_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text(
            "width = 8\nheight = 6\n"
            "cloud.0.center_row = 2\ncloud.0.center_col = 3\n"
            "cloud.0.radius_px = 1\ncloud.0.min_bt = 260\n"
        )
        want = SceneSpec(width=8, height=6, clouds=(CloudSpec(center=(2, 3), radius_px=1, min_bt=260),))
        assert read_scene_spec(path) == want

    def test_file_keys_cover_every_spec_field(self):
        # a field the file format leaves out could never be read back
        assert {f.name for f in dataclasses.fields(SceneSpec)} == {*synth._SCALAR_KEYS, "clouds"}
        cloud_fields = [f.name for f in dataclasses.fields(CloudSpec)]
        assert synth._CLOUD_FIELDS == ("center_row", "center_col", *cloud_fields[1:])
        assert cloud_fields[0] == "center"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_write_then_read_is_identity(self, tmp_path, data):
        width, height = data.draw(st.integers(1, 2 ** 40)), data.draw(st.integers(1, 2 ** 40))
        background_bt = data.draw(st.floats(-1e306, 1e307))
        cloud = st.builds(
            CloudSpec,
            center=st.tuples(st.floats(0, height - 1), st.floats(0, width - 1)),
            radius_px=st.floats(1e-150, 1e150),
            # min_bt strictly below the background by a finite depth
            min_bt=st.floats(-1e307, background_bt, exclude_max=True),
            hydrometeor_peak=st.floats(MIXING_RATIO_THRESHOLD, exclude_min=True, allow_infinity=False),
        )
        spec = SceneSpec(
            width=width, height=height, background_bt=background_bt,
            channels=data.draw(st.sampled_from([("ir_window",), ("water_vapor",),
                                                ("ir_window", "water_vapor"),
                                                ("water_vapor", "ir_window")])),
            noise_sigma=data.draw(st.floats(0, allow_infinity=False)),
            rng_seed=data.draw(st.integers(0, 2 ** 64 - 1)),
            clouds=data.draw(st.lists(cloud, max_size=5)),
        )
        path = tmp_path / "scene.spec"
        write_scene_spec(spec, path)
        assert read_scene_spec(path) == spec
