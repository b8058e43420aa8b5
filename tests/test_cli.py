"""Command-line surface: wiring, exit codes, determinism."""

import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cloudseg
from cloudseg import (
    PRESETS,
    CcsConfig,
    CloudMask,
    GradientConfig,
    MultiChannelImage,
    Raster2D,
    SceneSpec,
    SegmentMap,
    Units,
    classify_regions,
    deck,
    derive_truth_mask,
    generate_markers,
    generate_scene,
    make_preset,
    merge_small_regions,
    otsu_threshold,
    read_cloud_mask,
    read_raster_file,
    read_segment_map,
    write_raster_file,
    write_scene_spec,
)
from cloudseg.cli import build_parser, main
from cloudseg.verification import MIXING_RATIO_THRESHOLD


def run(*args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def synth(tmp_path, preset="mixed", seed=42, noise=None, stem="scene", spec=None):
    scene = tmp_path / f"{stem}.gms1"
    volume = tmp_path / f"{stem}.gmsv"
    source = ["--spec", spec] if spec is not None else ["--preset", preset]
    args = ["synth", *source, "--seed", seed,
            "--scene-output", scene, "--volume-output", volume]
    if noise is not None:
        args += ["--noise-sigma", noise]
    assert run(*args) == 0
    return scene, volume


class TestSynth:
    def test_preset_is_deterministic(self, tmp_path):
        s1, v1 = synth(tmp_path, stem="a")
        s2, v2 = synth(tmp_path, stem="b")
        assert s1.read_bytes() == s2.read_bytes()
        assert v1.read_bytes() == v2.read_bytes()

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run("synth", "--preset", "blizzard",
                   "--scene-output", tmp_path / "s", "--volume-output", tmp_path / "v") == 64

    def test_spec_file_source(self, tmp_path):
        spec = SceneSpec(width=32, height=24, noise_sigma=0.0, rng_seed=5)
        spec_path = tmp_path / "scene.spec"
        write_scene_spec(spec, spec_path)
        scene = tmp_path / "s.gms1"
        assert run("synth", "--spec", spec_path, "--scene-output", scene,
                   "--volume-output", tmp_path / "v.gmsv") == 0
        img = read_raster_file(scene)
        assert (img.height, img.width) == (24, 32)

    @pytest.mark.parametrize("line, named", [
        ("noise_sigma = nan", "noise_sigma"),
        ("cloud.0.profile = gaussian", "cloud.0.profile"),
        ("cloud.0.min_bt = 250", "duplicate key 'cloud.0.min_bt'"),
        ("rng_seed = 8x", "scene.spec: rng_seed: invalid literal"),
    ], ids=["nan-noise", "profile-key", "repeated-cloud-key", "malformed-scalar"])
    def test_bad_spec_file_exits_2(self, tmp_path, capsys, line, named):
        spec_path = tmp_path / "scene.spec"
        spec_path.write_text(
            "width = 8\nheight = 6\ncloud.0.center_row = 3\ncloud.0.center_col = 4\n"
            f"cloud.0.radius_px = 1.5\ncloud.0.min_bt = 260\n{line}\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        assert run("synth", "--spec", spec_path, "--scene-output", out / "s.gms1",
                   "--volume-output", out / "v.gmsv") == 2
        assert list(out.iterdir()) == []
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        ("cloud.0.radius_px", "inf", "radius_px"),
        ("cloud.0.radius_px", "1e300", "radius_px"),
        ("cloud.0.radius_px", "1e-200", "radius_px"),
        ("cloud.0.radius_px", "nan", "radius_px"),
        ("cloud.0.min_bt", "-inf", "min_bt"),
        ("cloud.0.min_bt", "nan", "min_bt"),
        ("cloud.0.center_row", "nan", "center"),
        ("cloud.0.hydrometeor_peak", "inf", "hydrometeor_peak"),
        # finite in float64, so the spec is valid; the f32 volume write fails
        ("cloud.0.hydrometeor_peak", "1e300", "level 1"),
        ("background_bt", "inf", "background_bt"),
    ])
    def test_non_finite_or_overflowing_spec_field_exits_2(self, tmp_path, capsys, key, value, named):
        fields = {"width": "8", "height": "6", "cloud.0.center_row": "3", "cloud.0.center_col": "4",
                  "cloud.0.radius_px": "1.5", "cloud.0.min_bt": "260", key: value}
        spec_path = tmp_path / "scene.spec"
        spec_path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        out = tmp_path / "out"
        out.mkdir()
        assert run("synth", "--spec", spec_path, "--scene-output", out / "s.gms1",
                   "--volume-output", out / "v.gmsv") == 2
        assert list(out.iterdir()) == []
        assert named in capsys.readouterr().err

    def test_scene_past_the_codec_cap_exits_2_before_rendering(self, tmp_path, capsys):
        # 5 levels x 5 species x 16384**2 is past the 2**31 elements the codec
        # reads back; the spec is refused, so no plane is ever allocated
        spec_path = tmp_path / "scene.spec"
        spec_path.write_text("width = 16384\nheight = 16384\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run("synth", "--spec", spec_path, "--scene-output", out / "s.gms1",
                   "--volume-output", out / "v.gmsv") == 2
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err == (
            "cloudseg: 16384x16384 scene: its volume of 6710886400 elements exceeds the 2147483648-element cap\n")

    def test_seed_override_changes_noise(self, tmp_path):
        a, _ = synth(tmp_path, seed=1, stem="a")
        b, _ = synth(tmp_path, seed=2, stem="b")
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("noise", [None, 0.25])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_and_its_spec_file_agree(self, tmp_path, preset, noise):
        spec_path = tmp_path / "preset.spec"
        write_scene_spec(make_preset(preset), spec_path)
        from_preset = synth(tmp_path, preset=preset, seed=5, noise=noise, stem="preset")
        from_spec = synth(tmp_path, seed=5, noise=noise, stem="spec", spec=spec_path)
        for a, b in zip(from_preset, from_spec):
            assert a.read_bytes() == b.read_bytes()


class TestGradient:
    def test_writes_single_nonnegative_channel(self, tmp_path):
        scene, _ = synth(tmp_path, preset="wyoming_like")
        out = tmp_path / "grad.gms1"
        assert run("gradient", "--input", scene, "--scales", 5,
                   "--channels", "ir_window", "--output", out) == 0
        grad = read_raster_file(out)
        assert grad.channel_ids == ("gradient",)
        assert grad.raster("gradient").values.min() >= 0.0

    def test_scales_zero_is_usage_error(self, tmp_path):
        assert run("gradient", "--input", "x", "--output", "y", "--scales", 0) == 64

    def test_constant_scene_gives_all_zero_gradient(self, tmp_path):
        scene = tmp_path / "flat.gms1"
        write_raster_file(MultiChannelImage(
            (("ir_window", Raster2D(np.full((16, 16), 290.0), Units.KELVIN)),)
        ), scene)
        out = tmp_path / "grad.gms1"
        assert run("gradient", "--input", scene, "--output", out) == 0
        assert not read_raster_file(out).raster("gradient").values.any()

    def test_missing_input_exits_2(self, tmp_path):
        assert run("gradient", "--input", tmp_path / "nope.gms1", "--output", tmp_path / "o") == 2

    def test_bad_magic_exits_2(self, tmp_path):
        bad = tmp_path / "bad.gms1"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run("gradient", "--input", bad, "--output", tmp_path / "o") == 2

    def test_gradient_beyond_f32_range_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "steep.gms1"
        bt = Raster2D(np.array([[-3e38, 3e38], [3e38, -3e38]]), Units.KELVIN)
        write_raster_file(MultiChannelImage((("ir_window", bt),)), scene)
        out = tmp_path / "out"
        out.mkdir()
        assert run("gradient", "--input", scene, "--output", out / "g.gms1") == 2
        assert list(out.iterdir()) == []
        assert "channel 'gradient'" in capsys.readouterr().err

    def test_unknown_channel_exits_2(self, tmp_path, capsys):
        scene, _ = synth(tmp_path, preset="mixed")
        assert run("gradient", "--input", scene, "--channels", "visible",
                   "--output", tmp_path / "o") == 2
        have = read_raster_file(scene).channel_ids
        assert capsys.readouterr().err == f"cloudseg: no channel 'visible' (have {have})\n"


class TestSegment:
    def test_mixed_scene_produces_nonempty_mask_and_stats(self, tmp_path):
        scene, volume = synth(tmp_path)
        seg_p, mask_p, stats_p = tmp_path / "seg.gms1", tmp_path / "mask.gms1", tmp_path / "stats.csv"
        assert run("segment", "--input", scene, "--segments-output", seg_p,
                   "--mask-output", mask_p, "--stats-output", stats_p) == 0
        seg = read_segment_map(seg_p)
        mask = read_cloud_mask(mask_p)
        assert seg.count >= 2
        assert 0 < mask.cloud_count < mask.flags.size
        lines = stats_p.read_text().splitlines()
        assert lines[0] == "label,area,mean_bt,min_bt,mean_gradient,is_cloud"
        assert len(lines) == seg.count + 1

    def test_byte_identical_reruns(self, tmp_path):
        scene, _ = synth(tmp_path)
        outs = {}
        for tag in ("x", "y"):
            seg_p = tmp_path / f"seg_{tag}.gms1"
            mask_p = tmp_path / f"mask_{tag}.gms1"
            stats_p = tmp_path / f"stats_{tag}.csv"
            assert run("segment", "--input", scene, "--segments-output", seg_p,
                       "--mask-output", mask_p, "--stats-output", stats_p) == 0
            outs[tag] = (seg_p.read_bytes(), mask_p.read_bytes(), stats_p.read_bytes())
        assert outs["x"] == outs["y"]

    def test_constant_scene_is_algorithmic_error(self, tmp_path):
        scene = tmp_path / "flat.gms1"
        write_raster_file(MultiChannelImage(
            (("ir_window", Raster2D(np.full((12, 12), 290.0), Units.KELVIN)),)
        ), scene)
        code = run("segment", "--input", scene, "--segments-output", tmp_path / "s",
                   "--mask-output", tmp_path / "m", "--stats-output", tmp_path / "c")
        assert code == 3

    @pytest.mark.parametrize("scene_kind", ["two_channel", "constant"])
    def test_unknown_bt_channel_exits_2_before_the_gradient(self, tmp_path, capsys, monkeypatch, scene_kind):
        if scene_kind == "constant":  # a constant field used to exit 3 at Otsu first
            scene = tmp_path / "flat.gms1"
            write_raster_file(MultiChannelImage(
                (("ir_window", Raster2D(np.full((12, 12), 290.0), Units.KELVIN)),)
            ), scene)
        else:
            scene, _ = synth(tmp_path, preset="wyoming_like")
        have = read_raster_file(scene).channel_ids

        def no_gradient(*args):
            raise AssertionError("the gradient ran")

        monkeypatch.setattr(cloudseg.cli, "multispectral_gradient", no_gradient)
        out = tmp_path / "out"
        out.mkdir()
        code = run("segment", "--input", scene, "--bt-channel", "visible", "--segments-output", out / "s",
                   "--mask-output", out / "m", "--stats-output", out / "c")
        assert code == 2
        assert capsys.readouterr().err == f"cloudseg: no channel 'visible' (have {have})\n"
        assert list(out.iterdir()) == []

    def test_bt_channel_need_not_be_selected(self, tmp_path, capsys):
        """--channels picks the gradient's channels; --bt-channel names any
        channel of the input, and an unknown one lists the input's channels."""
        scene, _ = synth(tmp_path, preset="wyoming_like")
        image = read_raster_file(scene)
        outs = {}
        for bt in ("water_vapor", "ir_window"):
            outs[bt] = [tmp_path / f"{bt}-{name}" for name in ("seg.gms1", "mask.gms1", "stats.csv")]
            assert run("segment", "--input", scene, "--channels", "water_vapor", "--bt-channel", bt,
                       "--segments-output", outs[bt][0], "--mask-output", outs[bt][1],
                       "--stats-output", outs[bt][2]) == 0
        assert outs["water_vapor"][0].read_bytes() == outs["ir_window"][0].read_bytes()
        seg = read_segment_map(outs["ir_window"][0])
        ir = image.raster("ir_window").values
        rows = [line.split(",") for line in outs["ir_window"][2].read_text().splitlines()[1:]]
        want = np.bincount(seg.labels.ravel(), ir.ravel())[1:] / seg.areas[1:]
        np.testing.assert_allclose([float(row[2]) for row in rows], want, rtol=0, atol=5e-7)
        assert outs["water_vapor"][2].read_bytes() != outs["ir_window"][2].read_bytes()
        code = run("segment", "--input", scene, "--channels", "water_vapor", "--bt-channel", "visible",
                   "--segments-output", tmp_path / "s", "--mask-output", tmp_path / "m",
                   "--stats-output", tmp_path / "c")
        assert code == 2
        assert capsys.readouterr().err == f"cloudseg: no channel 'visible' (have {image.channel_ids})\n"

    def test_overgrown_min_seed_area_is_algorithmic_error(self, tmp_path):
        scene, _ = synth(tmp_path, preset="wyoming_like")
        code = run("segment", "--input", scene, "--min-seed-area", 10 ** 6,
                   "--segments-output", tmp_path / "s", "--mask-output", tmp_path / "m",
                   "--stats-output", tmp_path / "c")
        assert code == 3

    def test_warm_scene_mask_is_nonempty(self, tmp_path):
        scene, _ = synth(tmp_path, preset="warm_stratiform", noise=0.0)
        mask_p = tmp_path / "mask.gms1"
        assert run("segment", "--input", scene, "--segments-output", tmp_path / "s.gms1",
                   "--mask-output", mask_p, "--stats-output", tmp_path / "stats.csv") == 0
        assert read_cloud_mask(mask_p).cloud_count > 0


class TestCcs:
    def test_warm_scene_yields_empty_mask(self, tmp_path):
        scene, _ = synth(tmp_path, preset="warm_stratiform", noise=0.0)
        mask_p = tmp_path / "m.gms1"
        assert run("ccs", "--input", scene, "--segments-output", tmp_path / "s.gms1",
                   "--mask-output", mask_p) == 0
        assert read_cloud_mask(mask_p).cloud_count == 0

    def test_cold_scene_detects(self, tmp_path):
        scene, _ = synth(tmp_path, preset="wyoming_like")
        mask_p = tmp_path / "m.gms1"
        assert run("ccs", "--input", scene, "--segments-output", tmp_path / "s.gms1",
                   "--mask-output", mask_p, "--levels", "220,235,253") == 0
        assert read_cloud_mask(mask_p).cloud_count > 0

    def test_bad_levels_are_usage_error(self, tmp_path):
        assert run("ccs", "--input", "x", "--segments-output", "s",
                   "--mask-output", "m", "--levels", "220,abc") == 64


class TestTruthAndEvaluate:
    def test_truth_mask_pipeline(self, tmp_path):
        scene, volume = synth(tmp_path)
        truth_p = tmp_path / "truth.gms1"
        assert run("truth-mask", "--input", volume, "--output", truth_p) == 0
        assert read_cloud_mask(truth_p).cloud_count > 0

    def test_truth_rule_through_files(self, tmp_path):
        from cloudseg import HydrometeorVolume, write_volume_file
        # three 1x1 columns: co-located sum clears 1e-6, zero column does
        # not, split-level species do not (sum first, then vertical max)
        values = np.zeros((2, 2, 1, 3))
        values[0, 0, 0, 0] = 3e-7   # cloud_water level 0, column 0
        values[1, 0, 0, 0] = 9e-7   # cloud_ice   level 0, column 0
        values[0, 0, 0, 2] = 6e-7   # split levels in column 2
        values[1, 1, 0, 2] = 6e-7
        vol_p = tmp_path / "v.gmsv"
        write_volume_file(HydrometeorVolume(("cloud_water", "cloud_ice"), values), vol_p)
        out = tmp_path / "t.gms1"
        assert run("truth-mask", "--input", vol_p, "--output", out) == 0
        np.testing.assert_array_equal(read_cloud_mask(out).flags, [[True, False, False]])

    def test_threshold_flag(self, tmp_path):
        _, volume = synth(tmp_path)
        lo, hi = tmp_path / "lo.gms1", tmp_path / "hi.gms1"
        assert run("truth-mask", "--input", volume, "--threshold", "1e-9", "--output", lo) == 0
        assert run("truth-mask", "--input", volume, "--threshold", "1e-3", "--output", hi) == 0
        assert read_cloud_mask(lo).cloud_count > read_cloud_mask(hi).cloud_count

    def test_perfect_pair_scores(self, tmp_path):
        flags = np.zeros((5, 4), dtype=bool)
        flags[1:3, 1:3] = True
        p = tmp_path / "m.gms1"
        write_raster_file(CloudMask(flags), p)
        report_p = tmp_path / "report.json"
        assert run("evaluate", "--prediction", p, "--truth", p, "--output", report_p) == 0
        report = json.loads(report_p.read_text())
        assert report["pod"] == 1.0 and report["far"] == 0.0
        assert report["bias"] == 1.0 and report["ets"] == 1.0

    def test_worked_table_through_files(self, tmp_path):
        truth = np.zeros(100, dtype=bool)
        truth[:50] = True
        pred = np.zeros(100, dtype=bool)
        pred[:40] = True   # 40 hits, 10 misses
        pred[50:55] = True  # 5 false alarms
        tp_, tr_ = tmp_path / "p.gms1", tmp_path / "t.gms1"
        write_raster_file(CloudMask(pred.reshape(10, 10)), tp_)
        write_raster_file(CloudMask(truth.reshape(10, 10)), tr_)
        report_p = tmp_path / "r.json"
        assert run("evaluate", "--prediction", tp_, "--truth", tr_, "--output", report_p) == 0
        report = json.loads(report_p.read_text())
        assert report["pod"] == pytest.approx(0.8, abs=1e-12)
        assert report["far"] == pytest.approx(0.1, abs=1e-12)
        assert report["undetected_error_rate"] == pytest.approx(0.2, abs=1e-12)
        assert report["bias"] == pytest.approx(0.9, abs=1e-12)
        assert report["ets"] == pytest.approx(17.5 / 32.5, abs=1e-12)
        assert report["hits"] == 40 and report["misses"] == 10

    def test_dimension_mismatch_exits_2(self, tmp_path):
        a, b = tmp_path / "a.gms1", tmp_path / "b.gms1"
        write_raster_file(CloudMask(np.zeros((3, 3), bool)), a)
        write_raster_file(CloudMask(np.zeros((3, 4), bool)), b)
        assert run("evaluate", "--prediction", a, "--truth", b, "--output", tmp_path / "r") == 2


@pytest.fixture(scope="module")
def mixed_inputs(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("inputs"), seed=3)


@pytest.mark.parametrize("command, flags", [
    pytest.param("synth", ["--preset", "mixed", "--noise-sigma", "nan"], id="synth-noise-nan"),
    pytest.param("synth", ["--preset", "mixed", "--seed", 2 ** 64], id="synth-seed-over-64-bits"),
    pytest.param("truth-mask", ["--threshold", "nan"], id="truth-threshold-nan"),
    pytest.param("segment", ["--clear-sky-cutoff", "nan"], id="segment-cutoff-nan"),
    pytest.param("segment", ["--bins", "1"], id="segment-one-bin"),
    pytest.param("ccs", ["--levels", "220,nan,253"], id="ccs-nan-level"),
    pytest.param("ccs", ["--levels", "nan"], id="ccs-only-nan"),
    pytest.param("ccs", ["--levels", "inf"], id="ccs-only-inf"),
    pytest.param("ccs", ["--levels", "253,235"], id="ccs-descending-levels"),
])
def test_bad_value_is_usage_error(tmp_path, mixed_inputs, command, flags):
    scene, volume = mixed_inputs
    out = tmp_path / "out"
    out.mkdir()
    io = {
        "synth": ["--scene-output", out / "s.gms1", "--volume-output", out / "v.gmsv"],
        "truth-mask": ["--input", volume, "--output", out / "truth.gms1"],
        "segment": ["--input", scene, "--segments-output", out / "seg.gms1",
                    "--mask-output", out / "mask.gms1", "--stats-output", out / "stats.csv"],
        "ccs": ["--input", scene, "--segments-output", out / "seg.gms1",
                "--mask-output", out / "mask.gms1"],
    }[command]
    assert run(command, *flags, *io) == 64
    assert list(out.iterdir()) == []


def test_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    io = ["--input", "x", "--segments-output", "s", "--mask-output", "m"]
    segment = parser.parse_args(["segment", *io, "--stats-output", "c"])
    ccs = parser.parse_args(["ccs", *io])
    gradient = parser.parse_args(["gradient", "--input", "x", "--output", "g"])
    truth = parser.parse_args(["truth-mask", "--input", "x", "--output", "t"])

    def default(func, name):
        return inspect.signature(func).parameters[name].default

    assert gradient.scales == segment.scales == GradientConfig().n_scales
    assert segment.bins == default(otsu_threshold, "bins")
    assert segment.min_seed_area == default(generate_markers, "min_seed_area")
    assert segment.clear_sky_cutoff == default(classify_regions, "clear_sky_cutoff")
    assert ccs.levels == CcsConfig().threshold_levels
    assert ccs.min_area == CcsConfig().min_area
    assert truth.threshold == MIXING_RATIO_THRESHOLD == default(derive_truth_mask, "threshold")


FIELD = Raster2D(np.arange(4.0).reshape(2, 2))
IO = {
    "synth": ["--preset", "mixed", "--scene-output", "s", "--volume-output", "v"],
    "gradient": ["--input", "x", "--output", "g"],
    "segment": ["--input", "x", "--segments-output", "s", "--mask-output", "m", "--stats-output", "c"],
    "ccs": ["--input", "x", "--segments-output", "s", "--mask-output", "m"],
}


@pytest.mark.parametrize("command, flag, bound, beyond, library", [
    ("gradient", "--scales", 1, 0, lambda v: GradientConfig(n_scales=v)),
    ("segment", "--scales", 1, 0, lambda v: GradientConfig(n_scales=v)),
    ("segment", "--bins", 2, 1, lambda v: otsu_threshold(FIELD, bins=v)),
    ("segment", "--min-seed-area", 1, 0,
     lambda v: generate_markers(FIELD, otsu_threshold(FIELD), min_seed_area=v)),
    ("ccs", "--min-area", 1, 0, lambda v: CcsConfig(min_area=v)),
    ("synth", "--seed", 0, -1, lambda v: SceneSpec(width=1, height=1, rng_seed=v)),
    ("synth", "--seed", 2 ** 64 - 1, 2 ** 64, lambda v: SceneSpec(width=1, height=1, rng_seed=v)),
    ("synth", "--noise-sigma", 0.0, math.nextafter(0.0, -1.0),
     lambda v: SceneSpec(width=1, height=1, noise_sigma=v)),
], ids=["gradient-scales", "segment-scales", "bins", "min-seed-area", "ccs-min-area",
        "seed-low", "seed-high", "noise-sigma"])
def test_flag_bounds_are_the_library_bounds(command, flag, bound, beyond, library):
    parser = build_parser()
    dest = flag[2:].replace("-", "_")
    assert getattr(parser.parse_args([command, *IO[command], flag, str(bound)]), dest) == bound
    library(bound)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *IO[command], flag, str(beyond)])
    assert exc.value.code == 64
    with pytest.raises(ValueError):
        library(beyond)


def test_segment_min_area_zero_is_the_one_gap():
    # --min-area 0 disables the merge, so the CLI takes a value the library rejects
    assert build_parser().parse_args(["segment", *IO["segment"], "--min-area", "0"]).min_area == 0
    with pytest.raises(ValueError, match="min_area"):
        merge_small_regions(SegmentMap(np.array([[1]])), min_area=0)


class TestAtomicOutputs:
    """A command that fails leaves none of its outputs and no temp files."""

    def test_unwritable_last_output_leaves_nothing(self, tmp_path):
        scene, _ = synth(tmp_path, preset="wyoming_like")
        out = tmp_path / "out"
        out.mkdir()
        assert run("segment", "--input", scene, "--segments-output", out / "seg.gms1",
                   "--mask-output", out / "mask.gms1",
                   "--stats-output", tmp_path / "missing" / "stats.csv") == 2
        assert list(out.iterdir()) == []

    def test_bad_last_level_leaves_no_truth_mask(self, tmp_path, capsys):
        from cloudseg import HydrometeorVolume, write_volume_file
        vol_p = tmp_path / "v.gmsv"
        write_volume_file(HydrometeorVolume(("rain", "snow"), np.full((2, 3, 4, 4), 2e-6)), vol_p)
        data = bytearray(vol_p.read_bytes())
        data[-4:] = np.array([np.nan], "<f4").tobytes()  # snow's plane in level 2, the file's last
        vol_p.write_bytes(bytes(data))
        out = tmp_path / "out"
        out.mkdir()
        assert run("truth-mask", "--input", vol_p, "--output", out / "truth.gms1") == 2
        assert "invalid contents in level 2: mixing ratios must be finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("clash", ["directory", "same-name", "dot-slash"])
    @pytest.mark.parametrize("command, flags", [
        ("segment", ["--segments-output", "--mask-output", "--stats-output"]),
        ("ccs", ["--segments-output", "--mask-output"]),
        ("synth", ["--scene-output", "--volume-output"]),
    ], ids=["segment", "ccs", "synth"])
    def test_refused_outputs_write_nothing(self, tmp_path, monkeypatch, mixed_inputs, command, flags, clash):
        """An output that is a directory, or one file named twice, exits 2
        before any output is written: a file already at an output path
        keeps its bytes and no temporary file is left."""
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        paths = [f"o{i}" for i in range(len(flags))]
        (out / paths[0]).write_bytes(b"keep")
        if clash == "directory":
            (out / paths[-1]).mkdir()
        else:
            paths[-1] = paths[0] if clash == "same-name" else f"./{paths[0]}"
        source = ["--preset", "mixed"] if command == "synth" else ["--input", mixed_inputs[0]]
        assert run(command, *source, *[a for pair in zip(flags, paths) for a in pair]) == 2
        assert sorted(p.name for p in out.iterdir()) == sorted({"o0", paths[-1].lstrip("./")})
        assert (out / "o0").read_bytes() == b"keep"
        if clash == "directory":
            assert list((out / paths[-1]).iterdir()) == []

    def test_success_replaces_existing_outputs(self, tmp_path):
        scene, volume = synth(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "truth.gms1").write_bytes(b"stale")
        assert run("truth-mask", "--input", volume, "--output", out / "truth.gms1") == 0
        assert sorted(p.name for p in out.iterdir()) == ["truth.gms1"]
        assert read_cloud_mask(out / "truth.gms1").cloud_count > 0

    @pytest.mark.parametrize("peak", ["0.002", "1e300"], ids=["success", "failed-volume-write"])
    def test_user_files_at_temporary_names_are_never_touched(self, tmp_path, peak):
        """Files the user already has at the names a temporary file would
        take keep their bytes, whether the command succeeds or fails in
        its writes, and an output gets the mode open(..., "wb") gives."""
        spec_path = tmp_path / "scene.spec"
        spec_path.write_text("width = 8\nheight = 6\ncloud.0.center_row = 3\ncloud.0.center_col = 4\n"
                             f"cloud.0.radius_px = 1.5\ncloud.0.min_bt = 260\ncloud.0.hydrometeor_peak = {peak}\n")
        out = tmp_path / "out"
        out.mkdir()
        pid = os.getpid()
        users = {f"s.gms1.{pid}.tmp": b"user data", f"s.gms1.{pid}.1.tmp": b"more", f"v.gmsv.{pid}.tmp": b"v"}
        for name, data in users.items():
            (out / name).write_bytes(data)
        succeeds = peak != "1e300"
        assert run("synth", "--spec", spec_path, "--scene-output", out / "s.gms1",
                   "--volume-output", out / "v.gmsv") == (0 if succeeds else 2)
        outputs = ["s.gms1", "v.gmsv"] if succeeds else []
        assert sorted(p.name for p in out.iterdir()) == sorted([*users, *outputs])
        for name, data in users.items():
            assert (out / name).read_bytes() == data
        if succeeds:
            assert read_raster_file(out / "s.gms1").shape == (6, 8)
            with open(tmp_path / "plain", "wb"):
                pass
            assert (out / "s.gms1").stat().st_mode == (tmp_path / "plain").stat().st_mode


# A fresh interpreter imports `module`, notes whether that loaded numpy, runs
# each argv through the process entry point, then prints what it observed.
# Commands run only when `module` is the entry point itself. The child runs
# with -W error, so a command that warns fails here as it would in-process.
_CHILD = (
    "import gc, json, os, sys\n"
    "import {module}\n"
    "numpy_on_import = 'numpy' in sys.modules\n"
    "from cloudseg.__main__ import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    sys.argv[1:] = argv\n"
    "    try:\n"
    "        main()\n"
    "    except SystemExit as exc:\n"
    "        assert exc.code == 0, (argv, exc.code)\n"
    "print(json.dumps({{'numpy_on_import': numpy_on_import,\n"
    "                  'blas_threads': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
    "                  'frozen': gc.get_freeze_count() > 0,\n"
    "                  'numpy': 'numpy' in sys.modules,\n"
    "                  'cloudseg': sorted(m for m in sys.modules if m.split('.')[0] == 'cloudseg'),\n"
    "                  'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
    "                  'csv': 'csv' in sys.modules,\n"
    "                  'fractions': 'fractions' in sys.modules}}))\n"
)


def _run_child(module, commands, blas_threads=None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cloudseg.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    argv = json.dumps([[str(a) for a in cmd] for cmd in commands])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD.format(module=module), argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module, blas_threads, expected", [
    # the package exports lazily, so the entry point can act before numpy loads
    ("cloudseg", None, {"numpy_on_import": False, "blas_threads": None}),
    # the library never sets the BLAS default; only the entry point does. The
    # CLI loads numpy only in a command that needs it
    ("cloudseg.cli", None, {"numpy_on_import": False, "blas_threads": None}),
    # the runtime needs numpy alone: no command loads scipy, synth included
    ("cloudseg.__main__", None, {"numpy_on_import": False, "blas_threads": "1"}),
    ("cloudseg.__main__", "3", {"numpy_on_import": False, "blas_threads": "3"}),
], ids=["package-loads-no-numpy", "cli-sets-no-blas-default", "entry-defaults-blas-to-1",
        "entry-keeps-caller-blas"])
def test_child_process(tmp_path, module, blas_threads, expected):
    run_commands = module == "cloudseg.__main__"
    commands = []
    if run_commands:
        scene, volume = tmp_path / "scene.gms1", tmp_path / "scene.gmsv"
        out = tmp_path / "out"
        commands = [
            # wyoming_like renders the water-vapour channel, the one blurred band
            ["synth", "--preset", "wyoming_like", "--seed", "42",
             "--scene-output", scene, "--volume-output", volume],
            ["gradient", "--input", scene, "--output", f"{out}-gradient.gms1"],
            ["segment", "--input", scene, "--segments-output", f"{out}-seg.gms1",
             "--mask-output", f"{out}-mask.gms1", "--stats-output", f"{out}-stats.csv"],
            ["ccs", "--input", scene, "--segments-output", f"{out}-ccs.gms1",
             "--mask-output", f"{out}-ccs-mask.gms1"],
            ["truth-mask", "--input", volume, "--output", f"{out}-truth.gms1"],
            ["evaluate", "--prediction", f"{out}-mask.gms1", "--truth", f"{out}-truth.gms1",
             "--output", f"{out}-report.json"],
        ]
    observed = _run_child(module, commands, blas_threads)
    assert {key: observed[key] for key in expected} == expected
    assert observed["scipy"] == []
    # the stats CSV is written without the csv module
    assert observed["csv"] is False
    # Otsu loads fractions (and with it decimal) only to re-score near-tied splits
    assert observed["fractions"] is False
    # only the entry point freezes what the process holds, once a command has run
    assert observed["frozen"] == run_commands
    assert (tmp_path / "out-report.json").exists() == run_commands


def test_stage_names_resolve_on_the_cli_module():
    """The commands call their stages as attributes of cloudseg.cli: each name
    resolves through the package's exports to its defining module's object,
    and a name the package does not export raises the package's error."""
    from cloudseg import cli
    for name in ("make_preset", "GradientConfig", "generate_markers", "CcsConfig", "derive_truth_mask", "verify"):
        assert getattr(cli, name) is getattr(cloudseg, name)
    with pytest.raises(AttributeError, match="^module 'cloudseg' has no attribute 'nope'$"):
        cli.nope


# The modules each command's child loads besides the package, cloudseg.__main__,
# cloudseg.cli and cloudseg.base, which every command loads. truth-mask and
# evaluate load no detection stage, no command but synth loads the scene
# generator, and evaluate loads neither the containers nor the codec, and so
# no numpy.
_COMMAND_MODULES = {
    "synth": {"raster", "formats", "synth"},
    "gradient": {"raster", "formats", "morphology"},
    "segment": {"raster", "formats", "morphology", "markers", "flood", "watershed"},
    # flood steps with morphology's window
    "ccs": {"raster", "formats", "ccs", "flood", "markers", "morphology", "watershed"},
    "truth-mask": {"raster", "formats", "verification"},
    "evaluate": {"verification"},
}


def _command_argv(command, inputs, directory, stem) -> tuple:
    """(argv, output paths) of one command on the module's wyoming_like inputs."""
    scene, volume, prediction, truth = inputs
    outputs = {
        "synth": ("--scene-output", "--volume-output"),
        "gradient": ("--output",),
        "segment": ("--segments-output", "--mask-output", "--stats-output"),
        "ccs": ("--segments-output", "--mask-output"),
        "truth-mask": ("--output",),
        "evaluate": ("--output",),
    }[command]
    source = {
        "synth": ["--preset", "wyoming_like", "--seed", 42],
        "truth-mask": ["--input", volume],
        "evaluate": ["--prediction", prediction, "--truth", truth],
    }.get(command, ["--input", scene])
    paths = [directory / f"{stem}{i}" for i in range(len(outputs))]
    return [command, *source, *[a for pair in zip(outputs, paths) for a in pair]], paths


@pytest.fixture(scope="module")
def wyoming_inputs(tmp_path_factory):
    """A two-channel scene, its volume, a segment mask and the truth mask."""
    d = tmp_path_factory.mktemp("wyoming")
    scene, volume = synth(d, preset="wyoming_like")
    prediction, truth = d / "prediction.gms1", d / "truth.gms1"
    assert run("segment", "--input", scene, "--segments-output", d / "seg.gms1", "--mask-output", prediction,
               "--stats-output", d / "stats.csv") == 0
    assert run("truth-mask", "--input", volume, "--output", truth) == 0
    return scene, volume, prediction, truth


@pytest.mark.parametrize("command", list(_COMMAND_MODULES))
def test_child_loads_only_its_command(tmp_path, wyoming_inputs, command):
    """One fresh child per command through the process entry point: it loads
    only the stage modules its command runs, and once main has exited what
    the process holds is frozen and the outputs are complete, the same bytes
    that cli.main writes in-process."""
    argv, paths = _command_argv(command, wyoming_inputs, tmp_path, "child-")
    observed = _run_child("cloudseg.__main__", [argv])
    common = {"cloudseg", "cloudseg.__main__", "cloudseg.cli", "cloudseg.base"}
    assert set(observed["cloudseg"]) == common | {f"cloudseg.{m}" for m in _COMMAND_MODULES[command]}
    assert observed["numpy"] == (command != "evaluate")
    assert observed["frozen"]
    reference_argv, references = _command_argv(command, wyoming_inputs, tmp_path, "in-process-")
    assert run(*reference_argv) == 0
    for path, reference in zip(paths, references):
        assert path.read_bytes() == reference.read_bytes()


def test_evaluate_runs_without_numpy(tmp_path, wyoming_inputs):
    """evaluate needs no numpy: in a child where importing numpy fails, the
    process entry point writes the report that cli.main writes in-process."""
    argv, (path,) = _command_argv("evaluate", wyoming_inputs, tmp_path, "child-")
    child = ("import sys\n"
             "sys.modules['numpy'] = None  # every import of numpy now raises ImportError\n"
             "from cloudseg.__main__ import main\n"
             "main()\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cloudseg.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", child, *map(str, argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    reference_argv, (reference,) = _command_argv("evaluate", wyoming_inputs, tmp_path, "in-process-")
    assert run(*reference_argv) == 0
    assert path.read_bytes() == reference.read_bytes()


# A small launcher runs the child: Linux carries a process's RSS into the
# ru_maxrss of the children it forks and execs, and this test process may be
# large. The launcher prints the child's exit code and its own ru_maxrss (KiB).
_RSS_LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_segment_peak_rss_at_1024(tmp_path):
    """Criterion 7's two-channel layout at 1024 x 1024: the gradient keeps
    only its output and one strip's working set image-sized, so the child
    peaks near 70 MiB, where whole gradient planes reached 102 MiB."""
    clouds = deck((520.0, 440.0), 240.0, 262.0)
    clouds += deck((300.0, 760.0), 60.0, 212.0)
    clouds += deck((800.0, 240.0), 50.0, 210.0)
    spec = SceneSpec(width=1024, height=1024, clouds=tuple(clouds),
                     channels=("ir_window", "water_vapor"), noise_sigma=0.5, rng_seed=42)
    scene = tmp_path / "big.gms1"
    write_raster_file(generate_scene(spec)[0], scene)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cloudseg.__file__)))
    argv = ["-m", "cloudseg", "segment", "--input", scene, "--segments-output", tmp_path / "seg.gms1",
            "--mask-output", tmp_path / "mask.gms1", "--stats-output", tmp_path / "stats.csv"]
    proc = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER, *map(str, argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, child_kib = map(int, proc.stdout.split())
    assert code == 0
    assert child_kib < 90 * 1024, f"segment child peak RSS {child_kib / 1024:.1f} MiB"
