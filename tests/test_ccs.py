"""Threshold/region-growing baseline segmentation."""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import make_bt
from cloudseg import (CcsConfig, CloudSpec, Raster2D, SceneSpec, Units, ccs_cloud_mask, ccs_segment, deck,
                      generate_scene, label_components)

NO_CLEANUP = CcsConfig(min_area=1)


class TestConfig:
    def test_defaults(self):
        cfg = CcsConfig()
        assert cfg.threshold_levels == (220.0, 235.0, 253.0)
        assert cfg.threshold_levels[-1] == 253.0
        assert cfg.min_area == 50

    def test_rejects_descending_levels(self):
        with pytest.raises(ValueError, match="ascending"):
            CcsConfig(threshold_levels=(235.0, 220.0))

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError, match="at least one"):
            CcsConfig(threshold_levels=())

    @pytest.mark.parametrize("levels", [(220.0, float("nan")), (float("nan"),), (220.0, float("inf"))])
    def test_rejects_non_finite_levels(self, levels):
        with pytest.raises(ValueError, match="finite"):
            CcsConfig(threshold_levels=levels)

    @pytest.mark.parametrize("min_area", [2.5, 2.0, 0])
    def test_rejects_min_area_not_a_positive_integer(self, min_area):
        with pytest.raises(ValueError, match="min_area"):
            CcsConfig(min_area=min_area)

    def test_numpy_integer_min_area(self):
        assert CcsConfig(min_area=np.int64(3)).min_area == 3


class TestSegmentation:
    def test_cold_core_grows_to_the_cap(self):
        bt = np.full((9, 9), 290.0)
        bt[2:7, 2:7] = 250.0
        bt[4, 4] = 210.0
        seg = ccs_segment(make_bt(bt), NO_CLEANUP)
        assert seg.count == 1
        np.testing.assert_array_equal(seg.labels != 0, bt <= 253.0)

    def test_warm_cloud_is_invisible(self):
        bt = np.full((8, 8), 290.0)
        bt[2:6, 2:6] = 265.0
        seg = ccs_segment(make_bt(bt), NO_CLEANUP)
        assert seg.count == 0
        assert not ccs_cloud_mask(seg).flags.any()

    def test_two_seeds_meet_on_the_bridge_without_merging(self):
        bt = make_bt([[210.0, 240.0, 240.0, 240.0, 240.0, 240.0, 210.0]])
        seg = ccs_segment(bt, NO_CLEANUP)
        np.testing.assert_array_equal(seg.labels, [[1, 1, 1, 1, 2, 2, 2]])

    def test_never_claims_above_the_cap(self, rng):
        for _ in range(10):
            bt = rng.uniform(200.0, 300.0, size=(12, 12))
            seg = ccs_segment(make_bt(bt), NO_CLEANUP)
            assert (bt[seg.labels != 0] <= 253.0).all()

    def test_everything_below_first_level_is_claimed(self, rng):
        for _ in range(10):
            bt = rng.uniform(200.0, 300.0, size=(10, 10))
            seg = ccs_segment(make_bt(bt), NO_CLEANUP)
            assert (seg.labels[bt <= 220.0] > 0).all()

    def test_patch_count_set_at_seeding(self, rng):
        for _ in range(10):
            bt = rng.uniform(205.0, 280.0, size=(14, 14))
            seg = ccs_segment(make_bt(bt), NO_CLEANUP)
            assert seg.count == label_components(bt <= 220.0).max()

    def test_seed_labels_are_row_major(self):
        bt = np.full((5, 9), 290.0)
        bt[0, 6] = 215.0
        bt[3, 1] = 212.0
        seg = ccs_segment(make_bt(bt), NO_CLEANUP)
        assert seg.labels[0, 6] == 1
        assert seg.labels[3, 1] == 2

    def test_patches_stay_connected(self, rng):
        for _ in range(8):
            bt = rng.uniform(205.0, 290.0, size=(13, 13))
            seg = ccs_segment(make_bt(bt), NO_CLEANUP)
            for label in range(1, seg.count + 1):
                assert oracles.label_is_connected(seg.labels, label)

    def test_bit_identical_repeat_runs(self, rng):
        bt = make_bt(rng.uniform(200.0, 300.0, size=(20, 20)))
        a = ccs_segment(bt, NO_CLEANUP)
        b = ccs_segment(bt, NO_CLEANUP)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_cleanup_removes_isolated_speck(self):
        bt = np.full((12, 12), 290.0)
        bt[2:7, 2:7] = 215.0   # 25-pixel patch
        bt[10, 10] = 210.0     # lone pixel far away
        seg = ccs_segment(make_bt(bt), CcsConfig(min_area=5))
        assert seg.count == 1
        assert seg.labels[10, 10] == 0
        assert (seg.labels[2:7, 2:7] == 1).all()

    def test_the_merge_holds_only_the_map(self):
        """768 x 768: 40 cold decks and 40 small cells, grown over two levels,
        then merged. ccs_segment peaks under 1.5 float64 planes above its
        input (about 1.3); with the last flood's padded grid held beside the
        merge it peaked at about 1.78."""
        rng = np.random.default_rng(3)
        size, cols, rows = 768, 8, 5
        clouds = []
        for slot in range(cols * rows):
            row, col = (slot // cols + 0.5) * size / rows, (slot % cols + 0.5) * size / cols
            clouds += deck((row, col), 10.0 + 20.0 * rng.random(), 205.0 + 40.0 * rng.random())
            clouds.append(CloudSpec((row + 0.4 * size / rows, col + 0.4 * size / cols),
                                    2.0 + 2.0 * rng.random(), 205.0 + 35.0 * rng.random()))
        spec = SceneSpec(width=size, height=size, clouds=tuple(clouds), rng_seed=1)
        bt = generate_scene(spec)[0].raster("ir_window")
        tracemalloc.start()
        try:
            seg = ccs_segment(bt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ccs_segment(bt, NO_CLEANUP).count > seg.count > 0
        assert peak <= 1.5 * bt.values.nbytes, f"peak {peak / bt.values.nbytes:.2f} planes"

    def test_requires_kelvin(self, rng):
        plain = Raster2D(rng.uniform(200, 300, size=(4, 4)), Units.DIMENSIONLESS)
        with pytest.raises(ValueError, match="kelvin"):
            ccs_segment(plain)


class TestCloudMask:
    def test_all_zero_map(self):
        bt = make_bt(np.full((4, 4), 290.0))
        mask = ccs_cloud_mask(ccs_segment(bt, NO_CLEANUP))
        assert not mask.flags.any()

    def test_mask_equals_patch_support(self, rng):
        bt = make_bt(rng.uniform(205.0, 300.0, size=(11, 11)))
        seg = ccs_segment(bt, NO_CLEANUP)
        mask = ccs_cloud_mask(seg)
        np.testing.assert_array_equal(mask.flags, seg.labels != 0)
        assert mask.cloud_count == int((seg.labels != 0).sum())


def random_bt(rng):
    shape = rng.integers(1, 13, size=2)
    if rng.random() < 0.2:
        shape[rng.integers(2)] = 1  # 1xN and Nx1 strips
    if rng.random() < 0.7:  # plateaus, some exactly on a level
        return rng.choice([205.0, 220.0, 228.0, 235.0, 244.0, 253.0, 262.0, 290.0], size=shape)
    return rng.uniform(200.0, 270.0, size=shape)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(2018)
    schedules = ((220.0,), (220.0, 235.0, 253.0), (228.0, 244.0), (205.0, 220.0, 235.0, 253.0, 262.0))
    for _ in range(1500):
        bt = random_bt(rng)
        cfg = CcsConfig(threshold_levels=schedules[rng.integers(len(schedules))],
                        min_area=int(rng.choice([1, 2, 3, 5, 8, 20])))
        got = ccs_segment(make_bt(bt), cfg).labels
        want = oracles.ccs_reference(bt, cfg.threshold_levels, cfg.min_area)
        np.testing.assert_array_equal(got, want, err_msg=f"{bt!r}\n{cfg}")
