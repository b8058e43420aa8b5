"""Watershed flooding, small-region merging, region classification."""

import time

import numpy as np
import pytest

import oracles
from conftest import make_bt, make_field, smooth_field
from cloudseg import (
    EmptyMarkerMapError,
    MarkerMap,
    SegmentMap,
    classify_regions,
    merge_small_regions,
    watershed_from_markers,
)


def random_pair(rng, h, w, n_markers):
    """Random smooth field with distinct single-pixel markers."""
    field = smooth_field(rng, h, w)
    flat = rng.choice(h * w, size=n_markers, replace=False)
    labels = np.zeros((h, w), dtype=np.int32)
    for i, f in enumerate(flat, start=1):
        labels[divmod(int(f), w)] = i
    return field, MarkerMap(labels)


def random_partition(rng, h, w):
    """Consecutively labeled grid: blocks or salt-and-pepper, maybe with 0."""
    k = int(rng.integers(1, 9))
    if rng.random() < 0.5:
        raw = rng.integers(0, k + 1, size=(h, w))
    else:
        bh, bw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        blocks = rng.integers(0, k + 1, size=(-(-h // bh), -(-w // bw)))
        raw = np.repeat(np.repeat(blocks, bh, axis=0), bw, axis=1)[:h, :w]
    if rng.random() < 0.5:
        raw = raw + (raw == 0)
    present = np.unique(raw)
    present = present[present > 0]
    remap = np.zeros(int(raw.max()) + 1, dtype=np.int32)
    remap[present] = np.arange(1, len(present) + 1)
    return SegmentMap(remap[raw], allow_zero=True)


def many_region_segmentation(n, k, seed):
    """k single-pixel markers flooded over a uniform random n x n field."""
    rng = np.random.default_rng(seed)
    field = make_field(rng.random((n, n)))
    labels = np.zeros((n, n), dtype=np.int32)
    labels.ravel()[rng.choice(n * n, size=k, replace=False)] = np.arange(1, k + 1)
    return watershed_from_markers(field, MarkerMap(labels))


class TestWatershed:
    def test_single_marker_takes_everything(self, rng):
        field = smooth_field(rng, 9, 9)
        labels = np.zeros((9, 9), dtype=int)
        labels[4, 4] = 1
        seg = watershed_from_markers(field, MarkerMap(labels))
        assert (seg.labels == 1).all()

    def test_fifo_tie_break_on_flat_gap(self):
        field = make_field([[0.0, 5.0, 0.0]])
        markers = MarkerMap(np.array([[1, 0, 2]]))
        seg = watershed_from_markers(field, markers)
        np.testing.assert_array_equal(seg.labels, [[1, 1, 2]])

    def test_boundary_sits_on_the_ridge(self):
        # two basins separated by a ridge through the middle column
        yy, xx = np.mgrid[0:15, 0:21].astype(float)
        surface = 10.0 * np.exp(-((xx - 10.0) ** 2) / 6.0) + 0.05 * yy
        field = make_field(surface)
        labels = np.zeros((15, 21), dtype=int)
        labels[7, 2] = 1
        labels[7, 18] = 2
        seg = watershed_from_markers(field, MarkerMap(labels))
        pass_height = oracles.minimax_pass_height(field.values, [(7, 2)], [(7, 18)])
        for p, q in oracles.boundary_pairs(seg.labels):
            assert max(field.values[p], field.values[q]) >= pass_height - 1e-12

    def test_properties_on_random_pairs(self, rng):
        for _ in range(25):
            h, w = int(rng.integers(4, 20)), int(rng.integers(4, 20))
            n = int(rng.integers(1, min(6, h * w // 2 + 1)))
            field, markers = random_pair(rng, h, w, n)
            seg = watershed_from_markers(field, markers)
            assert (seg.labels > 0).all()
            assert seg.count == markers.count
            kept = markers.labels > 0
            np.testing.assert_array_equal(seg.labels[kept], markers.labels[kept])
            for label in range(1, seg.count + 1):
                assert oracles.label_is_connected(seg.labels, label)

    def test_bit_identical_repeat_runs(self, rng):
        field, markers = random_pair(rng, 24, 17, 5)
        a = watershed_from_markers(field, markers)
        b = watershed_from_markers(field, markers)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_empty_marker_map_rejected(self, rng):
        field = smooth_field(rng, 4, 4)
        with pytest.raises(EmptyMarkerMapError):
            watershed_from_markers(field, MarkerMap(np.zeros((4, 4), dtype=int)))

    def test_shape_mismatch_rejected(self, rng):
        field = smooth_field(rng, 4, 4)
        labels = np.zeros((5, 5), dtype=int)
        labels[0, 0] = 1
        with pytest.raises(ValueError, match="mismatch"):
            watershed_from_markers(field, MarkerMap(labels))


class TestMergeSmallRegions:
    def test_min_area_one_is_identity(self, rng):
        field, markers = random_pair(rng, 12, 12, 4)
        seg = watershed_from_markers(field, markers)
        merged = merge_small_regions(seg, min_area=1)
        np.testing.assert_array_equal(merged.labels, seg.labels)

    def test_forced_merge_into_sole_neighbour(self):
        # 2-pixel region 2 is walled in by region 1; region 3 is elsewhere
        labels = np.array([
            [1, 1, 1, 3, 3],
            [1, 2, 1, 3, 3],
            [1, 2, 1, 3, 3],
            [1, 1, 1, 3, 3],
        ])
        merged = merge_small_regions(SegmentMap(labels), min_area=5)
        assert merged.count == 2
        assert merged.labels[1, 1] == merged.labels[0, 0] == 1
        assert merged.labels[0, 3] == 2

    def test_longest_boundary_wins(self):
        labels = np.array([
            [1, 1, 1, 1, 1],
            [2, 2, 2, 1, 1],
            [3, 3, 4, 4, 4],
            [3, 3, 4, 4, 4],
        ])
        with_1 = oracles.shared_boundary_length(labels, 2, 1)
        with_3 = oracles.shared_boundary_length(labels, 2, 3)
        with_4 = oracles.shared_boundary_length(labels, 2, 4)
        assert with_1 > max(with_3, with_4)
        merged = merge_small_regions(SegmentMap(labels), min_area=4)
        assert merged.count == 3
        assert merged.labels[1, 0] == merged.labels[0, 0]

    def test_postcondition_on_random_partitions(self, rng):
        for _ in range(15):
            h, w = int(rng.integers(6, 16)), int(rng.integers(6, 16))
            field, markers = random_pair(rng, h, w, int(rng.integers(2, 7)))
            seg = watershed_from_markers(field, markers)
            min_area = int(rng.integers(2, 9))
            merged = merge_small_regions(seg, min_area=min_area)
            areas = np.bincount(merged.labels.ravel())[1:]
            if merged.count > 1:
                assert (areas >= min_area).all()
            assert sorted(np.unique(merged.labels)) == list(range(1, merged.count + 1))
            for label in range(1, merged.count + 1):
                assert oracles.label_is_connected(merged.labels, label)

    def test_matches_rescan_oracle_on_random_partitions(self):
        rng = np.random.default_rng(31)
        shapes = [(1, n) for n in range(1, 13)] + [(n, 1) for n in range(1, 13)]
        for i in range(2000):
            h, w = shapes[i] if i < len(shapes) else rng.integers(1, 13, size=2)
            seg = random_partition(rng, int(h), int(w))
            if seg.count == 0:
                continue
            min_area = int(rng.integers(1, 41))
            merged = merge_small_regions(seg, min_area=min_area)
            want = oracles.rescan_merge(seg.labels, min_area)
            np.testing.assert_array_equal(merged.labels, want, err_msg=f"case {i}")

    def test_many_regions_match_oracle(self):
        seg = many_region_segmentation(48, 150, seed=5)
        merged = merge_small_regions(seg, min_area=30)
        assert merged.count < seg.count
        np.testing.assert_array_equal(merged.labels, oracles.rescan_merge(seg.labels, 30))

    def test_many_regions_merge_scales(self):
        seg = many_region_segmentation(256, 3600, seed=7)
        start = time.perf_counter()
        merged = merge_small_regions(seg, min_area=30)
        elapsed = time.perf_counter() - start
        assert seg.count == 3600 and merged.count < seg.count
        assert np.bincount(merged.labels.ravel())[1:].min() >= 30
        assert elapsed < 5.0, f"merge of 3,600 regions took {elapsed:.2f} s"

    def test_zero_background_is_untouchable(self):
        labels = np.zeros((5, 7), dtype=int)
        labels[1:4, 1:3] = 1
        labels[2, 5] = 2  # tiny patch surrounded by clear sky only
        merged = merge_small_regions(SegmentMap(labels, allow_zero=True), min_area=3)
        assert merged.count == 1
        assert merged.labels[2, 5] == 0
        assert (merged.labels[1:4, 1:3] == 1).all()

    def test_min_area_validation(self, rng):
        field, markers = random_pair(rng, 5, 5, 2)
        seg = watershed_from_markers(field, markers)
        with pytest.raises(ValueError):
            merge_small_regions(seg, min_area=0)


class TestClassifyRegions:
    def test_everything_cold_is_cloud(self):
        seg = SegmentMap(np.array([[1, 1], [2, 2]]))
        bt = make_bt(np.full((2, 2), 220.0))
        mask, stats = classify_regions(seg, bt, make_field(np.zeros(seg.shape)), clear_sky_cutoff=280.0)
        assert mask.flags.all()
        assert all(s.is_cloud for s in stats)

    def test_cutoff_separates_regions(self):
        seg = SegmentMap(np.array([[1, 1], [2, 2]]))
        bt = make_bt(np.array([[290.0, 290.0], [260.0, 260.0]]))
        mask, stats = classify_regions(seg, bt, make_field(np.zeros(seg.shape)), clear_sky_cutoff=280.0)
        np.testing.assert_array_equal(mask.flags, [[False, False], [True, True]])
        assert [s.is_cloud for s in stats] == [False, True]

    def test_zero_cutoff_is_all_clear(self):
        seg = SegmentMap(np.array([[1, 2]]))
        bt = make_bt(np.array([[200.0, 180.0]]))
        mask, _ = classify_regions(seg, bt, make_field(np.zeros(seg.shape)), clear_sky_cutoff=0.0)
        assert not mask.flags.any()

    def test_stats_fields(self, rng):
        seg = SegmentMap(np.array([[1, 1, 2], [1, 2, 2]]))
        bt = make_bt(np.array([[250.0, 254.0, 290.0], [246.0, 291.0, 292.0]]))
        field = smooth_field(rng, 2, 3)
        mask, stats = classify_regions(seg, bt, gradient=field)
        assert stats[0].label == 1 and stats[0].area == 3
        assert stats[0].mean_bt == pytest.approx(250.0)
        assert stats[0].min_bt == 246.0
        assert stats[0].mean_gradient == pytest.approx(
            float(field.values[np.array([[True, True, False], [True, False, False]])].mean())
        )
        assert stats[1].mean_bt == pytest.approx(291.0)
        assert not stats[1].is_cloud

    def test_label_zero_stays_clear(self):
        seg = SegmentMap(np.array([[0, 1]]), allow_zero=True)
        bt = make_bt(np.array([[200.0, 200.0]]))
        mask, stats = classify_regions(seg, bt, make_field(np.zeros(seg.shape)))
        np.testing.assert_array_equal(mask.flags, [[False, True]])
        assert len(stats) == 1
