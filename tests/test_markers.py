"""Otsu selection and marker extraction."""

import time
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import make_field, smooth_field
from cloudseg import (
    ConstantFieldError,
    NoSeedRegionsError,
    OtsuResult,
    generate_markers,
    label_components,
    otsu_threshold,
)


class TestOtsu:
    def test_bimodal_split(self):
        values = np.array([0.0] * 50 + [10.0] * 50).reshape(10, 10)
        result = otsu_threshold(make_field(values), bins=256)
        assert 0.0 < result.threshold < 10.0
        low = np.sum(values <= result.threshold)
        assert 0 < low < 100
        assert result.between_class_variance > 0

    def test_matches_exhaustive_search(self, rng):
        for _ in range(40):
            field = smooth_field(rng, int(rng.integers(4, 20)), int(rng.integers(4, 20)))
            bins = int(rng.choice([16, 64, 256]))
            got = otsu_threshold(field, bins=bins)
            want_thr, want_var = oracles.exhaustive_otsu(field.values, bins)
            assert got.threshold == want_thr
            assert abs(got.between_class_variance - want_var) <= 1e-12

    def test_rounding_does_not_pick_the_split(self):
        # on these float centres the split at 20.33 scores 82.6888...8 exactly and
        # the one at 40.67 82.6888...5, but in floats ...93 and ...97
        values = [[0.0, 40.0, 40.0, 40.0, 61.0, 21.0]]
        got = otsu_threshold(make_field(values), bins=3)
        assert got.threshold == oracles.exhaustive_otsu(np.array(values), 3)[0] == 61.0 / 3

    def test_exact_best_split_when_the_float_scores_underflow(self, rng):
        # every float score is 0.0, so every split with its own low-class count is re-scored
        values = rng.random((16, 16)) * 1e-160
        got = otsu_threshold(make_field(values), bins=64)
        assert got.threshold == oracles.exhaustive_otsu(values, 64)[0]

    def test_threshold_within_value_range(self, rng):
        field = smooth_field(rng, 12, 12)
        r = otsu_threshold(field)
        assert field.values.min() <= r.threshold <= field.values.max()

    def test_constant_field_is_an_error(self):
        with pytest.raises(ConstantFieldError, match="constant"):
            otsu_threshold(make_field(np.full((5, 5), 2.0)))

    def test_rejects_single_bin(self, rng):
        with pytest.raises(ValueError, match="bins"):
            otsu_threshold(smooth_field(rng, 5, 5), bins=1)


class TestLabelComponents:
    def test_matches_bfs_oracle(self, rng):
        for _ in range(25):
            mask = rng.random((int(rng.integers(2, 14)), int(rng.integers(2, 14)))) > 0.55
            got = label_components(mask)
            want = oracles.flood_components(mask)
            np.testing.assert_array_equal(got, want)

    def test_matches_bfs_oracle_on_edge_shapes(self):
        rng = np.random.default_rng(17)
        masks = [np.zeros((5, 7), dtype=bool), np.ones((5, 7), dtype=bool),
                 np.zeros((1, 1), dtype=bool), np.ones((1, 1), dtype=bool)]
        for n in range(1, 13):
            masks.append(rng.random((1, n)) > 0.5)
            masks.append(rng.random((n, 1)) > 0.5)
        for _ in range(3000):
            h, w = (int(v) for v in rng.integers(1, 14, size=2))
            masks.append(rng.random((h, w)) < rng.random())
        for mask in masks:
            got = label_components(mask)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, oracles.flood_components(mask))

    def test_row_major_first_pixel_order(self):
        mask = np.zeros((3, 8), dtype=bool)
        mask[0, 5] = True          # component A, first pixel earlier in row-major order
        mask[1, 0] = mask[2, 0] = True  # component B
        labels = label_components(mask)
        assert labels[0, 5] == 1
        assert labels[1, 0] == 2

    def test_diagonal_counts_as_connected(self):
        mask = np.eye(4, dtype=bool)
        assert label_components(mask).max() == 1


def serpentine(n):
    """One n x n component: every even column, neighbours joined
    alternately across the top and bottom rows."""
    mask = np.zeros((n, n), dtype=bool)
    mask[:, 0::2] = True
    mask[0, 1::4] = True
    mask[n - 1, 3::4] = True
    return mask


@pytest.mark.parametrize("name", ["noise-50", "noise-60", "serpentine"])
def test_labelling_has_no_superlinear_blowup(name):
    from scipy import ndimage

    if name == "serpentine":
        mask = serpentine(2048)
    else:
        mask = np.random.default_rng(7).random((1024, 1024)) < int(name[-2:]) / 100
    start = time.perf_counter()
    labels = label_components(mask)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{name}: {elapsed:.2f} s"
    if name == "serpentine":
        assert labels.max() == 1 and (labels > 0).sum() == mask.sum()
    else:
        np.testing.assert_array_equal(labels, ndimage.label(mask, structure=np.ones((3, 3)))[0])


def test_serpentine_labelling_memory():
    """About 2.1 M runs: int32 run indices, freed as soon as they are used,
    keep the peak near 82 MiB, where int64 arrays all alive together
    reached 182 MiB."""
    mask = serpentine(2048)
    tracemalloc.start()
    try:
        labels = label_components(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.max() == 1
    assert peak <= 100 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestGenerateMarkers:
    def test_ring_scene_yields_two_markers(self):
        field = np.zeros((9, 9))
        field[1, 1:8] = field[7, 1:8] = 10.0
        field[1:8, 1] = field[1:8, 7] = 10.0
        f = make_field(field)
        markers = generate_markers(f, otsu_threshold(f), min_seed_area=1)
        assert markers.count == 2
        inner = markers.labels[3, 3]
        outer = markers.labels[0, 0]
        assert inner != outer and inner > 0 and outer > 0

    def test_min_area_one_keeps_every_seed_pixel(self, rng):
        field = smooth_field(rng, 16, 16)
        result = otsu_threshold(field)
        markers = generate_markers(field, result, min_seed_area=1)
        assert int((markers.labels > 0).sum()) == int((field.values <= result.threshold).sum())

    def test_threshold_below_the_field_is_an_error(self):
        field = make_field(np.array([[1.0, 2.0], [3.0, 4.0]]))
        below = OtsuResult(threshold=0.5, between_class_variance=1.0)
        with pytest.raises(NoSeedRegionsError, match="no pixel falls at or below the threshold"):
            generate_markers(field, below)

    def test_single_pixel_component_demoted(self):
        field = make_field(np.array([[0.0, 1.0], [1.0, 1.0]]))
        fake = OtsuResult(threshold=0.5, between_class_variance=1.0)
        with pytest.raises(NoSeedRegionsError, match="smaller"):
            generate_markers(field, fake, min_seed_area=2)

    def test_demotion_relabels_consecutively(self):
        values = np.ones((5, 9))
        values[1:4, 1:4] = 0.0   # big seed block
        values[2, 7] = 0.0       # lone seed pixel, demoted
        field = make_field(values)
        fake = OtsuResult(threshold=0.5, between_class_variance=1.0)
        markers = generate_markers(field, fake, min_seed_area=4)
        assert markers.count == 1
        assert markers.labels[2, 7] == 0
        assert markers.labels[2, 2] == 1

    def test_demoting_a_middle_component_keeps_ids_consecutive(self):
        values = np.ones((5, 11))
        values[0:3, 0:3] = 0.0   # component 1, kept
        values[1, 5] = 0.0       # component 2, demoted
        values[2:5, 8:11] = 0.0  # component 3, kept and renumbered to 2
        field = make_field(values)
        fake = OtsuResult(threshold=0.5, between_class_variance=1.0)
        markers = generate_markers(field, fake, min_seed_area=4)
        assert markers.count == 2
        assert markers.labels[1, 5] == 0
        assert (markers.labels[0:3, 0:3] == 1).all()
        assert (markers.labels[2:5, 8:11] == 2).all()
        assert int((markers.labels > 0).sum()) == 18

    def test_seed_pixels_all_below_threshold(self, rng):
        field = smooth_field(rng, 20, 20)
        result = otsu_threshold(field)
        markers = generate_markers(field, result, min_seed_area=1)
        seeded = markers.labels > 0
        assert (field.values[seeded] <= result.threshold).all()
        assert (field.values[~seeded] > result.threshold).all()

    def test_each_marker_is_one_connected_component(self, rng):
        field = smooth_field(rng, 18, 18)
        markers = generate_markers(field, otsu_threshold(field), min_seed_area=1)
        for label in range(1, markers.count + 1):
            assert oracles.label_is_connected(markers.labels, label)
