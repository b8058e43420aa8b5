"""Container invariants: bad constructions must fail loudly."""

import numpy as np
import pytest

from cloudseg import (
    CloudMask,
    HydrometeorVolume,
    MarkerMap,
    MultiChannelImage,
    Raster2D,
    SegmentMap,
    StructuringElement,
    Units,
)


class TestRaster2D:
    def test_basic_construction(self):
        r = Raster2D([[280.0, 281.0], [282.0, 283.0]], Units.KELVIN)
        assert (r.width, r.height) == (2, 2)
        assert r.values.dtype == np.float64
        assert r.units is Units.KELVIN

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            Raster2D([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            Raster2D([[1.0, np.inf]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2D"):
            Raster2D([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive"):
            Raster2D(np.empty((0, 3)))

    def test_values_are_read_only(self):
        r = Raster2D([[1.0, 2.0]])
        with pytest.raises(ValueError):
            r.values[0, 0] = 5.0


class TestMultiChannelImage:
    def test_preserves_order_and_lookup(self):
        a = Raster2D([[1.0]], Units.KELVIN)
        b = Raster2D([[2.0]], Units.KELVIN)
        img = MultiChannelImage((("ir_window", a), ("water_vapor", b)))
        assert img.channel_ids == ("ir_window", "water_vapor")
        assert img.raster("water_vapor") is b
        with pytest.raises(KeyError):
            img.raster("missing")

    def test_rejects_empty_channel_list(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiChannelImage(())

    def test_rejects_duplicate_ids(self):
        a = Raster2D([[1.0]])
        with pytest.raises(ValueError, match="duplicate"):
            MultiChannelImage((("x", a), ("x", a)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            MultiChannelImage((("a", Raster2D([[1.0]])), ("b", Raster2D([[1.0, 2.0]]))))

    def test_rejects_oversized_id(self):
        with pytest.raises(ValueError, match="ASCII"):
            MultiChannelImage(((17 * "x", Raster2D([[1.0]])),))


class TestStructuringElement:
    def test_radius_zero_is_valid(self):
        assert StructuringElement(0).size == 1

    def test_size(self):
        assert StructuringElement(3).size == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StructuringElement(-1)


class TestLabelRasters:
    def test_marker_map_accepts_consecutive(self):
        m = MarkerMap(np.array([[0, 1], [2, 2]]))
        assert m.count == 2

    def test_marker_map_rejects_gap(self):
        with pytest.raises(ValueError, match="consecutive"):
            MarkerMap(np.array([[0, 1], [3, 3]]))

    def test_marker_map_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            MarkerMap(np.array([[-1, 1]]))

    @pytest.mark.parametrize("bad", [2 ** 32 + 2, 2 ** 31, -(2 ** 32) + 2])
    def test_labels_must_fit_int32(self, bad):
        # the int32 cast must not wrap these to small valid labels
        for kind in (MarkerMap, SegmentMap):
            with pytest.raises(ValueError, match="non-negative"):
                kind(np.array([[1, bad]]))

    def test_segment_map_requires_full_partition_by_default(self):
        with pytest.raises(ValueError, match="every pixel"):
            SegmentMap(np.array([[0, 1], [1, 1]]))
        SegmentMap(np.array([[0, 1], [1, 1]]), allow_zero=True)

    def test_segment_map_rejects_empty_partition(self):
        with pytest.raises(ValueError, match="at least one"):
            SegmentMap(np.zeros((2, 2), dtype=int))

    def test_segment_map_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integers"):
            SegmentMap(np.ones((2, 2)))


class TestCloudMask:
    def test_bool_and_binary_int(self):
        assert CloudMask(np.array([[True, False]])).cloud_count == 1
        with pytest.raises(ValueError, match="boolean"):  # read_cloud_mask converts file bytes
            CloudMask(np.array([[1, 0]]))

    def test_rejects_other_ints(self):
        with pytest.raises(ValueError, match="boolean"):
            CloudMask(np.array([[2, 0]]))


class TestHydrometeorVolume:
    def test_valid_volume(self):
        v = HydrometeorVolume(("cloud_water", "rain"), np.zeros((2, 3, 4, 5)))
        assert (v.levels, v.height, v.width) == (3, 4, 5)

    def test_rejects_unknown_species(self):
        with pytest.raises(ValueError, match="unknown species"):
            HydrometeorVolume(("slush",), np.zeros((1, 1, 1, 1)))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            HydrometeorVolume(("rain",), -np.ones((1, 1, 1, 1)))

    def test_rejects_species_axis_mismatch(self):
        with pytest.raises(ValueError, match="species axis"):
            HydrometeorVolume(("rain",), np.zeros((2, 1, 1, 1)))

    def test_rejects_nan(self):
        bad = np.zeros((1, 1, 1, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            HydrometeorVolume(("snow",), bad)
