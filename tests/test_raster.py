"""Container invariants: bad constructions must fail loudly."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from cloudseg import (
    CcsConfig,
    CloudMask,
    CloudSpec,
    ContingencyTable,
    GradientConfig,
    HydrometeorVolume,
    MarkerMap,
    MultiChannelImage,
    Raster2D,
    SceneSpec,
    SegmentMap,
    StructuringElement,
    Units,
    classify_regions,
    derive_truth_mask,
    dilate,
    generate_markers,
    merge_small_regions,
    otsu_threshold,
)
from cloudseg.raster import _Frozen, finite_bounds


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_needs_no_bool_plane(self, bad):
        """A 1024 x 1024 float64 array is kept as it is and judged by its
        min and max: the constructor allocates far less than the 1 MiB
        bool plane of np.isfinite, and finds one bad value anywhere."""
        values = np.random.default_rng(2).normal(250.0, 10.0, size=(1024, 1024))
        tracemalloc.start()
        try:
            r = Raster2D(values, Units.KELVIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.values is values and not values.flags.writeable
        assert peak <= 64 * 2 ** 10, f"peak {peak / 2 ** 10:.0f} KiB"
        spoiled = values.copy()
        spoiled[700, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            Raster2D(spoiled)

    def test_finite_bounds_do_not_overflow(self):
        """The largest finite values of either sign are finite: the rule
        never adds min and max."""
        big = np.finfo(np.float64).max
        assert finite_bounds(np.array([big, big])) == (big, big)
        assert Raster2D([[-big, big]]).values.tolist() == [[-big, big]]

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2D"):
            Raster2D([1.0, 2.0])

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)], ids=["0x5", "5x0"])
    @pytest.mark.parametrize("make", [
        lambda shape: Raster2D(np.empty(shape)),
        lambda shape: SegmentMap(np.zeros(shape, dtype=int)),
        lambda shape: CloudMask(np.zeros(shape, dtype=bool)),
        lambda shape: HydrometeorVolume(("rain",), np.zeros((1, 1, *shape))),
    ], ids=["Raster2D", "SegmentMap", "CloudMask", "HydrometeorVolume"])
    def test_rejects_empty(self, make, shape):
        # no GMS1/GMSV header holds a zero dimension
        with pytest.raises(ValueError, match="positive"):
            make(shape)

    def test_rejects_units_that_are_not_units(self):
        with pytest.raises(ValueError, match="bad units: 'kelvin'"):
            Raster2D([[1.0]], "kelvin")

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
        with pytest.raises(ValueError, match="ASCII"):  # the same id once NUL-padded in a file
            MultiChannelImage((("x", a), ("x\0", a)))

    def test_rejects_a_channel_that_is_not_a_raster(self):
        with pytest.raises(ValueError, match="channel 'ir' is not a Raster2D"):
            MultiChannelImage((("ir", [[1.0]]),))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            MultiChannelImage((("a", Raster2D([[1.0]])), ("b", Raster2D([[1.0, 2.0]]))))

    def test_rejects_oversized_id(self):
        for cid in (17 * "x", "x\0"):  # NUL is the pad byte of a GMS1 id
            with pytest.raises(ValueError, match="ASCII"):
                MultiChannelImage(((cid, Raster2D([[1.0]])),))


class TestStructuringElement:
    def test_radius_zero_is_valid(self):
        assert StructuringElement(0).radius == 0

    def test_size(self):
        # radius 3 spans a 7 x 7 window
        spot = np.zeros((9, 9))
        spot[4, 4] = 1.0
        grown = dilate(Raster2D(spot), StructuringElement(np.int64(3))).values
        assert grown.sum() == 49 and (grown[1:8, 1:8] == 1.0).all()

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

    def test_segment_map_accepts_zero_as_unlabeled(self):
        assert MarkerMap is SegmentMap
        assert SegmentMap(np.array([[0, 1], [1, 1]])).count == 1
        assert SegmentMap(np.zeros((2, 2), dtype=int)).count == 0

    def test_segment_map_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integers"):
            SegmentMap(np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 7), (12, 12)], ids=lambda s: "%dx%d" % s)
    @pytest.mark.parametrize("k", [0, 1, 3, 9], ids=lambda k: f"K{k}")
    def test_count_and_areas_are_the_constructors_tally(self, rng, shape, k):
        """count is labels.max() and areas the bincount of labels 0..K,
        counted once by the constructor; areas is read-only."""
        size = shape[0] * shape[1]
        k = min(k, size)
        flat = np.concatenate([np.arange(1, k + 1), rng.integers(0, k + 1, size - k)])
        labels = rng.permutation(flat).reshape(shape)
        seg = SegmentMap(labels)
        assert seg.count == labels.max() == k
        assert seg.areas.tolist() == np.bincount(labels.ravel(), minlength=k + 1).tolist()
        assert not seg.areas.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            seg.areas[0] = 1

    @pytest.mark.parametrize("side, k", [(256, 7), (257, 1), (300, 70_000), (300, 90_000)],
                             ids=["one-slice", "two-slices", "k-beyond-a-slice", "every-pixel"])
    def test_areas_are_exact_across_count_slices(self, rng, side, k):
        """Labels are counted a slice of 65,536 (or k + 1) at a time; the
        sum over slices is the whole map's bincount."""
        flat = np.concatenate([np.arange(1, k + 1), rng.integers(0, k + 1, side * side - k)])
        labels = rng.permutation(flat).reshape(side, side)
        seg = SegmentMap(labels)
        assert seg.count == k
        np.testing.assert_array_equal(seg.areas, np.bincount(labels.ravel(), minlength=k + 1))

    def test_int32_labels_are_counted_in_place(self):
        """A C-contiguous 1024 x 1024 int32 map is kept and frozen in place,
        and counting it allocates no image-sized temporary: the peak is one
        512 KiB intp slice, where an int32 copy and a whole-map intp cast
        took 12 MiB."""
        n = 1024
        labels = (np.arange(n * n, dtype=np.int32) % 1000).reshape(n, n) + 1
        tracemalloc.start()
        try:
            seg = SegmentMap(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seg.labels is labels and not labels.flags.writeable
        assert seg.count == 1000 and seg.areas[1:].sum() == n * n
        assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


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

    def test_rejects_no_species(self):
        with pytest.raises(ValueError, match="at least one species"):
            HydrometeorVolume((), np.zeros((1, 1, 1, 1)))

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


# every container built by keyword, with the attributes its repr names in order
CONTAINERS = {
    "Raster2D": (lambda: Raster2D(values=[[280.0, 281.0]], units=Units.KELVIN), ("values", "units")),
    "MultiChannelImage": (lambda: MultiChannelImage(channels=[("ir", Raster2D([[1.0, 2.0]]))]), ("channels",)),
    "StructuringElement": (lambda: StructuringElement(radius=2), ("radius",)),
    "SegmentMap": (lambda: SegmentMap(labels=[[0, 1], [2, 2]]), ("labels", "count", "areas")),
    "CloudMask": (lambda: CloudMask(flags=np.array([[True, False]])), ("flags",)),
    "HydrometeorVolume": (lambda: HydrometeorVolume(species=["rain"], values=np.ones((1, 2, 1, 2))),
                          ("species", "values")),
}


def _arrays(obj):
    """Every array held by a container, through its tuples and nested containers."""
    for value in vars(obj).values() if isinstance(obj, _Frozen) else obj:
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, _Frozen)):
            yield from _arrays(value)


@pytest.mark.parametrize("make, attrs", CONTAINERS.values(), ids=CONTAINERS.keys())
def test_container_contract(make, attrs):
    box = make()
    held = dict(vars(box))
    assert tuple(held) == attrs
    for name in (*attrs, "extra"):
        with pytest.raises(AttributeError, match=f"{type(box).__name__} is read-only: cannot set '{name}'"):
            setattr(box, name, None)
        with pytest.raises(AttributeError, match=f"{type(box).__name__} is read-only: cannot delete '{name}'"):
            delattr(box, name)
    assert all(vars(box)[name] is value for name, value in held.items())
    text = repr(box)
    assert text.startswith(f"{type(box).__name__}(") and all(f"{name}=" in text for name in attrs)
    # equality is identity: no generated __eq__ compares arrays, so none raises
    assert box == box and box != make() and hash(box) == hash(box)
    for clone in (pickle.loads(pickle.dumps(box)), copy.deepcopy(box)):
        assert type(clone) is type(box) and repr(clone) == text
        arrays = list(_arrays(clone))
        assert len(arrays) == len(list(_arrays(box))) and not any(a.flags.writeable for a in arrays)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(clone, attrs[0], None)


FIELD = Raster2D(np.arange(4.0).reshape(2, 2))
CLOUD = dict(center=(1.0, 1.0), radius_px=2.0, min_bt=260.0)
COUNTS = dict(hits=1, misses=1, false_alarms=1, correct_negatives=1)


def _otsu(bins):
    otsu_threshold(FIELD, bins=bins)


def _markers(min_seed_area):
    generate_markers(FIELD, otsu_threshold(FIELD), min_seed_area=min_seed_area)


def _merge(min_area):
    merge_small_regions(SegmentMap(np.array([[1, 2]])), min_area=min_area)


def _classify(clear_sky_cutoff):
    seg = SegmentMap(np.array([[1, 1], [1, 1]]))
    classify_regions(seg, FIELD, FIELD, clear_sky_cutoff=clear_sky_cutoff)


def _truth_mask(threshold):
    derive_truth_mask(HydrometeorVolume(("rain",), np.full((1, 1, 2, 2), 1e-3)), threshold=threshold)


def _count(name):
    return lambda v: getattr(ContingencyTable(**COUNTS | {name: v}), name)


def _scene(name):
    return lambda v: getattr(SceneSpec(**dict(width=4, height=4) | {name: v}), name)


def _cloud(name):
    return lambda v: getattr(CloudSpec(**CLOUD | {name: v}), name)


# Every numeric parameter the library checks, by raster.check_number:
# (site, parameter, kind, low, valid). site(value) runs the call site with
# the parameter set to value and returns the value it keeps, or None where
# it keeps none; low is the least value the rule allows (-inf: none), and
# valid a value the site accepts, low itself wherever low is finite.
NUMBER_SITES = [
    (lambda v: StructuringElement(v).radius, "radius", int, 0, 0),
    (lambda v: GradientConfig(n_scales=v).n_scales, "n_scales", int, 1, 1),
    (lambda v: CcsConfig(min_area=v).min_area, "min_area", int, 1, 1),
    (lambda v: CcsConfig(threshold_levels=(v,)).threshold_levels[0], "threshold_levels", float,
     -math.inf, 220),
    *[(_count(name), name, int, 0, 0) for name in COUNTS],
    (_otsu, "bins", int, 2, 2),
    (_markers, "min_seed_area", int, 1, 1),
    (_merge, "min_area", int, 1, 1),
    (_scene("width"), "width", int, 1, 1),
    (_scene("height"), "height", int, 1, 1),
    (_scene("background_bt"), "background_bt", float, -math.inf, 290),
    (_scene("noise_sigma"), "noise_sigma", float, 0, 0),
    (_scene("rng_seed"), "rng_seed", int, 0, 0),
    (lambda v: CloudSpec(**CLOUD | {"center": (v, 1.0)}).center[0], "center", float, -math.inf, 1),
    (lambda v: CloudSpec(**CLOUD | {"center": (1.0, v)}).center[1], "center", float, -math.inf, 1),
    (_cloud("radius_px"), "radius_px", float, -math.inf, 2),
    (_cloud("min_bt"), "min_bt", float, -math.inf, 260),
    (_cloud("hydrometeor_peak"), "hydrometeor_peak", float, -math.inf, 1),
    (_classify, "clear_sky_cutoff", float, -math.inf, 280),
    (_truth_mask, "threshold", float, -math.inf, 0),
]


def _rejected(kind, low) -> dict:
    """The values a site of this kind and low bound must reject, by id."""
    values = {"True": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    if low > -math.inf:
        values["low-1"] = low - 1
    if kind is int:
        values["low+0.5"] = low + 0.5  # never rounded
    else:
        values["2**1100"] = 2 ** 1100  # beyond float's range
    return values


@pytest.mark.parametrize("site, name, bad", [
    pytest.param(site, name, bad, id=f"{i}-{name}-{label}")
    for i, (site, name, kind, low, _) in enumerate(NUMBER_SITES)
    for label, bad in _rejected(kind, low).items()
])
def test_every_number_site_rejects(site, name, bad):
    with pytest.raises(ValueError, match=name):
        site(bad)


@pytest.mark.parametrize("site, name, kind, valid", [
    pytest.param(site, name, kind, valid, id=f"{i}-{name}")
    for i, (site, name, kind, _, valid) in enumerate(NUMBER_SITES)
])
def test_every_number_site_accepts_a_numpy_integer(site, name, kind, valid):
    kept = site(np.int64(valid))
    if kept is not None:
        assert type(kept) is kind and kept == valid
