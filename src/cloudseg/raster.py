"""Core raster containers shared by every stage of the pipeline.

All containers are immutable after construction: each ``__init__``
validates its arguments loudly, clamping or masking nothing, and stores
them once; the ``_Frozen`` base then refuses any attribute set or delete
with AttributeError. Arrays are stored contiguous and read-only, also in
a pickled or deep-copied container, so instances can be shared freely
across threads. A container equals only itself.
Raster2D, SegmentMap, CloudMask and HydrometeorVolume keep an input
array that already has the stored dtype and layout, which leaves the
caller's array read-only too. SegmentMap is the one label-map type,
with 0 as unlabeled; MarkerMap is an alias of it.
Grids have no empty axis (``_check_grid``) and channel ids hold no NUL,
so the codec writes and reads back every shape and id they accept.
The preset names, the truth-mask threshold, the codec's element cap,
PreconditionError and check_number live in the numpy-free ``base``, which
the CLI loads before any command, and are re-exported here.
"""

from enum import Enum

import numpy as np

from .base import (MAX_ELEMENTS, MIXING_RATIO_THRESHOLD, PRESET_NAMES, PreconditionError, check_number,
                   parse_channel_ids)

HYDROMETEOR_SPECIES = ("cloud_water", "cloud_ice", "rain", "snow", "graupel")


class Units(Enum):
    KELVIN = "kelvin"
    DIMENSIONLESS = "dimensionless"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _check_grid(arr: np.ndarray, what: str, ndim: int = 2, axes: str = "") -> None:
    """Raise ValueError unless arr has ndim axes, none of them empty."""
    if arr.ndim != ndim:
        raise ValueError(f"{what} expects a {ndim}D array{axes}, got ndim={arr.ndim}")
    if 0 in arr.shape:
        raise ValueError(f"{what} dimensions must be positive, got {arr.shape}")


def finite_bounds(values: np.ndarray):
    """(min, max) of values if every value is finite, else None.

    min and max propagate NaN, and one of them is infinite whenever any
    value is, so two reductions decide it without a temporary array. Their
    sum is never taken: it can overflow.
    """
    lo, hi = values.min(), values.max()
    return (lo, hi) if np.isfinite(lo) and np.isfinite(hi) else None


class _Frozen:
    """A container whose attributes, once stored by ``__init__``, are read-only."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __setstate__(self, state):  # pickle and deepcopy hand over writable arrays
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        vars(self).update(state)

    def __repr__(self):
        attrs = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({attrs})"


class _Grid(_Frozen):
    """height and width of a container whose shape ends in (rows, cols)."""

    @property
    def height(self) -> int:
        return self.shape[-2]

    @property
    def width(self) -> int:
        return self.shape[-1]


class Raster2D(_Grid):
    """Single-channel 2D grid of finite scalars, row-major.

    Args:
        values: 2D array-like, coerced to float64.
        units: physical units of the values (kelvin for brightness
            temperature, dimensionless for gradient magnitudes).
    """

    def __init__(self, values, units: Units = Units.DIMENSIONLESS):
        v = np.asarray(values, dtype=np.float64)
        _check_grid(v, "Raster2D")
        if finite_bounds(v) is None:
            raise ValueError("Raster2D values must be finite (no NaN/Inf)")
        if not isinstance(units, Units):
            raise ValueError(f"bad units: {units!r}")
        vars(self).update(values=_freeze(v), units=units)

    @property
    def shape(self) -> tuple:
        return self.values.shape


class MultiChannelImage(_Grid):
    """Co-registered stack of named Raster2D channels.

    Channels keep their given order; ids must be unique, 1..16 ASCII
    characters and free of NUL (the GMS1 header pads ids with NUL to 16
    bytes).
    """

    def __init__(self, channels):
        chans = tuple((str(cid), r) for cid, r in channels)
        if not chans:
            raise ValueError("MultiChannelImage needs at least one channel")
        ids = [cid for cid, _ in chans]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate channel ids: {ids}")
        for cid, r in chans:
            if not isinstance(r, Raster2D):
                raise ValueError(f"channel {cid!r} is not a Raster2D")
            if not (1 <= len(cid) <= 16 and cid.isascii() and "\0" not in cid):
                raise ValueError(f"MultiChannelImage channel id {cid!r} needs 1..16 ASCII characters, no NUL")
        shapes = {r.shape for _, r in chans}
        if len(shapes) != 1:
            raise ValueError(f"channels disagree on shape: {sorted(shapes)}")
        vars(self).update(channels=chans)

    @property
    def channel_ids(self) -> tuple:
        return tuple(cid for cid, _ in self.channels)

    def raster(self, channel_id: str) -> Raster2D:
        for cid, r in self.channels:
            if cid == channel_id:
                return r
        raise KeyError(f"no channel {channel_id!r} (have {self.channel_ids})")

    @property
    def shape(self) -> tuple:
        return self.channels[0][1].shape


class StructuringElement(_Frozen):
    """Flat square structuring element of size (2*radius+1) squared.

    Flat means all weights are zero, so dilation/erosion reduce to plain
    window max/min. Radius 0 is the single-pixel identity element.
    """

    def __init__(self, radius: int):
        vars(self).update(radius=check_number(radius, "radius", int, 0))


class SegmentMap(_Grid):
    """2D map of consecutive labels 1..K; 0 means unlabeled.

    The one label-map type: watershed markers (0 = non-seed), watershed
    output (every pixel 1..K) and threshold patches (0 = clear sky).
    ``MarkerMap`` is another name for this class. Labels must be
    non-negative int32 values with every label 1..K present; K may be 0.
    The constructor counts them once: ``count`` is K and ``areas`` the
    read-only pixel count of each label 0..K (``areas[0]`` the unlabeled),
    a slice at a time, so it makes no image-sized temporary. A C-contiguous
    int32 array is kept as it is and frozen in place; any other is copied.
    The single-8-connected-component property of each marker is
    guaranteed by the producers (generate_markers) and checked by the
    test suite's brute-force flood oracle.
    """

    def __init__(self, labels):
        lab = np.asarray(labels)
        _check_grid(lab, "SegmentMap")
        if not np.issubdtype(lab.dtype, np.integer):
            raise ValueError(f"SegmentMap labels must be integers, got {lab.dtype}")
        k = int(lab.max())
        if lab.min() < 0 or k > np.iinfo(np.int32).max:  # before the cast can wrap
            raise ValueError("SegmentMap labels must be non-negative int32 values")
        lab = np.ascontiguousarray(lab, dtype=np.int32)
        flat = lab.reshape(-1)
        # k > lab.size cannot be consecutive, and k may be huge: no array of
        # size k. bincount casts to intp, so it takes slices no longer than
        # 64 Ki labels or areas itself.
        step = max(2 ** 16, k + 1)
        areas = sum(np.bincount(flat[i:i + step], minlength=k + 1)
                    for i in range(0, flat.size, step)) if k <= lab.size else None
        seen = np.flatnonzero(areas) if areas is not None else np.unique(lab)
        seen = seen[seen > 0]
        if seen.size < k:
            # the first 10 absent labels all lie in 1..seen.size + 10
            upto = np.arange(1, min(k, seen.size + 10) + 1)
            missing = upto[~np.isin(upto, seen)][:10].tolist()
            more = f" and {k - seen.size - 10} more" if k - seen.size > 10 else ""
            raise ValueError(f"SegmentMap labels must be consecutive 1..K, missing {missing}{more}")
        vars(self).update(labels=_freeze(lab), count=k, areas=_freeze(areas))

    @property
    def shape(self) -> tuple:
        return self.labels.shape


MarkerMap = SegmentMap


class CloudMask(_Grid):
    """Boolean cloud/clear raster (True = cloudy)."""

    def __init__(self, flags):
        f = np.asarray(flags)
        _check_grid(f, "CloudMask")
        if f.dtype != np.bool_:
            raise ValueError(f"CloudMask flags must be boolean, got {f.dtype}")
        vars(self).update(flags=_freeze(f))

    @property
    def shape(self) -> tuple:
        return self.flags.shape

    @property
    def cloud_count(self) -> int:
        return int(self.flags.sum())


def check_species(species) -> tuple:
    """The species ids as a tuple of str.

    Raises:
        ValueError: no ids, a duplicate, or an id outside HYDROMETEOR_SPECIES.
    """
    sp = tuple(str(s) for s in species)
    if not sp:
        raise ValueError("HydrometeorVolume needs at least one species")
    if len(set(sp)) != len(sp):
        raise ValueError(f"duplicate species: {sp}")
    for s in sp:
        if s not in HYDROMETEOR_SPECIES:
            raise ValueError(f"unknown species {s!r}, expected one of {HYDROMETEOR_SPECIES}")
    return sp


def check_mixing_ratios(values: np.ndarray) -> None:
    """Raise ValueError unless every mixing ratio is finite and non-negative."""
    bounds = finite_bounds(values)
    if bounds is None:
        raise ValueError("mixing ratios must be finite")
    if bounds[0] < 0:
        raise ValueError("mixing ratios must be non-negative")


class HydrometeorVolume(_Grid):
    """Stack of hydrometeor mixing-ratio fields, kg/kg.

    Layout is [species][level][row][col]; values must be finite and
    non-negative. Species ids come from HYDROMETEOR_SPECIES.
    """

    def __init__(self, species, values):
        sp = check_species(species)
        v = np.asarray(values, dtype=np.float64)
        _check_grid(v, "HydrometeorVolume", 4, " [species][level][row][col]")
        if v.shape[0] != len(sp):
            raise ValueError(f"species axis {v.shape[0]} != {len(sp)} species ids")
        check_mixing_ratios(v)
        vars(self).update(species=sp, values=_freeze(v))

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def levels(self) -> int:
        return self.values.shape[1]
