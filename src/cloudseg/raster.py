"""Core raster containers shared by every stage of the pipeline.

All types are immutable after construction: arrays are stored contiguous
and read-only, so instances can be shared freely across threads.
Raster2D, CloudMask and HydrometeorVolume keep an input array that
already has the stored dtype and layout, which leaves the caller's array
read-only too. Constructors validate invariants loudly; nothing is
clamped or masked silently.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

HYDROMETEOR_SPECIES = ("cloud_water", "cloud_ice", "rain", "snow", "graupel")


class Units(Enum):
    KELVIN = "kelvin"
    DIMENSIONLESS = "dimensionless"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Raster2D:
    """Single-channel 2D grid of finite scalars, row-major.

    Args:
        values: 2D array-like, coerced to float64.
        units: physical units of the values (kelvin for brightness
            temperature, dimensionless for gradient magnitudes).
    """

    values: np.ndarray
    units: Units = Units.DIMENSIONLESS

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"Raster2D expects a 2D array, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"Raster2D dimensions must be positive, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("Raster2D values must be finite (no NaN/Inf)")
        if not isinstance(self.units, Units):
            raise ValueError(f"bad units: {self.units!r}")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple:
        return self.values.shape


@dataclass(frozen=True)
class MultiChannelImage:
    """Co-registered stack of named Raster2D channels.

    Channels keep their given order; ids must be unique, non-empty ASCII
    of at most 16 bytes (the limit of the GMS1 container header).
    """

    channels: tuple = field(default_factory=tuple)

    def __post_init__(self):
        chans = tuple((str(cid), r) for cid, r in self.channels)
        if not chans:
            raise ValueError("MultiChannelImage needs at least one channel")
        ids = [cid for cid, _ in chans]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate channel ids: {ids}")
        for cid, r in chans:
            if not isinstance(r, Raster2D):
                raise ValueError(f"channel {cid!r} is not a Raster2D")
            if not cid or not cid.isascii() or len(cid.encode("ascii")) > 16:
                raise ValueError(f"channel id {cid!r} must be 1..16 ASCII bytes")
        shapes = {r.shape for _, r in chans}
        if len(shapes) != 1:
            raise ValueError(f"channels disagree on shape: {sorted(shapes)}")
        object.__setattr__(self, "channels", chans)

    @property
    def channel_ids(self) -> tuple:
        return tuple(cid for cid, _ in self.channels)

    def raster(self, channel_id: str) -> Raster2D:
        for cid, r in self.channels:
            if cid == channel_id:
                return r
        raise KeyError(f"no channel {channel_id!r} (have {self.channel_ids})")

    @property
    def height(self) -> int:
        return self.channels[0][1].height

    @property
    def width(self) -> int:
        return self.channels[0][1].width


@dataclass(frozen=True)
class StructuringElement:
    """Flat square structuring element of size (2*radius+1) squared.

    Flat means all weights are zero, so dilation/erosion reduce to plain
    window max/min. Radius 0 is the single-pixel identity element.
    """

    radius: int

    def __post_init__(self):
        if not isinstance(self.radius, (int, np.integer)) or self.radius < 0:
            raise ValueError(f"radius must be a non-negative integer, got {self.radius!r}")
        object.__setattr__(self, "radius", int(self.radius))

    @property
    def size(self) -> int:
        return 2 * self.radius + 1


def _validate_labels(labels, kind, allow_zero):
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError(f"{kind} expects a 2D label array, got ndim={lab.ndim}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValueError(f"{kind} labels must be integers, got {lab.dtype}")
    if lab.min() < 0 or lab.max() > np.iinfo(np.int32).max:  # before the cast can wrap
        raise ValueError(f"{kind} labels must be non-negative int32 values")
    lab = lab.astype(np.int32)
    k = int(lab.max())
    if not allow_zero and k < 1:
        raise ValueError(f"{kind} must contain at least one positive label")
    if not allow_zero and (lab == 0).any():
        raise ValueError(f"{kind} must assign a positive label to every pixel")
    if k <= lab.size:
        seen = np.flatnonzero(np.bincount(lab.ravel(), minlength=k + 1))
    else:  # cannot be consecutive, and k may be huge: no array of size k
        seen = np.unique(lab)
    seen = seen[seen > 0]
    if seen.size < k:
        # the first 10 absent labels all lie in 1..seen.size + 10
        upto = np.arange(1, min(k, seen.size + 10) + 1)
        missing = upto[~np.isin(upto, seen)][:10].tolist()
        more = f" and {k - seen.size - 10} more" if k - seen.size > 10 else ""
        raise ValueError(f"{kind} labels must be consecutive 1..K, missing {missing}{more}")
    return lab, k


@dataclass(frozen=True)
class MarkerMap:
    """Integer-labeled seed components: 0 = non-seed, 1..K = seeds.

    Label consecutiveness is validated here; the single-8-connected-component
    property of each label is guaranteed by the producers (generate_markers)
    and checked by the test suite's brute-force flood oracle.
    """

    labels: np.ndarray

    def __post_init__(self):
        lab, _ = _validate_labels(self.labels, "MarkerMap", allow_zero=True)
        object.__setattr__(self, "labels", _freeze(lab))

    @property
    def count(self) -> int:
        return int(self.labels.max())

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple:
        return self.labels.shape


@dataclass(frozen=True)
class SegmentMap:
    """Labeled partition of the grid.

    Watershed output labels every pixel 1..K. Threshold/region-growing
    output may additionally use 0 for clear sky (``allow_zero=True``).
    """

    labels: np.ndarray
    allow_zero: bool = False

    def __post_init__(self):
        lab, _ = _validate_labels(self.labels, "SegmentMap", allow_zero=self.allow_zero)
        object.__setattr__(self, "labels", _freeze(lab))

    @property
    def count(self) -> int:
        return int(self.labels.max())

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple:
        return self.labels.shape


@dataclass(frozen=True)
class CloudMask:
    """Boolean cloud/clear raster (True = cloudy)."""

    flags: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.flags)
        if f.ndim != 2:
            raise ValueError(f"CloudMask expects a 2D array, got ndim={f.ndim}")
        if f.dtype != np.bool_:
            raise ValueError(f"CloudMask flags must be boolean, got {f.dtype}")
        object.__setattr__(self, "flags", _freeze(f))

    @property
    def height(self) -> int:
        return self.flags.shape[0]

    @property
    def width(self) -> int:
        return self.flags.shape[1]

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
    """Raise ValueError unless every mixing ratio is finite and non-negative.

    min and max propagate NaN and are infinite whenever any value is, so
    two reductions decide both rules without a temporary array.
    """
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("mixing ratios must be finite")
    if lo < 0:
        raise ValueError("mixing ratios must be non-negative")


@dataclass(frozen=True)
class HydrometeorVolume:
    """Stack of hydrometeor mixing-ratio fields, kg/kg.

    Layout is [species][level][row][col]; values must be finite and
    non-negative. Species ids come from HYDROMETEOR_SPECIES.
    """

    species: tuple
    values: np.ndarray

    def __post_init__(self):
        sp = check_species(self.species)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 4:
            raise ValueError(f"volume values must be 4D [species][level][row][col], got ndim={v.ndim}")
        if v.shape[0] != len(sp):
            raise ValueError(f"species axis {v.shape[0]} != {len(sp)} species ids")
        if v.shape[1] < 1 or v.shape[2] < 1 or v.shape[3] < 1:
            raise ValueError(f"volume dimensions must be positive, got {v.shape}")
        check_mixing_ratios(v)
        object.__setattr__(self, "species", sp)
        object.__setattr__(self, "values", _freeze(v))

    @property
    def levels(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[2]

    @property
    def width(self) -> int:
        return self.values.shape[3]
