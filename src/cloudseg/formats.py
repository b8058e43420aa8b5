"""GMS1 / GMSV binary container codec.

GMS1 holds a stack of co-registered 2D channels; GMSV holds a hydrometeor
volume. Both are little-endian throughout and bit-exact: encoding the
result of a decode reproduces the input file byte for byte.

GMS1 layout::

    offset  size  field
    0       4     magic  b"GMS1"
    4       1     version, u8 = 1
    5       1     dtype,   u8: 1 = f32, 2 = u8, 3 = u32
    6       2     reserved, u16 = 0
    8       4     width,  u32
    12      4     height, u32
    16      4     channel_count, u32
    20      16*C  channel ids, ASCII zero-padded to 16 bytes each
    ...           payload: channel-major, row-major, little-endian

GMSV layout replaces the channel axis with species and adds a level axis::

    0       4     magic  b"GMSV"
    4       1     version, u8 = 1
    5       1     dtype,   u8 = 1 (f32)
    6       2     reserved, u16 = 0
    8       4     width,  u32
    12      4     height, u32
    16      4     level_count, u32
    20      4     species_count, u32
    24      16*S  species ids, ASCII zero-padded
    ...           payload: level-major (levels are the slowest axis), one
                  row-major plane per species within each level, f32 LE

Multi-channel imagery encodes as f32 (dtype 1), cloud masks as u8
(dtype 2, one byte 0/1 per pixel), segment maps as u32 (dtype 3).

Both formats are one frame: a header with its ids, then (height, width)
planes, each a GMS1 channel or one species of a GMSV level. Every reader
takes the planes one at a time into one reused plane buffer after the
header, id and file-size checks, and every write streams them (a GMSV
level at a time), so neither direction holds the whole payload. The
header reader, the format constants, FormatError and the mask reader
``read_mask_bytes`` live in the numpy-free ``base``.
"""

import itertools
import math
import struct

import numpy as np

from .base import (_ID_BYTES, DTYPE_F32, DTYPE_U8, DTYPE_U32, MAGIC_RASTER, MAGIC_VOLUME, VERSION, FormatError,
                   _check_dims, _header, _one_channel, _reader, read_mask_bytes)
from .raster import (
    CloudMask,
    HydrometeorVolume,
    MultiChannelImage,
    Raster2D,
    SegmentMap,
    Units,
    check_mixing_ratios,
    check_species,
    finite_bounds,
)

_NP_DTYPES = {DTYPE_F32: "<f4", DTYPE_U8: "u1", DTYPE_U32: "<u4"}


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _as_f32(values: np.ndarray, what: str) -> np.ndarray:
    """values as C-contiguous little-endian f32; one beyond f32's range is a ValueError, not inf."""
    with np.errstate(over="raise"):
        try:
            return values.astype(_NP_DTYPES[DTYPE_F32], order="C")
        except FloatingPointError:
            raise ValueError(f"{what} holds {np.abs(values).max():.6g}, beyond float32's range") from None


def _frame(magic: bytes, dtype_code: int, dims: tuple, ids, planes):
    """A GMS1 or GMSV file in pieces: the header, whose dims end in the
    id count, with the ids, then each of `planes` as one C-contiguous
    little-endian array (bytes.join and file.writelines take it as a
    buffer), so a write holds a plane at a time, not the whole payload."""
    yield magic + struct.pack(f"<BBH{len(dims) + 1}I", VERSION, dtype_code, 0, *dims, len(ids)) + b"".join(
        name.encode("ascii").ljust(_ID_BYTES, b"\0") for name in ids)  # the containers judged the ids
    for plane in planes:
        yield np.ascontiguousarray(plane, _NP_DTYPES[dtype_code])


def _raster_frame(payload):
    """The GMS1 frame of a MultiChannelImage, SegmentMap or CloudMask; any
    other type raises TypeError here, before a write opens its file."""
    if isinstance(payload, MultiChannelImage):
        code, ids = DTYPE_F32, payload.channel_ids
        planes = (_as_f32(r.values, f"channel {cid!r}") for cid, r in payload.channels)
    elif isinstance(payload, SegmentMap):
        code, ids, planes = DTYPE_U32, ("labels",), (payload.labels,)
    elif isinstance(payload, CloudMask):
        code, ids, planes = DTYPE_U8, ("mask",), (payload.flags,)
    else:
        raise TypeError(f"cannot encode {type(payload).__name__} as GMS1")
    return _frame(MAGIC_RASTER, code, (payload.width, payload.height), ids, planes)


def _volume_frame(vol: HydrometeorVolume):
    # payload is level-major: for each level, one plane per species
    levels = (_as_f32(vol.values[:, k], f"level {k}") for k in range(vol.levels))
    return _frame(MAGIC_VOLUME, DTYPE_F32, (vol.width, vol.height, vol.levels), vol.species, levels)


def encode_raster_file(payload) -> bytes:
    """Serialize a MultiChannelImage, SegmentMap or CloudMask to GMS1 bytes."""
    return b"".join(_raster_frame(payload))


def write_raster_file(payload, path) -> None:
    """Write a GMS1 file. Identical payloads produce identical bytes."""
    frame = _raster_frame(payload)
    with open(path, "wb") as fh:
        fh.writelines(frame)


def encode_volume_file(vol: HydrometeorVolume) -> bytes:
    return b"".join(_volume_frame(vol))


def write_volume_file(vol: HydrometeorVolume, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_volume_frame(vol))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _planes(path, magic: bytes, dtype_code: int, what: str):
    """Generator behind every reader: first (header dims, ids), once every
    header, id and file-size check has passed, then each (height, width)
    plane in file order, read into one reused read-only buffer and valid
    until the next: a GMS1 channel, or one species of a GMSV level (levels
    outermost, species in id order within each).
    Every payload value is judged here, a plane at a time: f32 channels finite,
    mixing ratios finite and non-negative."""
    with open(path, "rb") as fh:
        dims, ids = _header(fh, magic, dtype_code, what)
        yield dims, ids
        width, height, *counts = dims  # GMS1: channels; GMSV: levels, species
        buf = np.empty((height, width), dtype=_NP_DTYPES[dtype_code])
        plane = buf.view()
        plane.setflags(write=False)
        volume = magic == MAGIC_VOLUME
        for k in range(math.prod(counts)):
            if fh.readinto(buf) != buf.nbytes:  # the file shrank after the size check
                raise FormatError(f"truncated payload in plane {k}")
            try:
                if volume:
                    check_mixing_ratios(plane)
                elif dtype_code == DTYPE_F32 and finite_bounds(plane) is None:  # before a float64 cast
                    raise ValueError("non-finite payload values")
            except ValueError as exc:
                where = f"level {k // len(ids)}" if volume else f"channel {ids[k]!r}"
                raise FormatError(f"invalid contents in {where}: {exc}") from exc
            yield plane


@_reader
def read_raster_file(path) -> MultiChannelImage:
    """Read a GMS1 multi-channel (f32) raster file.

    The container does not record units; channels are read as kelvin.
    """
    planes = _planes(path, MAGIC_RASTER, DTYPE_F32, "an f32 image")
    _, ids = next(planes)
    # each Raster2D is a float64 copy of the buffer
    return MultiChannelImage(tuple((cid, Raster2D(p, Units.KELVIN)) for cid, p in zip(ids, planes, strict=True)))


@_reader
def read_segment_map(path) -> SegmentMap:
    """Read a GMS1 u32 label file as a SegmentMap (0 = unlabeled)."""
    planes = _planes(path, MAGIC_RASTER, DTYPE_U32, "a u32 segment")
    _one_channel(*next(planes), "a u32 segment", "labels")
    (plane,) = planes
    return SegmentMap(plane)


@_reader
def read_cloud_mask(path) -> CloudMask:
    """Read a GMS1 u8 mask file: read_mask_bytes's payload viewed as bools."""
    shape, payload = read_mask_bytes(path)
    return CloudMask(np.frombuffer(payload, bool).reshape(shape))


@_reader
def read_volume_levels(path):
    """Open a GMSV hydrometeor volume for reading one species plane at a time.

    The header, species and file size are checked before this returns, so
    a malformed, truncated or overlong file fails before any plane is read;
    a bad value raises FormatError, naming its level, from the iterator
    that reads it.

    Returns:
        (species, (levels, height, width), levels). ``levels`` yields each
        level in file order as an iterator over its species planes, each a
        read-only (height, width) f32 array in species order. All planes
        share one buffer: a plane is valid only until the next one is read,
        so copy what must outlive that. Before the next level is yielded,
        whatever the caller left of the previous one is read and judged, so
        each level starts at its own first plane.
    """
    planes = _planes(path, MAGIC_VOLUME, DTYPE_F32, "an f32 volume")
    (width, height, levels, _), ids = next(planes)
    species = check_species(ids)
    return species, (levels, height, width), _levels(planes, levels, len(species))


def _levels(planes, count: int, nspecies: int):
    for _ in range(count):
        level = itertools.islice(planes, nspecies)
        yield level
        for _ in level:  # what the caller left of this level
            pass


@_reader
def read_volume_file(path) -> HydrometeorVolume:
    """Read a GMSV hydrometeor volume file: read_volume_levels, copied
    plane by plane into one float64 array that the container keeps."""
    species, (levels, height, width), planes = read_volume_levels(path)
    values = np.empty((len(species), levels, height, width))
    for k, level in enumerate(planes):
        for s, plane in enumerate(level):
            values[s, k] = plane
    return HydrometeorVolume(species, values)
