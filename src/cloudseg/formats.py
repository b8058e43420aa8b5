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
level at a time), so neither direction holds the whole payload.
"""

import functools
import itertools
import math
import os
import struct

import numpy as np

from .raster import (
    MAX_ELEMENTS,
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

MAGIC_RASTER = b"GMS1"
MAGIC_VOLUME = b"GMSV"
VERSION = 1

DTYPE_F32 = 1
DTYPE_U8 = 2
DTYPE_U32 = 3
_NP_DTYPES = {DTYPE_F32: "<f4", DTYPE_U8: "u1", DTYPE_U32: "<u4"}

_ID_BYTES = 16


class FormatError(ValueError):
    """Malformed GMS1/GMSV file. The message states the specific defect."""


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


def _take(fh, size: int, what: str) -> bytes:
    offset = fh.tell()
    raw = fh.read(size)
    if len(raw) < size:
        raise FormatError(f"truncated payload: need {size} bytes for {what} at offset {offset}")
    return raw


def _unpack_ids(raw: bytes, count: int) -> list:
    ids = []
    for i in range(count):
        name = raw[i * _ID_BYTES:(i + 1) * _ID_BYTES].rstrip(b"\0")
        try:
            ids.append(name.decode("ascii"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII id at index {i}") from exc
    return ids


def _check_dims(*dims):
    total = 1
    for d in dims:
        if d == 0:
            raise FormatError(f"zero dimension in header: {dims}")
        total *= d
    if total > MAX_ELEMENTS:  # rejected as corrupt before any allocation
        raise FormatError(f"dimension overflow: {dims} implies {total} elements")
    return total


def _header(fh, magic: bytes, dtype_code: int, what: str):
    """Check the header of an open GMS1 or GMSV file that must hold `what`
    (e.g. "a u8 mask") data, and that the file is exactly as long as the
    header says, before any payload is read. Returns (header dims, ids)
    with `fh` at the payload; the last dim counts the ids (channels or
    species)."""
    head = _take(fh, 4, "magic")
    if head != magic:
        raise FormatError(f"bad magic {head!r}, expected {magic!r}")
    ndims = 4 if magic == MAGIC_VOLUME else 3
    version, code, reserved, *dims = struct.unpack("<BBH" + "I" * ndims, _take(fh, 4 + 4 * ndims, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if code not in _NP_DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    if code != dtype_code:
        raise FormatError(f"dtype code {code} is not {what} file")
    if reserved != 0:
        raise FormatError(f"reserved field must be 0, got {reserved}")
    total = _check_dims(*dims)
    size = fh.tell() + _ID_BYTES * dims[-1] + total * np.dtype(_NP_DTYPES[code]).itemsize
    actual = os.fstat(fh.fileno()).st_size
    if actual < size:
        raise FormatError(f"truncated payload: header implies {size} bytes, file has {actual}")
    if actual > size:
        raise FormatError(f"trailing data: {actual - size} unexpected bytes")
    return dims, _unpack_ids(_take(fh, _ID_BYTES * dims[-1], "ids"), dims[-1])


def _reader(read):
    """Report every invalid file as FormatError: the containers' own
    ValueErrors (duplicate ids, unknown species, label gaps...) included."""
    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(f"invalid contents: {exc}") from exc
    return checked


def _planes(path, magic: bytes, dtype_code: int, what: str):
    """Generator behind every reader: first (header dims, ids), once every
    header, id and file-size check has passed, then each (height, width)
    plane in file order, read into one reused read-only buffer and valid
    until the next: a GMS1 channel, or one species of a GMSV level (levels
    outermost, species in id order within each).
    Every payload value is judged here, a plane at a time: f32 channels finite,
    mask bytes 0 or 1, mixing ratios finite and non-negative."""
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
                elif dtype_code == DTYPE_U8 and plane.max() > 1:
                    raise ValueError("payload bytes must be 0 or 1")
            except ValueError as exc:
                where = f"level {k // len(ids)}" if volume else f"channel {ids[k]!r}"
                raise FormatError(f"invalid contents in {where}: {exc}") from exc
            yield plane


def _one_plane(path, dtype_code: int, what: str, channel_id: str) -> np.ndarray:
    """The one plane of a GMS1 file that must hold one channel of id channel_id."""
    planes = _planes(path, MAGIC_RASTER, dtype_code, what)
    (_, _, count), ids = next(planes)
    if count != 1:
        raise FormatError(f"{what} file must hold one channel, found {count}")
    if ids[0] != channel_id:
        raise FormatError(f"{what} file's channel id must be {channel_id!r}, got {ids[0]!r}")
    (plane,) = planes
    return plane


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
    return SegmentMap(_one_plane(path, DTYPE_U32, "a u32 segment", "labels"))


@_reader
def read_cloud_mask(path) -> CloudMask:
    """Read a GMS1 u8 mask file."""
    return CloudMask(_one_plane(path, DTYPE_U8, "a u8 mask", "mask").astype(bool))


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
