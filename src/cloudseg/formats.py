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

Level-major order lets a volume stream: ``read_volume_levels`` yields it
one level at a time and ``write_volume_file`` writes it that way, so
neither holds the whole f32 payload.
"""

import functools
import os
import struct

import numpy as np

from .raster import (
    CloudMask,
    HydrometeorVolume,
    MultiChannelImage,
    Raster2D,
    SegmentMap,
    Units,
    check_mixing_ratios,
    check_species,
)

MAGIC_RASTER = b"GMS1"
MAGIC_VOLUME = b"GMSV"
VERSION = 1

DTYPE_F32 = 1
DTYPE_U8 = 2
DTYPE_U32 = 3
_NP_DTYPES = {DTYPE_F32: "<f4", DTYPE_U8: "u1", DTYPE_U32: "<u4"}

_ID_BYTES = 16
# Hard cap on total payload elements; headers promising more are rejected
# as corrupt before any allocation is attempted.
_MAX_ELEMENTS = 2 ** 31


class FormatError(ValueError):
    """Malformed GMS1/GMSV file. The message states the specific defect."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _pack_id(name: str) -> bytes:
    raw = name.encode("ascii")
    if not 1 <= len(raw) <= _ID_BYTES:
        raise ValueError(f"id {name!r} must be 1..{_ID_BYTES} ASCII bytes")
    return raw.ljust(_ID_BYTES, b"\0")


def _raster_header(dtype_code: int, width: int, height: int, count: int) -> bytes:
    return MAGIC_RASTER + struct.pack("<BBHIII", VERSION, dtype_code, 0, width, height, count)


def encode_raster_file(payload) -> bytes:
    """Serialize a MultiChannelImage, SegmentMap or CloudMask to GMS1 bytes."""
    if isinstance(payload, MultiChannelImage):
        head = _raster_header(DTYPE_F32, payload.width, payload.height, len(payload.channels))
        ids = b"".join(_pack_id(cid) for cid, _ in payload.channels)
        body = b"".join(r.values.astype(_NP_DTYPES[DTYPE_F32]).tobytes() for _, r in payload.channels)
        return head + ids + body
    if isinstance(payload, SegmentMap):
        head = _raster_header(DTYPE_U32, payload.width, payload.height, 1)
        return head + _pack_id("labels") + payload.labels.astype(_NP_DTYPES[DTYPE_U32]).tobytes()
    if isinstance(payload, CloudMask):
        head = _raster_header(DTYPE_U8, payload.width, payload.height, 1)
        return head + _pack_id("mask") + payload.flags.astype(_NP_DTYPES[DTYPE_U8]).tobytes()
    raise TypeError(f"cannot encode {type(payload).__name__} as GMS1")


def write_raster_file(payload, path) -> None:
    """Write a GMS1 file. Identical payloads produce identical bytes."""
    data = encode_raster_file(payload)
    with open(path, "wb") as fh:
        fh.write(data)


def _volume_chunks(vol: HydrometeorVolume):
    """The GMSV file in pieces: the header with the species ids, then one
    level at a time, so a write holds one f32 level, not the whole payload."""
    yield MAGIC_VOLUME + struct.pack(
        "<BBHIIII", VERSION, DTYPE_F32, 0, vol.width, vol.height, vol.levels, len(vol.species)
    ) + b"".join(_pack_id(s) for s in vol.species)
    # payload is level-major: for each level, one plane per species
    for k in range(vol.levels):
        yield vol.values[:, k].astype(_NP_DTYPES[DTYPE_F32]).tobytes()


def encode_volume_file(vol: HydrometeorVolume) -> bytes:
    return b"".join(_volume_chunks(vol))


def write_volume_file(vol: HydrometeorVolume, path) -> None:
    with open(path, "wb") as fh:
        for chunk in _volume_chunks(vol):
            fh.write(chunk)


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
    if total > _MAX_ELEMENTS:
        raise FormatError(f"dimension overflow: {dims} implies {total} elements")
    return total


def _header(fh, magic: bytes, dtype_code: int, what: str):
    """Check the header of an open GMS1 or GMSV file that must hold `what`
    (e.g. "a u8 mask") data, and that the file is exactly as long as the
    header says, before any payload is read. Returns (header dims, ids,
    payload element count) with `fh` at the payload; the last dim counts
    the ids (channels or species)."""
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
    ids = _unpack_ids(_take(fh, _ID_BYTES * dims[-1], "ids"), dims[-1])
    return dims, ids, total


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


def _read_gms1(path, dtype_code: int, what: str, channel_id=None):
    """GMS1 channel ids and (channels, height, width) planes; with
    channel_id, exactly one channel of that id."""
    np_dtype = np.dtype(_NP_DTYPES[dtype_code])
    with open(path, "rb") as fh:
        (width, height, count), ids, total = _header(fh, MAGIC_RASTER, dtype_code, what)
        payload = _take(fh, total * np_dtype.itemsize, "payload")
    if channel_id is not None:
        if count != 1:
            raise FormatError(f"{what} file must hold one channel, found {count}")
        if ids[0] != channel_id:
            raise FormatError(f"{what} file's channel id must be {channel_id!r}, got {ids[0]!r}")
    # a read-only view of the payload bytes, not a copy
    return ids, np.frombuffer(payload, dtype=np_dtype, count=total).reshape(count, height, width)


@_reader
def read_raster_file(path) -> MultiChannelImage:
    """Read a GMS1 multi-channel (f32) raster file.

    The container does not record units; channels are read as kelvin.
    """
    ids, planes = _read_gms1(path, DTYPE_F32, "an f32 image")
    channels = []
    for cid, plane in zip(ids, planes):
        if not np.all(np.isfinite(plane)):
            raise FormatError(f"non-finite payload values in channel {cid!r}")
        channels.append((cid, Raster2D(plane, Units.KELVIN)))
    return MultiChannelImage(tuple(channels))


@_reader
def read_segment_map(path) -> SegmentMap:
    """Read a GMS1 u32 label file as a SegmentMap (0 = clear allowed)."""
    _, (labels,) = _read_gms1(path, DTYPE_U32, "a u32 segment", "labels")
    return SegmentMap(labels, allow_zero=True)


@_reader
def read_cloud_mask(path) -> CloudMask:
    """Read a GMS1 u8 mask file."""
    _, (plane,) = _read_gms1(path, DTYPE_U8, "a u8 mask", "mask")
    if not np.isin(plane, (0, 1)).all():
        raise FormatError("mask payload bytes must be 0 or 1")
    return CloudMask(plane.astype(bool))


def _volume_levels(path):
    """Generator behind both volume readers: first (species, shape), then
    the levels, each read into the same buffer. The values are not
    checked here; each reader checks them once."""
    with open(path, "rb") as fh:
        (width, height, levels, nspecies), ids, _ = _header(fh, MAGIC_VOLUME, DTYPE_F32, "an f32 volume")
        yield check_species(ids), (levels, height, width)
        buf = np.empty((nspecies, height, width), dtype=_NP_DTYPES[DTYPE_F32])
        plane = buf.view()
        plane.setflags(write=False)
        for k in range(levels):
            if fh.readinto(buf) != buf.nbytes:  # the file shrank after the size check
                raise FormatError(f"truncated payload in level {k}")
            yield plane


def _checked_levels(planes):
    """The levels of `planes`, each checked finite and non-negative as it is read."""
    for k, plane in enumerate(planes):
        try:
            check_mixing_ratios(plane)
        except ValueError as exc:
            raise FormatError(f"invalid contents in level {k}: {exc}") from exc
        yield plane


@_reader
def read_volume_levels(path):
    """Open a GMSV hydrometeor volume for reading one level at a time.

    Every header check, the species rules and the file-size check run
    before this returns, so a malformed, truncated or overlong file raises
    FormatError before any level is read. The levels are then checked one
    by one as they are read (finite, non-negative), so a bad level raises
    FormatError from the iterator.

    Returns:
        (species, (levels, height, width), planes). ``planes`` yields each
        level in file order as a read-only (species, height, width) f32
        array. All levels share one buffer: a plane is valid only until
        the next one is read, so copy what must outlive that.
    """
    planes = _volume_levels(path)
    species, shape = next(planes)
    return species, shape, _checked_levels(planes)


@_reader
def read_volume_file(path) -> HydrometeorVolume:
    """Read a GMSV hydrometeor volume file."""
    planes = _volume_levels(path)
    species, shape = next(planes)
    # one float64 copy, filled level by level, then checked and kept as is
    # by the container
    values = np.empty((len(species), *shape))
    for k, plane in enumerate(planes):
        values[:, k] = plane
    return HydrometeorVolume(species, values)
