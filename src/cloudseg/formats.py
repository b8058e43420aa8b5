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
"""

import struct

import numpy as np

from .raster import CloudMask, MultiChannelImage, Raster2D, SegmentMap, HydrometeorVolume, Units

MAGIC_RASTER = b"GMS1"
MAGIC_VOLUME = b"GMSV"
VERSION = 1

DTYPE_F32 = 1
DTYPE_U8 = 2
DTYPE_U32 = 3

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
        body = b"".join(r.values.astype("<f4").tobytes() for _, r in payload.channels)
        return head + ids + body
    if isinstance(payload, SegmentMap):
        head = _raster_header(DTYPE_U32, payload.width, payload.height, 1)
        return head + _pack_id("labels") + payload.labels.astype("<u4").tobytes()
    if isinstance(payload, CloudMask):
        head = _raster_header(DTYPE_U8, payload.width, payload.height, 1)
        return head + _pack_id("mask") + payload.flags.astype(np.uint8).tobytes()
    raise TypeError(f"cannot encode {type(payload).__name__} as GMS1")


def write_raster_file(payload, path) -> None:
    """Write a GMS1 file. Identical payloads produce identical bytes."""
    data = encode_raster_file(payload)
    with open(path, "wb") as fh:
        fh.write(data)


def encode_volume_file(vol: HydrometeorVolume) -> bytes:
    head = MAGIC_VOLUME + struct.pack(
        "<BBHIIII", VERSION, DTYPE_F32, 0, vol.width, vol.height, vol.levels, len(vol.species)
    )
    ids = b"".join(_pack_id(s) for s in vol.species)
    # payload is level-major: for each level, one plane per species
    planes = vol.values.transpose(1, 0, 2, 3)
    return head + ids + np.ascontiguousarray(planes).astype("<f4").tobytes()


def write_volume_file(vol: HydrometeorVolume, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_volume_file(vol))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _take(buf: bytes, offset: int, size: int, what: str):
    if offset + size > len(buf):
        raise FormatError(f"truncated payload: need {size} bytes for {what} at offset {offset}")
    return buf[offset : offset + size], offset + size


def _unpack_ids(buf, offset, count):
    ids = []
    for i in range(count):
        raw, offset = _take(buf, offset, _ID_BYTES, f"id {i}")
        name = raw.rstrip(b"\0")
        try:
            ids.append(name.decode("ascii"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII id at index {i}") from exc
    return ids, offset


def _check_dims(*dims):
    total = 1
    for d in dims:
        if d == 0:
            raise FormatError(f"zero dimension in header: {dims}")
        total *= d
    if total > _MAX_ELEMENTS:
        raise FormatError(f"dimension overflow: {dims} implies {total} elements")
    return total


def _decode_raster(data: bytes):
    """Parse GMS1 bytes into (dtype_code, channel ids, list of 2D arrays)."""
    magic, off = _take(data, 0, 4, "magic")
    if magic != MAGIC_RASTER:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC_RASTER!r}")
    fixed, off = _take(data, off, 16, "header")
    version, dtype_code, reserved, width, height, count = struct.unpack("<BBHIII", fixed)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if dtype_code not in (DTYPE_F32, DTYPE_U8, DTYPE_U32):
        raise FormatError(f"unknown dtype code {dtype_code}")
    if reserved != 0:
        raise FormatError(f"reserved field must be 0, got {reserved}")
    total = _check_dims(width, height, count)
    ids, off = _unpack_ids(data, off, count)
    itemsize = {DTYPE_F32: 4, DTYPE_U8: 1, DTYPE_U32: 4}[dtype_code]
    body, off = _take(data, off, total * itemsize, "payload")
    if off != len(data):
        raise FormatError(f"trailing data: {len(data) - off} unexpected bytes")
    np_dtype = {DTYPE_F32: "<f4", DTYPE_U8: "u1", DTYPE_U32: "<u4"}[dtype_code]
    flat = np.frombuffer(body, dtype=np_dtype)
    planes = [flat[i * width * height : (i + 1) * width * height].reshape(height, width) for i in range(count)]
    return dtype_code, ids, planes


def read_raster_file(path, units: Units = Units.KELVIN) -> MultiChannelImage:
    """Read a GMS1 multi-channel (f32) raster file.

    The container does not record units, so the caller states what the
    values are; scenes default to kelvin, gradient files are dimensionless.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    dtype_code, ids, planes = _decode_raster(data)
    if dtype_code != DTYPE_F32:
        raise FormatError(f"dtype code {dtype_code} is not an f32 image file")
    channels = []
    for cid, plane in zip(ids, planes):
        values = plane.astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise FormatError(f"non-finite payload values in channel {cid!r}")
        channels.append((cid, Raster2D(values, units)))
    return MultiChannelImage(tuple(channels))


def read_segment_map(path) -> SegmentMap:
    """Read a GMS1 u32 label file as a SegmentMap (0 = clear allowed)."""
    with open(path, "rb") as fh:
        data = fh.read()
    dtype_code, _, planes = _decode_raster(data)
    if dtype_code != DTYPE_U32:
        raise FormatError(f"dtype code {dtype_code} is not a u32 segment file")
    if len(planes) != 1:
        raise FormatError(f"segment file must hold one channel, found {len(planes)}")
    labels = planes[0].astype(np.int64)
    if labels.max() >= _MAX_ELEMENTS:
        raise FormatError("label value overflow")
    try:
        return SegmentMap(labels.astype(np.int32), allow_zero=True)
    except ValueError as exc:
        raise FormatError(f"invalid segment labels: {exc}") from exc


def read_cloud_mask(path) -> CloudMask:
    """Read a GMS1 u8 mask file."""
    with open(path, "rb") as fh:
        data = fh.read()
    dtype_code, _, planes = _decode_raster(data)
    if dtype_code != DTYPE_U8:
        raise FormatError(f"dtype code {dtype_code} is not a u8 mask file")
    if len(planes) != 1:
        raise FormatError(f"mask file must hold one channel, found {len(planes)}")
    plane = planes[0]
    if not np.isin(plane, (0, 1)).all():
        raise FormatError("mask payload bytes must be 0 or 1")
    return CloudMask(plane.astype(bool))


def read_volume_file(path) -> HydrometeorVolume:
    """Read a GMSV hydrometeor volume file."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, off = _take(data, 0, 4, "magic")
    if magic != MAGIC_VOLUME:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC_VOLUME!r}")
    fixed, off = _take(data, off, 20, "header")
    version, dtype_code, reserved, width, height, levels, nspecies = struct.unpack("<BBHIIII", fixed)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if dtype_code != DTYPE_F32:
        raise FormatError(f"unknown dtype code {dtype_code} for volume")
    if reserved != 0:
        raise FormatError(f"reserved field must be 0, got {reserved}")
    total = _check_dims(width, height, levels, nspecies)
    species, off = _unpack_ids(data, off, nspecies)
    body, off = _take(data, off, total * 4, "payload")
    if off != len(data):
        raise FormatError(f"trailing data: {len(data) - off} unexpected bytes")
    planes = np.frombuffer(body, dtype="<f4").reshape(levels, nspecies, height, width)
    values = planes.transpose(1, 0, 2, 3).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise FormatError("non-finite payload values in volume")
    return HydrometeorVolume(tuple(species), values)
