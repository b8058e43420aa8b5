"""What every CLI command needs before it touches an array, without numpy:
the preset names, the truth-mask threshold, the codec's element cap, the
errors of exit codes 3 and 2, the numeric-parameter rule, and the GMS1/GMSV
header reader (``formats`` documents the layouts). ``read_mask_bytes`` reads
a mask as bytes, so ``evaluate`` loads no numpy. ``raster`` and ``formats``
re-export these names.
"""

import functools
import math
import os
import struct
import sys

MIXING_RATIO_THRESHOLD = 1e-6  # kg/kg: a column above it is cloud in the truth mask
PRESET_NAMES = ("harvey_like", "mixed", "warm_stratiform", "wyoming_like")
# The most payload elements a GMS1 or GMSV file may hold: the codec reads
# no header that promises more, and synth renders no scene whose volume
# would hold more.
MAX_ELEMENTS = 2 ** 31

MAGIC_RASTER = b"GMS1"
MAGIC_VOLUME = b"GMSV"
VERSION = 1

DTYPE_F32 = 1
DTYPE_U8 = 2
DTYPE_U32 = 3
_ITEMSIZE = {DTYPE_F32: 4, DTYPE_U8: 1, DTYPE_U32: 4}
_ID_BYTES = 16


class PreconditionError(ValueError):
    """An algorithm's input leaves it nothing to do: a constant field, no
    seed regions, no markers."""


class FormatError(ValueError):
    """Malformed GMS1/GMSV file. The message states the specific defect."""


def check_number(value, name: str, kind=float, low=-math.inf, high=math.inf):
    """value as a finite ``kind`` (int or float) in [low, high], else a
    ValueError naming the parameter and its range.

    An int must already be a Python or numpy integer: nothing is rounded.
    A float is ``float(value)``. A bool is neither. -inf < x < inf is false
    for NaN and, unlike math.isfinite, takes any int.
    """
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    bools, ints = ((bool, np.bool_), (int, np.integer)) if np else (bool, int)
    number = math.nan  # fails the test below
    if not isinstance(value, bools) and (kind is float or isinstance(value, ints)):
        try:
            number = kind(value)
        except (OverflowError, ValueError):  # an int beyond float's range, or text that is no number
            pass
    if not (-math.inf < number < math.inf and low <= number <= high):
        raise ValueError(f"{name} must be a finite {kind.__name__} in [{low}, {high}], got {value!r}")
    return number


def parse_channel_ids(text: str) -> tuple:
    """The stripped ids of a comma-separated list, empty entries dropped."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


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
    if code not in _ITEMSIZE:
        raise FormatError(f"unknown dtype code {code}")
    if code != dtype_code:
        raise FormatError(f"dtype code {code} is not {what} file")
    if reserved != 0:
        raise FormatError(f"reserved field must be 0, got {reserved}")
    total = _check_dims(*dims)
    size = fh.tell() + _ID_BYTES * dims[-1] + total * _ITEMSIZE[code]
    actual = os.fstat(fh.fileno()).st_size
    if actual < size:
        raise FormatError(f"truncated payload: header implies {size} bytes, file has {actual}")
    if actual > size:
        raise FormatError(f"trailing data: {actual - size} unexpected bytes")
    return dims, _unpack_ids(_take(fh, _ID_BYTES * dims[-1], "ids"), dims[-1])


def _one_channel(dims, ids, what: str, channel_id: str) -> tuple:
    """(height, width) of a GMS1 header that must hold one channel of id channel_id."""
    width, height, count = dims
    if count != 1:
        raise FormatError(f"{what} file must hold one channel, found {count}")
    if ids[0] != channel_id:
        raise FormatError(f"{what} file's channel id must be {channel_id!r}, got {ids[0]!r}")
    return height, width


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


@_reader
def read_mask_bytes(path) -> tuple:
    """Read a GMS1 u8 mask file as ((height, width), payload): one byte,
    0 or 1, per pixel, row-major. ``formats.read_cloud_mask`` views the
    payload as a CloudMask."""
    with open(path, "rb") as fh:
        shape = _one_channel(*_header(fh, MAGIC_RASTER, DTYPE_U8, "a u8 mask"), "a u8 mask", "mask")
        payload = _take(fh, shape[0] * shape[1], "the mask")  # short only if the file shrank since _header
    if payload.translate(None, b"\0\1"):
        raise FormatError("invalid contents in channel 'mask': payload bytes must be 0 or 1")
    return shape, payload
