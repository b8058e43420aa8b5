"""GMS1/GMSV codec: golden bytes, round trips, distinct failure modes,
and the decode contract: round trip or FormatError, nothing else."""

import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cloudseg
from cloudseg import (
    CloudMask,
    FormatError,
    HydrometeorVolume,
    MultiChannelImage,
    Raster2D,
    SegmentMap,
    Units,
    derive_truth_mask,
    read_cloud_mask,
    read_raster_file,
    read_segment_map,
    read_volume_file,
    read_volume_levels,
    write_raster_file,
    write_volume_file,
)
from cloudseg import cli
from cloudseg.formats import encode_raster_file, encode_volume_file


def one_channel(values, cid="ir_window"):
    return MultiChannelImage(((cid, Raster2D(values, Units.KELVIN)),))


def header(dtype, width, height, count):
    return b"GMS1" + struct.pack("<BBHIII", 1, dtype, 0, width, height, count)


def volume_header(width, height, levels, nspecies):
    return b"GMSV" + struct.pack("<BBHIIII", 1, 1, 0, width, height, levels, nspecies)


def ids(*names):
    return b"".join(name.encode("ascii").ljust(16, b"\0") for name in names)


def f32(*values):
    return np.array(values, "<f4").tobytes()


class TestGoldenBytes:
    def test_f32_header_and_payload(self):
        img = one_channel([[280.0, 281.0], [282.0, 283.0]])
        data = encode_raster_file(img)
        assert data[:20] == header(1, 2, 2, 1)
        assert data[20:36] == b"ir_window".ljust(16, b"\0")
        assert data[36:] == np.array([280, 281, 282, 283], dtype="<f4").tobytes()

    def test_single_true_mask_payload_byte(self):
        data = encode_raster_file(CloudMask(np.array([[True]])))
        assert data[:20] == header(2, 1, 1, 1)
        assert data[36:] == b"\x01"

    def test_segment_labels_little_endian_u32(self):
        data = encode_raster_file(SegmentMap(np.array([[1, 2]])))
        assert data[36:] == bytes([1, 0, 0, 0, 2, 0, 0, 0])

    def test_volume_header(self):
        vol = HydrometeorVolume(("rain",), np.zeros((1, 2, 3, 4)))
        data = encode_volume_file(vol)
        assert data[:24] == b"GMSV" + struct.pack("<BBHIIII", 1, 1, 0, 4, 3, 2, 1)
        assert len(data) == 24 + 16 + 4 * 24

    def test_volume_payload_is_level_major(self):
        # values[s, l] = 10*s + l makes the plane order readable in bytes
        values = np.zeros((2, 2, 1, 1))
        for s in range(2):
            for l in range(2):
                values[s, l] = 10.0 * s + l
        vol = HydrometeorVolume(("cloud_water", "snow"), values)
        payload = encode_volume_file(vol)[24 + 32:]
        planes = np.frombuffer(payload, dtype="<f4")
        # level 0: species 0 then 1; level 1: species 0 then 1
        np.testing.assert_array_equal(planes, [0.0, 10.0, 1.0, 11.0])


class TestRoundTrips:
    def test_decode_example_file(self, tmp_path):
        path = tmp_path / "scene.gms1"
        write_raster_file(one_channel([[280.0, 281.0], [282.0, 283.0]]), path)
        img = read_raster_file(path)
        assert img.channel_ids == ("ir_window",)
        np.testing.assert_array_equal(img.raster("ir_window").values, [[280.0, 281.0], [282.0, 283.0]])

    def test_read_then_write_is_byte_identical(self, tmp_path, rng):
        values = rng.normal(270.0, 20.0, size=(7, 5)).astype(np.float32).astype(np.float64)
        src = tmp_path / "a.gms1"
        dst = tmp_path / "b.gms1"
        img = MultiChannelImage((
            ("ir_window", Raster2D(values, Units.KELVIN)),
            ("water_vapor", Raster2D(values + 10.0, Units.KELVIN)),
        ))
        write_raster_file(img, src)
        write_raster_file(read_raster_file(src), dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_mask_and_segment_round_trips(self, tmp_path, rng):
        mask = CloudMask(rng.random((6, 9)) > 0.5)
        p = tmp_path / "m.gms1"
        write_raster_file(mask, p)
        np.testing.assert_array_equal(read_cloud_mask(p).flags, mask.flags)
        assert encode_raster_file(read_cloud_mask(p)) == p.read_bytes()

        from cloudseg import label_components
        seg = SegmentMap(label_components(rng.random((6, 9)) > 0.3) + 1)
        p2 = tmp_path / "s.gms1"
        write_raster_file(seg, p2)
        np.testing.assert_array_equal(read_segment_map(p2).labels, seg.labels)
        assert encode_raster_file(read_segment_map(p2)) == p2.read_bytes()

    def test_volume_round_trip(self, tmp_path, rng):
        values = (rng.random((2, 3, 4, 5)) * 1e-5).astype(np.float32).astype(np.float64)
        vol = HydrometeorVolume(("cloud_ice", "graupel"), values)
        p = tmp_path / "v.gmsv"
        write_volume_file(vol, p)
        back = read_volume_file(p)
        assert back.species == ("cloud_ice", "graupel")
        np.testing.assert_array_equal(back.values, values)
        assert encode_volume_file(back) == p.read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)], ids=["1x1", "1xN", "Nx1"])
    def test_every_container_round_trips(self, tmp_path, shape):
        """What a constructor accepts, the codec writes and reads back, down
        to one row or column and ids of 1 and 16 characters."""
        values = np.arange(float(np.prod(shape))).reshape(shape) + 200.0
        ir, wv = Raster2D(values, Units.KELVIN), Raster2D(values + 0.5, Units.KELVIN)
        ratios = np.stack([[values, values + 1], [values + 2, values + 3]]) / 64  # f32-exact
        cases = [
            (MultiChannelImage((("a", ir), (16 * "z", wv))), read_raster_file,
             lambda c: (c.channel_ids, [r.values for _, r in c.channels])),
            (SegmentMap(np.arange(values.size).reshape(shape) % 3), read_segment_map, lambda c: c.labels),
            (CloudMask(values % 2 == 0), read_cloud_mask, lambda c: c.flags),
            (HydrometeorVolume(("rain", "snow"), ratios), read_volume_file, lambda c: (c.species, c.values)),
        ]
        for i, (container, read, contents) in enumerate(cases):
            path = tmp_path / str(i)
            write = write_volume_file if read is read_volume_file else write_raster_file
            write(container, path)
            back = read(path)
            assert (back.shape, back.height, back.width) == (container.shape, *shape)
            np.testing.assert_equal(contents(back), contents(container))

    def test_writes_are_deterministic(self, tmp_path):
        img = one_channel([[1.5, 2.5]])
        a, b = tmp_path / "a", tmp_path / "b"
        write_raster_file(img, a)
        write_raster_file(img, b)
        assert a.read_bytes() == b.read_bytes()


class TestDistinctErrors:
    """Each malformation is reported with its own diagnostic."""

    def _decode(self, tmp_path, data):
        p = tmp_path / "bad.gms1"
        p.write_bytes(data)
        return p

    def test_bad_magic(self, tmp_path):
        p = self._decode(tmp_path, b"NOPE" + bytes(40))
        with pytest.raises(FormatError, match="magic"):
            read_raster_file(p)

    def test_bad_version(self, tmp_path):
        data = b"GMS1" + struct.pack("<BBHIII", 9, 1, 0, 1, 1, 1) + bytes(16) + bytes(4)
        with pytest.raises(FormatError, match="version"):
            read_raster_file(self._decode(tmp_path, data))

    def test_bad_dtype_code(self, tmp_path):
        data = b"GMS1" + struct.pack("<BBHIII", 1, 7, 0, 1, 1, 1) + bytes(16) + bytes(4)
        with pytest.raises(FormatError, match="dtype"):
            read_raster_file(self._decode(tmp_path, data))

    def test_zero_dimension(self, tmp_path):
        data = b"GMS1" + struct.pack("<BBHIII", 1, 1, 0, 0, 4, 1) + bytes(16)
        with pytest.raises(FormatError, match="zero dimension"):
            read_raster_file(self._decode(tmp_path, data))

    def test_dimension_overflow(self, tmp_path):
        data = b"GMS1" + struct.pack("<BBHIII", 1, 1, 0, 2 ** 30, 2 ** 30, 4) + bytes(16)
        with pytest.raises(FormatError, match="overflow"):
            read_raster_file(self._decode(tmp_path, data))

    def test_truncated_payload(self, tmp_path):
        good = encode_raster_file(one_channel([[1.0, 2.0]]))
        with pytest.raises(FormatError, match="truncated"):
            read_raster_file(self._decode(tmp_path, good[:-3]))

    def test_trailing_data(self, tmp_path):
        good = encode_raster_file(one_channel([[1.0, 2.0]]))
        with pytest.raises(FormatError, match="trailing"):
            read_raster_file(self._decode(tmp_path, good + b"\0"))

    def test_non_finite_payload(self, tmp_path):
        data = header(1, 1, 1, 1) + b"t".ljust(16, b"\0") + np.array([np.nan], "<f4").tobytes()
        with pytest.raises(FormatError, match="non-finite"):
            read_raster_file(self._decode(tmp_path, data))

    def test_dtype_mismatch_between_readers(self, tmp_path):
        mask_path = tmp_path / "m.gms1"
        write_raster_file(CloudMask(np.array([[True]])), mask_path)
        with pytest.raises(FormatError, match="not an f32"):
            read_raster_file(mask_path)
        scene_path = tmp_path / "s.gms1"
        write_raster_file(one_channel([[1.0]]), scene_path)
        with pytest.raises(FormatError, match="not a u8"):
            read_cloud_mask(scene_path)
        with pytest.raises(FormatError, match="not a u32"):
            read_segment_map(scene_path)

    def test_mask_payload_must_be_binary(self, tmp_path):
        data = header(2, 1, 1, 1) + b"mask".ljust(16, b"\0") + b"\x05"
        with pytest.raises(FormatError, match="0 or 1"):
            read_cloud_mask(self._decode(tmp_path, data))

    def test_segment_label_gap(self, tmp_path):
        labels = np.array([1, 2, 5, 5], "<u4").tobytes()
        data = header(3, 2, 2, 1) + b"labels".ljust(16, b"\0") + labels
        with pytest.raises(FormatError, match=r"missing \[3, 4\]"):
            read_segment_map(self._decode(tmp_path, data))

    def test_volume_bad_magic(self, tmp_path):
        with pytest.raises(FormatError, match="magic"):
            read_volume_file(self._decode(tmp_path, b"GMS1" + bytes(40)))

    def test_channel_beyond_f32_range(self, tmp_path):
        with pytest.raises(ValueError, match="channel 'ir_window'"):
            write_raster_file(one_channel([[1.0, -1e39]]), tmp_path / "x.gms1")

    def test_volume_level_beyond_f32_range(self, tmp_path):
        values = np.zeros((1, 3, 2, 2))
        values[0, 2, 1, 0] = 1e39
        with pytest.raises(ValueError, match="level 2"):
            write_volume_file(HydrometeorVolume(("rain",), values), tmp_path / "v.gmsv")

    def test_volume_is_not_a_raster(self, tmp_path):
        vol = HydrometeorVolume(("rain",), np.zeros((1, 1, 1, 1)))
        with pytest.raises(TypeError, match="cannot encode HydrometeorVolume as GMS1"):
            encode_raster_file(vol)
        with pytest.raises(TypeError, match="HydrometeorVolume"):  # before the file is opened
            write_raster_file(vol, tmp_path / "x.gms1")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_raster_file(one_channel([[1.0]]), tmp_path / "missing_dir" / "x.gms1")


class TestContainerErrors:
    """Well-framed files whose contents the containers reject still raise
    FormatError (a ValueError, so CLI exit codes are unchanged)."""

    @pytest.mark.parametrize("reader, data, match", [
        (read_raster_file, header(1, 1, 1, 2) + ids("ir", "ir") + f32(1.0, 2.0), "duplicate"),
        (read_raster_file, header(1, 1, 1, 1) + bytes(16) + f32(1.0), "channel id"),
        (read_raster_file, header(1, 1, 1, 1) + ids("a\0b") + f32(1.0), "channel id"),
        (read_volume_file, volume_header(1, 1, 1, 1) + ids("hail") + f32(0.0), "unknown species"),
        (read_volume_file, volume_header(1, 1, 1, 2) + ids("rain", "rain") + f32(0.0, 0.0), "duplicate"),
        (read_volume_file, volume_header(1, 1, 1, 1) + ids("rain") + f32(-1.0), "non-negative"),
        (read_cloud_mask, header(2, 1, 1, 1) + ids("labels") + b"\x01", "channel id must be 'mask'"),
        (read_cloud_mask, header(2, 1, 1, 2) + ids("mask", "more") + b"\x01\x00", "must hold one channel, found 2"),
        (read_segment_map, header(3, 1, 1, 2) + ids("labels", "more") + bytes(8), "must hold one channel, found 2"),
        (read_segment_map, header(3, 1, 1, 1) + ids("mask") + bytes(4), "channel id must be 'labels'"),
        (read_segment_map, header(3, 1, 1, 1) + ids("labels") + np.array([2 ** 31], "<u4").tobytes(),
         "non-negative int32"),
    ], ids=["dup-channel", "empty-channel-id", "nul-in-channel-id", "unknown-species", "dup-species",
            "negative-ratio", "mask-id", "two-channel-mask", "two-channel-segment", "segment-id",
            "label-beyond-int32"])
    def test_raises_format_error(self, tmp_path, reader, data, match):
        p = tmp_path / "bad"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=match):
            reader(p)

    def test_huge_label_is_not_allocated(self, tmp_path):
        """44 bytes, 2 pixels, one label 2e9: counting labels up to K would
        need ~15 GiB. Read in a child capped at 1 GiB of address space so a
        regression fails the test instead of exhausting memory."""
        p = tmp_path / "huge.gms1"
        data = header(3, 2, 1, 1) + ids("labels") + np.array([1, 2_000_000_000], "<u4").tobytes()
        assert len(data) == 44
        p.write_bytes(data)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from cloudseg import FormatError, read_segment_map\n"
            "try:\n    read_segment_map(sys.argv[1])\n"
            "except FormatError as exc:\n    print('FormatError:', exc)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cloudseg.__file__)))
        proc = subprocess.run([sys.executable, "-c", code, str(p)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("FormatError:"), proc.stdout
        assert "missing [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 1999999988 more" in proc.stdout


def test_volume_read_holds_one_float64_copy(tmp_path):
    """Reading a volume holds one float64 copy, twice the file size, plus
    one f32 species plane: about 2.05x the file size at peak, where holding
    the file bytes beside the copy reached 3.3x."""
    values = np.random.default_rng(3).random((5, 5, 96, 128)) * 1e-5
    p = tmp_path / "v.gmsv"
    write_volume_file(HydrometeorVolume(cloudseg.HYDROMETEOR_SPECIES, values), p)
    size = p.stat().st_size
    tracemalloc.start()
    try:
        vol = read_volume_file(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert encode_volume_file(vol) == p.read_bytes()
    assert peak < 2.5 * size, f"peak {peak / size:.2f}x the file size"


def test_streamed_truth_mask_holds_a_level_not_the_volume(tmp_path):
    """Reading and masking a 5-level volume a species plane at a time holds
    one f32 plane, one float64 plane and two bool planes (with numpy's
    64 KiB casting buffer, 0.20x the file size at peak), where reading the
    whole volume first reached 3.25x and a level at a time 0.42x."""
    values = np.random.default_rng(4).random((5, 5, 96, 128)) * 1e-6
    vol = HydrometeorVolume(cloudseg.HYDROMETEOR_SPECIES, values.astype(np.float32))
    p = tmp_path / "v.gmsv"
    write_volume_file(vol, p)
    size = p.stat().st_size
    tracemalloc.start()
    try:
        _, _, levels = read_volume_levels(p)
        mask = derive_truth_mask(levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(mask.flags, derive_truth_mask(vol).flags)
    assert peak <= 0.25 * size, f"peak {peak / size:.2f}x the file size"


def test_streamed_truth_mask_holds_four_planes(tmp_path):
    """At 512 x 512 with 5 levels of 5 species, the streamed truth mask
    holds one f32 plane (1 MiB), one float64 plane (2 MiB) and two bool
    planes (0.5 MiB) plus 128 KiB of slack, half of it numpy's buffer for
    casting f32 to float64. A level buffer, a float64 level sum and a
    float64 column maximum took about 9 MiB."""
    side = 512
    values = np.random.default_rng(8).random((5, 5, side, side), dtype=np.float32) * 3e-7
    p = tmp_path / "v.gmsv"
    write_volume_file(HydrometeorVolume(cloudseg.HYDROMETEOR_SPECIES, values), p)
    del values
    plane = side * side
    tracemalloc.start()
    try:
        mask = derive_truth_mask(read_volume_levels(p)[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.flags.any() and not mask.flags.all()
    assert peak <= 4 * plane + 8 * plane + 2 * plane + 2 ** 17, f"peak {peak / 2 ** 20:.2f} MiB"


def _traced_peak(action) -> int:
    """Peak bytes allocated while action() runs, its result included."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCodecMemory:
    """At 1024 x 1024 a read or write holds one or two planes beyond its
    input or result. Holding the whole payload as bytes, and checking a
    mask through an int64 copy, held 2 to 13 planes: an image write 4 f32
    planes, a segment write 2 u32 planes, a mask read 13 mask planes and
    an image read its channels plus 2.25 f32 planes."""

    side = 1024

    def _image(self) -> MultiChannelImage:
        rng = np.random.default_rng(5)
        return MultiChannelImage(tuple(
            (cid, Raster2D(rng.normal(250.0, 10.0, size=(self.side, self.side)), Units.KELVIN)) for cid in "ab"
        ))

    def test_image_write_holds_a_channel_at_a_time(self, tmp_path):
        img = self._image()
        f32_plane = 4 * self.side ** 2
        peak = _traced_peak(lambda: write_raster_file(img, tmp_path / "i.gms1"))
        assert peak <= 2.5 * f32_plane, f"{peak / f32_plane:.2f} f32 planes"

    def test_segment_write_holds_one_u32_plane(self, tmp_path):
        seg = SegmentMap((np.arange(self.side ** 2) % 1000 + 1).reshape(self.side, self.side))
        u32_plane = 4 * self.side ** 2
        peak = _traced_peak(lambda: write_raster_file(seg, tmp_path / "s.gms1"))
        assert peak <= 1.5 * u32_plane, f"{peak / u32_plane:.2f} u32 planes"

    def test_mask_read_holds_its_buffer_and_result(self, tmp_path):
        p = tmp_path / "m.gms1"
        write_raster_file(CloudMask(np.random.default_rng(6).random((self.side, self.side)) > 0.5), p)
        mask_plane = self.side ** 2
        peak = _traced_peak(lambda: read_cloud_mask(p))
        assert peak <= 3 * mask_plane, f"{peak / mask_plane:.2f} mask planes"

    def test_image_read_holds_its_channels_and_one_f32_plane(self, tmp_path):
        p = tmp_path / "i.gms1"
        write_raster_file(self._image(), p)
        channels, f32_plane = 2 * 8 * self.side ** 2, 4 * self.side ** 2
        peak = _traced_peak(lambda: read_raster_file(p))
        assert peak - channels <= 1.5 * f32_plane, f"channels + {(peak - channels) / f32_plane:.2f} f32 planes"


class TestVolumeLevels:
    def test_levels_in_file_order(self, tmp_path, rng):
        values = (rng.random((2, 3, 4, 5)) * 1e-5).astype(np.float32)
        p = tmp_path / "v.gmsv"
        write_volume_file(HydrometeorVolume(("rain", "snow"), values), p)
        species, shape, levels = read_volume_levels(p)
        assert species == ("rain", "snow")
        assert shape == (3, 4, 5)
        for k, level in enumerate(levels):
            for s, plane in enumerate(level):
                assert plane.shape == (4, 5) and plane.dtype == np.float32 and not plane.flags.writeable
                np.testing.assert_array_equal(plane, values[s, k])
            assert s == 1
        assert k == 2

    @pytest.mark.parametrize("edit, match", [
        (lambda data: data[:-1], "truncated"),
        (lambda data: data[:40], "truncated"),
        (lambda data: data + b"\0", "trailing"),
    ], ids=["last-byte", "no-payload", "trailing-byte"])
    def test_size_is_checked_before_any_level(self, tmp_path, edit, match):
        vol = HydrometeorVolume(("rain",), np.zeros((1, 2, 3, 4)))
        p = tmp_path / "v.gmsv"
        p.write_bytes(edit(encode_volume_file(vol)))
        with pytest.raises(FormatError, match=match):
            read_volume_levels(p)

    def test_bad_level_raises_from_the_iterator(self, tmp_path):
        data = volume_header(1, 1, 3, 1) + ids("rain") + f32(0.0, 1e-6, np.nan)
        p = tmp_path / "v.gmsv"
        p.write_bytes(data)
        _, _, levels = read_volume_levels(p)
        assert next(next(levels))[0, 0] == 0.0
        assert next(next(levels))[0, 0] == np.float32(1e-6)
        level = next(levels)
        with pytest.raises(FormatError, match="level 2.*finite"):
            next(level)

    def test_a_partly_read_level_leaves_the_next_level_whole(self, tmp_path, rng):
        """A caller that reads one plane of level 0 and none of level 1
        still gets level 2 from its first species."""
        values = (rng.random((3, 3, 2, 2)) * 1e-5).astype(np.float32)
        p = tmp_path / "v.gmsv"
        write_volume_file(HydrometeorVolume(("rain", "snow", "graupel"), values), p)
        _, _, levels = read_volume_levels(p)
        np.testing.assert_array_equal(next(next(levels)), values[0, 0])
        next(levels)
        last = next(levels)
        np.testing.assert_array_equal(next(last), values[0, 2])
        np.testing.assert_array_equal(next(last), values[1, 2])
        assert next(levels, None) is None

    @pytest.mark.parametrize("bad_level", [0, 2])
    def test_a_skipped_plane_is_still_judged(self, tmp_path, bad_level):
        """A NaN in a species plane the caller never reads raises
        FormatError naming its level when the caller moves on."""
        values = np.full((2, 3, 1, 1), 1e-6, dtype=np.float32)
        p = tmp_path / "v.gmsv"
        write_volume_file(HydrometeorVolume(("rain", "snow"), values), p)
        data = bytearray(p.read_bytes())
        at = len(data) - 4 * (5 - 2 * bad_level)  # snow's plane in bad_level
        data[at:at + 4] = f32(np.nan)
        p.write_bytes(bytes(data))
        _, _, levels = read_volume_levels(p)
        with pytest.raises(FormatError, match=f"invalid contents in level {bad_level}: .*finite"):
            for level in levels:
                assert next(level)[0, 0] == np.float32(1e-6)


def _volume_values(path):
    return read_volume_file(path).values


def _volume_levels(path):
    """Every level taken and none of its planes read: each is judged still."""
    return list(read_volume_levels(path)[2])


class TestPlaneContents:
    """The plane reader judges every payload value, so each reader names
    the bad plane in one form: "invalid contents in channel 'x': ..." or
    "... in level k: ...". A mask file has one plane, its channel 'mask'."""

    @pytest.mark.parametrize("read, data, match", [
        (read_raster_file, header(1, 2, 1, 2) + ids("ir", "wv") + f32(280.0, 281.0, 282.0, np.inf),
         r"invalid contents in channel 'wv': non-finite"),
        (read_cloud_mask, header(2, 2, 1, 1) + ids("mask") + b"\x01\x02",
         r"invalid contents in channel 'mask': .*0 or 1"),
        (_volume_levels, volume_header(1, 1, 2, 1) + ids("rain") + f32(0.0, -1e-6),
         r"invalid contents in level 1: .*non-negative"),
        (_volume_values, volume_header(2, 1, 2, 1) + ids("rain") + f32(0.0, 1e-6, 1e-6, np.nan),
         r"invalid contents in level 1: .*finite"),
        (_volume_values, volume_header(1, 1, 2, 2) + ids("rain", "snow") + f32(0.0, 0.0, 1e-6, -1e-6),
         r"invalid contents in level 1: .*non-negative"),
    ], ids=["raster-channel", "mask-byte", "levels-negative", "volume-nan", "volume-negative"])
    def test_bad_plane_is_named(self, tmp_path, read, data, match):
        p = tmp_path / "bad"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=match):
            read(p)


_MASK = header(2, 2, 1, 1) + ids("mask") + b"\x01\x00"


@pytest.mark.parametrize("data", [
    b"NOPE" + _MASK[4:],
    header(1, 2, 1, 1) + ids("mask") + f32(1.0, 0.0),
    b"GMS1" + struct.pack("<BBHIII", 1, 2, 7, 2, 1, 1) + _MASK[20:],
    _MASK[:-1],
    _MASK + b"\0",
    header(2, 2, 1, 1) + b"m\xe4sk".ljust(16, b"\0") + b"\x01\x00",
    header(2, 1, 1, 2) + ids("mask", "more") + b"\x01\x00",
    header(2, 1, 1, 1) + ids("labels") + b"\x01",
    header(2, 2, 1, 1) + ids("mask") + b"\x01\x02",
], ids=["magic", "dtype", "reserved", "truncated", "trailing", "non-ascii-id", "two-channels", "wrong-id",
        "byte-2"])
def test_malformed_mask_reads_the_same_through_evaluate(tmp_path, capsys, data):
    """evaluate reads its masks without a CloudMask, yet refuses each
    malformed mask, on either side, with read_cloud_mask's FormatError."""
    bad, good, report = tmp_path / "bad.gms1", tmp_path / "good.gms1", tmp_path / "report.json"
    bad.write_bytes(data)
    good.write_bytes(_MASK)
    with pytest.raises(FormatError) as refused:
        read_cloud_mask(bad)
    for prediction, truth in ((bad, good), (good, bad)):
        argv = ["evaluate", "--prediction", str(prediction), "--truth", str(truth), "--output", str(report)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"cloudseg: {refused.value}\n"
    assert not report.exists()


def _valid_files():
    rng = np.random.default_rng(11)
    bt = rng.normal(260.0, 20.0, size=(2, 3)).astype(np.float32)
    image = MultiChannelImage((("ir", Raster2D(bt, Units.KELVIN)), ("wv", Raster2D(-bt, Units.KELVIN))))
    mask = CloudMask(rng.random((3, 2)) > 0.5)
    seg = SegmentMap(np.array([[1, 1, 2], [3, 0, 2]]))
    vol = HydrometeorVolume(("rain", "snow"), (rng.random((2, 2, 1, 2)) * 1e-5).astype(np.float32))
    return [encode_raster_file(image), encode_raster_file(mask), encode_raster_file(seg),
            encode_volume_file(vol)]


_VALID = _valid_files()


@st.composite
def mutated_files(draw):
    """A valid GMS1/GMSV file with 1-3 bytes replaced, deleted or inserted."""
    data = bytearray(draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("replace", "delete", "insert")))
        at = draw(st.integers(0, len(data) - (edit != "insert")))
        if edit == "delete":
            del data[at]
        elif edit == "replace":
            data[at] = draw(st.integers(0, 255))
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


arbitrary_files = st.builds(lambda magic, rest: magic + rest,
                            st.sampled_from((b"", b"GMS1", b"GMSV")), st.binary(max_size=80))

_READERS = (
    (read_raster_file, encode_raster_file),
    (read_cloud_mask, encode_raster_file),
    (read_segment_map, encode_raster_file),
    (read_volume_file, encode_volume_file),
)


def _read_levels(path):
    """The level reader, fully consumed: species and a copy of each level,
    its species planes stacked."""
    species, _, levels = read_volume_levels(path)
    return species, [np.stack([plane.copy() for plane in level]) for level in levels]


# tmp_path is shared by the examples on purpose: each one rewrites the file
@settings(max_examples=1500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(mutated_files(), arbitrary_files))
def test_decode_round_trips_or_raises_format_error(tmp_path, data):
    p = tmp_path / "fuzz"
    p.write_bytes(data)
    for read, encode in _READERS:
        try:
            decoded = read(p)
        except FormatError:
            continue
        assert encode(decoded) == data, read.__name__
    try:
        species, levels = _read_levels(p)
    except FormatError:
        with pytest.raises(FormatError):
            read_volume_file(p)
        return
    vol = read_volume_file(p)
    assert species == vol.species
    np.testing.assert_array_equal(np.stack(levels, axis=1), vol.values)
