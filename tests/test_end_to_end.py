"""End-to-end differential oracle: `cloudseg segment` and `cloudseg ccs`,
run through cli.main, against their compositions in tests/oracles.py.

The per-stage kernels are each held to a naive reference elsewhere; this
holds the hand-offs between them: the seed order from markers to flood,
the renumbering after min_seed_area and after the merge, the region
areas the merge and the classifier take from SegmentMap, the
--bt-channel choice and the CCS level walls. Scenes are tiny and
tie-heavy (whole kelvin, each channel with 0-3 plateau values), where
FIFO order and tie rules decide the most pixels.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from cloudseg import MultiChannelImage, Raster2D, Units, write_raster_file
from cloudseg.cli import main

KELVIN = st.integers(200, 300)
IDS = ("a", "b")


@st.composite
def scenes(draw):
    """1-2 channels of whole kelvin on a grid of sides 1-12: noise of a
    drawn spread above 200 K, under 0-3 rectangular plateaus of a drawn
    value each. The noise and the rectangles come from a drawn seed."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    channels = []
    for _ in range(draw(st.integers(1, 2))):
        values = 200 + rng.integers(0, draw(st.sampled_from([1, 3, 100])), size=(h, w))
        for value in draw(st.lists(KELVIN, max_size=3)):
            (r0, r1), (c0, c1) = np.sort(rng.integers(0, h + 1, 2)), np.sort(rng.integers(0, w + 1, 2))
            values[r0:r1, c0:c1] = value
        channels.append(values.astype(np.float64))
    return channels


def run_cli(command, channels, flags, outputs):
    """Exit code of `cloudseg command` on a scene of these channels, and the
    bytes of each output it left, by flag."""
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp, "scene.gms1")
        write_raster_file(MultiChannelImage(tuple(
            (cid, Raster2D(values, Units.KELVIN)) for cid, values in zip(IDS, channels))), scene)
        paths = {flag: Path(tmp, flag.strip("-")) for flag in outputs}
        argv = [command, "--input", scene, *flags, *(a for pair in paths.items() for a in pair)]
        code = main([str(a) for a in argv])
        return code, {flag: path.read_bytes() for flag, path in paths.items() if path.exists()}


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(channels=scenes(), data=st.data())
def test_segment_matches_reference(channels, data):
    scales = data.draw(st.sampled_from([1, 2, 5]), "scales")
    normalize = data.draw(st.booleans(), "normalize")
    bins = data.draw(st.sampled_from([2, 3, 16, 256]), "bins")
    min_seed_area = data.draw(st.integers(1, 4), "min_seed_area")
    min_area = data.draw(st.sampled_from([0, 3, 8, 20]), "min_area")
    cutoff = data.draw(KELVIN, "cutoff")
    bt_channel = data.draw(st.sampled_from([None, *IDS[:len(channels)]]), "bt_channel")
    flags = ["--scales", scales, "--bins", bins, "--min-seed-area", min_seed_area,
             "--min-area", min_area, "--clear-sky-cutoff", cutoff]
    flags += ["--normalize-channels"] * normalize + ["--bt-channel", bt_channel] * (bt_channel is not None)
    code, got = run_cli("segment", channels, flags,
                        ("--segments-output", "--mask-output", "--stats-output"))
    bt = channels[IDS.index(bt_channel or "a")]
    want = oracles.segment_reference(channels, bt, scales, normalize, bins, min_seed_area, min_area, cutoff)
    if want is None:
        assert (code, got) == (3, {})
        return
    labels, cloudy, stats = want
    assert code == 0
    assert got == {
        "--segments-output": oracles.gms1_bytes(3, "labels", labels),
        "--mask-output": oracles.gms1_bytes(2, "mask", cloudy),
        "--stats-output": stats.encode(),
    }


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(channels=scenes(), data=st.data())
def test_ccs_matches_reference(channels, data):
    levels = sorted(data.draw(st.sets(KELVIN, min_size=1, max_size=3), "levels"))
    min_area = data.draw(st.sampled_from([1, 3, 8, 20]), "min_area")
    bt_channel = data.draw(st.sampled_from([None, *IDS[:len(channels)]]), "bt_channel")
    flags = ["--levels", ",".join(map(str, levels)), "--min-area", min_area]
    flags += ["--bt-channel", bt_channel] * (bt_channel is not None)
    code, got = run_cli("ccs", channels, flags, ("--segments-output", "--mask-output"))
    labels = oracles.ccs_reference(channels[IDS.index(bt_channel or "a")], levels, min_area)
    assert code == 0
    assert got == {
        "--segments-output": oracles.gms1_bytes(3, "labels", labels),
        "--mask-output": oracles.gms1_bytes(2, "mask", labels != 0),
    }
