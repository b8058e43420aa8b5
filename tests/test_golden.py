"""Same-bytes gate: SHA-256 digests of every CLI output on one fixed scene.

The scene holds whole kelvin and the volume exact binary fractions
(multiples of 2**-27 kg/kg), built from raw Philox words without exp or
any other libm call; every stage after that uses only comparisons and
correctly rounded + - * /, so the digests hold on any IEEE-754 platform. A
change to any output byte must be deliberate: update the digest and say
why.
"""

import hashlib

import numpy as np

from cloudseg import HYDROMETEOR_SPECIES, HydrometeorVolume, MultiChannelImage, Raster2D, Units, cli
from cloudseg.formats import write_raster_file, write_volume_file

H, W = 72, 96
# (row, col, height, width, cloud-top BT in K): a warm deck with a cold
# core, cold cells of every CCS band, and warm cells the CCS cap misses;
# a mottled patch of 4 x 4 tiles is laid over the bottom-right corner
_BLOCKS = (
    (6, 6, 30, 40, 262), (14, 16, 10, 12, 212), (8, 56, 14, 16, 226),
    (12, 62, 4, 6, 205), (44, 8, 20, 18, 244), (42, 40, 18, 24, 218),
    (48, 70, 16, 20, 250), (28, 78, 9, 11, 266), (62, 34, 6, 6, 232),
    (30, 60, 3, 3, 240), (2, 88, 2, 5, 258),
)

DIGESTS = {
    "scene": "c079b1a46fe7ed8ab68357a5841939102fbe3e2130b19c142014707e894d361a",
    "volume": "53f7fbcbc7f9eda684f14aa600ca22f0dc8fd8925c882fa860a4dbe37df1c29c",
    "gradient": "917cbfe885174a750c82710198ea2f0e99df1e1c24ae9e14c38d521604dd7620",
    "segment.segments": "15164370c7f7bf484d0712b35d42247fc3183c9046ad94f5c46703ea1111ca19",
    "segment.mask": "ba42a8f591003a380f08ef358b0ed24941166947720d2c178c33983c066074df",
    "segment.stats": "146c10e6555f4fad03442c5e4cc3311f8e0baf915f1bc3b7d8fbaf1fea0bcaa2",
    "segment_merged.segments": "69e815fc066ec97c3aafbb94365cf0c5780fe86c8921a80f57cc3497346fd721",
    "segment_merged.mask": "ba42a8f591003a380f08ef358b0ed24941166947720d2c178c33983c066074df",
    "segment_merged.stats": "8510847966ca1afef3506b7df4ee68fab1a3a5a6b44df147410bfaccd9d726d1",
    "ccs.segments": "ba3705d37195c6d7f3cff26e0f2bcbe8df96d1567c610a8be8ee7af049457b28",
    "ccs.mask": "785dfe8fe01b76aca0165463b26fd6a2dd02bfb5359fc95fd97456c8015cf16b",
    "truth": "cd218e7b2c81f1df451e1a12603cbea8e160e3d4165be91d127870c01d8a662e",
    "evaluate_segment": "da6ee73ad91b7dcef518f82384853cefeebe4abc9ae6c72b154283f55c0548a2",
    "evaluate_ccs": "c4a9ba4bde63c86716299c72e941a8ac2f99c03552a579a729da3bc46482dfbb",
}


def write_inputs(scene_path, volume_path):
    words = np.random.Philox(2018).random_raw(3 * H * W)
    ir_noise, wv_noise, mix = (words % 4).astype(np.float64).reshape(3, H, W)
    top = np.full((H, W), 290.0)
    for r, c, h, w, bt in _BLOCKS:
        top[r:r + h, c:c + w] = bt
    top[52:, 56:] = 270.0 - 16.0 * np.kron(mix[:5, :10], np.ones((4, 4)))  # small regions to merge
    ir = top + ir_noise  # 290..293 K clear sky, 0-3 K noise on every top
    wv = 300.0 - (290.0 - top) // 2 + wv_noise
    cloudy = top < 290.0
    # species and levels scale the column peak by at most 15/8, so the truth
    # support is exactly the cloudy columns: 8-11 units of 2**-22 kg/kg there
    # (> 1e-6 summed), 0 or 1 unit elsewhere (< 1e-6 summed)
    ratio = np.where(cloudy, 8.0 + mix, mix % 2) * 2.0 ** -22
    weights = np.array([0.0, 0.5, 1.0, 0.5, 0.25])[:, None, None]
    values = np.stack([ratio * weights * (k + 1) / 8.0 for k in range(len(HYDROMETEOR_SPECIES))])
    image = MultiChannelImage((("ir_window", Raster2D(ir, Units.KELVIN)),
                               ("water_vapor", Raster2D(wv, Units.KELVIN))))
    write_raster_file(image, scene_path)
    write_volume_file(HydrometeorVolume(HYDROMETEOR_SPECIES, values), volume_path)


def cli_outputs(tmp_path) -> dict:
    """Run every analysis subcommand on the fixed inputs; {output name: path}."""
    p = {name: tmp_path / name for name in DIGESTS}
    write_inputs(p["scene"], p["volume"])
    runs = (
        ["gradient", "--input", p["scene"], "--output", p["gradient"]],
        ["segment", "--input", p["scene"], "--segments-output", p["segment.segments"],
         "--mask-output", p["segment.mask"], "--stats-output", p["segment.stats"]],
        ["segment", "--input", p["scene"], "--min-area", "30", "--min-seed-area", "1",
         "--segments-output", p["segment_merged.segments"], "--mask-output", p["segment_merged.mask"],
         "--stats-output", p["segment_merged.stats"]],
        ["ccs", "--input", p["scene"], "--segments-output", p["ccs.segments"],
         "--mask-output", p["ccs.mask"]],
        ["truth-mask", "--input", p["volume"], "--output", p["truth"]],
        ["evaluate", "--prediction", p["segment.mask"], "--truth", p["truth"],
         "--output", p["evaluate_segment"]],
        ["evaluate", "--prediction", p["ccs.mask"], "--truth", p["truth"], "--output", p["evaluate_ccs"]],
    )
    for argv in runs:
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK, argv
    return p


def test_cli_output_digests(tmp_path):
    paths = cli_outputs(tmp_path)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert got == DIGESTS
