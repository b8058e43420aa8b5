"""Command-line interface: scene synthesis, gradients, segmentation,
truth masks and verification reports.

Exit codes are stable: 0 success, 2 I/O or format problems, 3 algorithmic
preconditions (constant gradient field, no surviving markers), 64 usage.
Every subcommand is a pure function of its input files and flags, so
repeated invocations write byte-identical outputs. A subcommand writes
all of its outputs or, when it fails, none of them.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import __getattr__  # a name looked up here resolves through the package's exports
from .base import MIXING_RATIO_THRESHOLD, PRESET_NAMES, FormatError, PreconditionError, check_number, parse_channel_ids

EXIT_OK = 0
EXIT_DATA = 2
EXIT_ALGORITHM = 3
EXIT_USAGE = 64

# Each command calls its codec, containers and stages as attributes of this
# module, _cli.<name>, so a module loads only in the command that uses it
# (evaluate loads no numpy), and a name rebound here (perfbench's span
# tracer, a test's fake) is the one the command calls.
_cli = sys.modules[__name__]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(kind, low=-math.inf, high=math.inf):
    """argparse type: kind(text) as base.check_number judges it in [low, high]."""
    def parse(text: str):
        value = kind(text)  # a ValueError here is argparse's "invalid int value"
        try:
            return check_number(value, "value", kind, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _level_list(text: str) -> tuple:
    try:
        return _cli.CcsConfig(threshold_levels=[float(part) for part in text.split(",")]).threshold_levels
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cloudseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic scene and its hydrometeor volume")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESET_NAMES), help="shipped scene preset")
    source.add_argument("--spec", help="scene spec file (key = value lines)")
    p.add_argument("--seed", type=_number(int, 0, 2 ** 64 - 1), default=None, help="override the rng seed")
    p.add_argument("--noise-sigma", type=_number(float, 0), default=None, help="override the noise level (K)")
    p.add_argument("--scene-output", required=True, help="GMS1 path for the channels")
    p.add_argument("--volume-output", required=True, help="GMSV path for the hydrometeors")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gradient", help="write the multi-spectral gradient of a scene")
    p.add_argument("--input", required=True, help="GMS1 scene")
    p.add_argument("--output", required=True, help="GMS1 path for the 1-channel gradient")
    p.add_argument("--scales", type=_number(int, 1), default=5)
    p.add_argument("--channels", type=parse_channel_ids, default=None,
                   help="comma-separated subset, default all")
    p.add_argument("--normalize-channels", action="store_true")
    p.set_defaults(func=_cmd_gradient)

    p = sub.add_parser("segment", help="gradient, markers, watershed and cloud classification")
    p.add_argument("--input", required=True, help="GMS1 scene")
    p.add_argument("--scales", type=_number(int, 1), default=5)
    p.add_argument("--channels", type=parse_channel_ids, default=None)
    p.add_argument("--normalize-channels", action="store_true")
    p.add_argument("--bins", type=_number(int, 2), default=256, help="Otsu histogram bins")
    p.add_argument("--min-seed-area", type=_number(int, 1), default=8)
    p.add_argument("--min-area", type=_number(int, 0), default=0, help="post-merge region size, 0 disables")
    p.add_argument("--clear-sky-cutoff", type=_number(float), default=280.0, help="mean-BT cloud cutoff (K)")
    p.add_argument("--bt-channel", default=None, help="input channel classified against, default the first selected")
    p.add_argument("--segments-output", required=True, help="GMS1 path for the label map")
    p.add_argument("--mask-output", required=True, help="GMS1 path for the cloud mask")
    p.add_argument("--stats-output", required=True, help="CSV path for per-region stats")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("ccs", help="incremental-threshold region growing baseline")
    p.add_argument("--input", required=True, help="GMS1 scene")
    p.add_argument("--levels", type=_level_list, default=(220.0, 235.0, 253.0),
                   help="ascending threshold levels, e.g. 220,235,253")
    p.add_argument("--min-area", type=_number(int, 1), default=50)
    p.add_argument("--bt-channel", default=None)
    p.add_argument("--segments-output", required=True)
    p.add_argument("--mask-output", required=True)
    p.set_defaults(func=_cmd_ccs)

    p = sub.add_parser("truth-mask", help="derive the cloud truth mask from a hydrometeor volume")
    p.add_argument("--input", required=True, help="GMSV volume")
    p.add_argument("--threshold", type=_number(float), default=MIXING_RATIO_THRESHOLD,
                   help="mixing-ratio threshold (kg/kg)")
    p.add_argument("--output", required=True, help="GMS1 path for the mask")
    p.set_defaults(func=_cmd_truth_mask)

    p = sub.add_parser("evaluate", help="contingency table and scores for two masks")
    p.add_argument("--prediction", required=True, help="GMS1 mask being scored")
    p.add_argument("--truth", required=True, help="GMS1 reference mask")
    p.add_argument("--output", required=True, help="JSON report path")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def _new_temp(path) -> str:
    """A new empty file beside path, the first free name of <path>.<pid>.tmp, <path>.<pid>.1.tmp, ...
    (O_EXCL never takes an existing file; 0o666 less the umask is open(path, "wb")'s mode)."""
    n = 0
    while True:
        temp = f"{path}.{os.getpid()}{f'.{n}' if n else ''}.tmp"
        with contextlib.suppress(FileExistsError):
            os.close(os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
            return temp
        n += 1


@contextlib.contextmanager
def _outputs(*paths):
    """A command's outputs, written all or none: yields a new temporary
    file beside each of `paths`. A clean exit moves every temporary file
    onto its path; any error removes them, and no other file is touched.
    A path named twice (``x`` and ``./x`` included) or a directory is
    refused before anything is written, so no move can fail halfway."""
    real = [os.path.realpath(path) for path in paths]
    for path, where in zip(paths, real):
        if real.count(where) > 1:
            raise ValueError(f"output {path} is named more than once")
        if os.path.isdir(path):
            raise ValueError(f"output {path} is a directory")
    made = []  # the temporary files created and not yet moved
    try:
        made.extend(_new_temp(path) for path in paths)
        yield tuple(made)
        for temp, path in list(zip(made, paths)):
            os.replace(temp, path)
            made.remove(temp)
    finally:
        for temp in made:
            with contextlib.suppress(OSError):  # already gone
                os.remove(temp)


def _cmd_synth(args) -> int:
    spec = _cli.make_preset(args.preset) if args.preset is not None else _cli.read_scene_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, rng_seed=args.seed)
    if args.noise_sigma is not None:
        spec = dataclasses.replace(spec, noise_sigma=args.noise_sigma)
    image, volume = _cli.generate_scene(spec)
    with _outputs(args.scene_output, args.volume_output) as (scene_path, volume_path):
        _cli.write_raster_file(image, scene_path)
        _cli.write_volume_file(volume, volume_path)
    return EXIT_OK


def _read_channels(args) -> tuple:
    """The input's channels, and those that --channels selects (all by default)."""
    image = _cli.read_raster_file(args.input)
    if not args.channels:
        return image, image
    return image, _cli.MultiChannelImage(tuple((cid, image.raster(cid)) for cid in args.channels))


def _fused_gradient(selected, args):
    cfg = _cli.GradientConfig(n_scales=args.scales, normalize_channels=args.normalize_channels)
    return _cli.multispectral_gradient(selected, cfg)


def _cmd_gradient(args) -> int:
    field = _fused_gradient(_read_channels(args)[1], args)
    with _outputs(args.output) as (path,):
        _cli.write_raster_file(_cli.MultiChannelImage((("gradient", field),)), path)
    return EXIT_OK


def _cmd_segment(args) -> int:
    image, selected = _read_channels(args)
    # any input channel, selected or not; an unknown one exits here, before the gradient
    bt = image.raster(args.bt_channel or selected.channel_ids[0])
    del image
    field = _fused_gradient(selected, args)
    del selected  # of the channels only bt is needed from here on
    otsu = _cli.otsu_threshold(field, bins=args.bins)
    # the marker map is freed as soon as the flood returns
    seg = _cli.watershed_from_markers(field, _cli.generate_markers(field, otsu, min_seed_area=args.min_seed_area))
    if args.min_area > 0:
        seg = _cli.merge_small_regions(seg, min_area=args.min_area)
    mask, stats = _cli.classify_regions(seg, bt, clear_sky_cutoff=args.clear_sky_cutoff, gradient=field)
    with _outputs(args.segments_output, args.mask_output, args.stats_output) as (seg_p, mask_p, stats_p):
        _cli.write_raster_file(seg, seg_p)
        _cli.write_raster_file(mask, mask_p)
        # no field ever holds a comma, quote or line break, so none is quoted
        with open(stats_p, "w", newline="") as fh:
            fh.write("label,area,mean_bt,min_bt,mean_gradient,is_cloud\n")
            for s in stats:
                fh.write(f"{s.label},{s.area},{s.mean_bt:.6f},{s.min_bt:.6f},{s.mean_gradient:.6f},"
                         f"{'true' if s.is_cloud else 'false'}\n")
    return EXIT_OK


def _cmd_ccs(args) -> int:
    image = _cli.read_raster_file(args.input)
    bt = image.raster(args.bt_channel or image.channel_ids[0])
    cfg = _cli.CcsConfig(threshold_levels=args.levels, min_area=args.min_area)
    seg = _cli.ccs_segment(bt, cfg)
    with _outputs(args.segments_output, args.mask_output) as (seg_path, mask_path):
        _cli.write_raster_file(seg, seg_path)
        _cli.write_raster_file(_cli.ccs_cloud_mask(seg), mask_path)
    return EXIT_OK


def _cmd_truth_mask(args) -> int:
    _, _, levels = _cli.read_volume_levels(args.input)
    mask = _cli.derive_truth_mask(levels, threshold=args.threshold)
    with _outputs(args.output) as (path,):
        _cli.write_raster_file(mask, path)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    prediction = _cli.read_mask_bytes(args.prediction)
    truth = _cli.read_mask_bytes(args.truth)
    report = _cli.verify(_cli.contingency(prediction, truth))
    with _outputs(args.output) as (path,), open(path, "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"cloudseg: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except (FormatError, OSError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"cloudseg: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_DATA
