"""In-memory spans around calls into cloudseg's modules, and the per-layer
metrics derived from them.

The tracer wraps module attributes inside the benchmark process only; the
program's files are untouched. ``cloudseg.cli`` imports its callees by
name, so the wrappers replace those names in the namespace that makes the
call (``cloudseg.cli``, and ``cloudseg.ccs`` / ``cloudseg.watershed`` /
``cloudseg.markers`` / ``cloudseg.morphology`` for calls between modules).
Span names are ``<defining module>.<function>``; a span's layer is its
defining module, so self time is charged to the module whose code ran.
"""

import os
import time
from collections import Counter, defaultdict

import numpy as np

import cloudseg.ccs
import cloudseg.cli
import cloudseg.markers
import cloudseg.morphology
import cloudseg.watershed

LAYERS = ("formats", "morphology", "markers", "flood", "watershed", "ccs", "verification", "cli")
MIB = 2 ** 20


class Tracer:
    """Records one span per wrapped call: name, layer, command, parent, start, end.

    Counters are updated by per-site hooks after a span has ended, so their
    cost shows in the tracing overhead, not in the callee's span.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = None
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, hook=None):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "layer": layer, "command": self.command,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, result, *args, **kwargs)
            return result

        return traced

    def install(self):
        for owner, attr, name, hook in _SITES:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# counter hooks: (counts, result, *call args)
# ---------------------------------------------------------------------------

def _read(counts, result, path, *args, **kwargs):
    counts["formats.read_bytes"] += os.path.getsize(path)


def _write(counts, result, payload, path):
    counts["formats.write_bytes"] += os.path.getsize(path)


def _filter_pass(counts, result, values, radius):
    if radius > 0:
        counts["morphology.filter_passes"] += 1
        counts["morphology.bytes_computed"] += values.nbytes + result.nbytes


def _markers(counts, marker_map, *args, **kwargs):
    counts["markers.seed_components"] += marker_map.count
    counts["markers.seed_pixels"] += int(np.count_nonzero(marker_map.labels))


def _claims(counts, result, priority, labels, seeds, *args, **kwargs):
    claimed = int(np.count_nonzero(result)) - int(np.count_nonzero(labels))
    counts["flood.pixels_claimed"] += claimed
    counts["flood.heap_pushes"] += len(seeds) + claimed


def _regions_in(counts, seg, *args, **kwargs):
    counts["watershed.regions_in"] += seg.count


def _regions_out(counts, result, seg, *args, **kwargs):
    counts["watershed.regions_out"] += seg.count


def _patches(counts, result, seg, *args, **kwargs):
    counts["ccs.patches_in"] += seg.count
    counts["ccs.patches_out"] += result.count


_cli = cloudseg.cli
_SITES = (
    (_cli, "_cmd_segment", "cli._cmd_segment", None),
    (_cli, "_cmd_ccs", "cli._cmd_ccs", None),
    (_cli, "_cmd_truth_mask", "cli._cmd_truth_mask", None),
    (_cli, "_cmd_evaluate", "cli._cmd_evaluate", None),
    (_cli, "read_raster_file", "formats.read_raster_file", _read),
    (_cli, "read_volume_file", "formats.read_volume_file", _read),
    (_cli, "read_cloud_mask", "formats.read_cloud_mask", _read),
    (_cli, "write_raster_file", "formats.write_raster_file", _write),
    (_cli, "multispectral_gradient", "morphology.multispectral_gradient", None),
    (cloudseg.morphology, "_window_max", "morphology._window_max", _filter_pass),
    (cloudseg.morphology, "_window_min", "morphology._window_min", _filter_pass),
    (_cli, "otsu_threshold", "markers.otsu_threshold", None),
    (_cli, "generate_markers", "markers.generate_markers", _markers),
    (cloudseg.markers, "label_components", "markers.label_components", None),
    (_cli, "watershed_from_markers", "watershed.watershed_from_markers", _regions_in),
    (cloudseg.watershed, "seed_order", "flood.seed_order", None),
    (cloudseg.watershed, "priority_flood", "flood.priority_flood", _claims),
    (_cli, "merge_small_regions", "watershed.merge_small_regions", None),
    (_cli, "classify_regions", "watershed.classify_regions", _regions_out),
    (_cli, "ccs_segment", "ccs.ccs_segment", None),
    (_cli, "ccs_cloud_mask", "ccs.ccs_cloud_mask", None),
    (cloudseg.ccs, "label_components", "markers.label_components", None),
    (cloudseg.ccs, "seed_order", "flood.seed_order", None),
    (cloudseg.ccs, "priority_flood", "flood.priority_flood", _claims),
    (cloudseg.ccs, "merge_small_regions", "watershed.merge_small_regions", _patches),
    (_cli, "derive_truth_mask", "verification.derive_truth_mask", None),
    (_cli, "contingency", "verification.contingency", None),
    (_cli, "verify", "verification.verify", None),
)

# Counters that must repeat exactly when the same inputs are traced again.
EXACT_COUNTS = (
    "flood.calls", "flood.pixels_claimed", "flood.heap_pushes", "morphology.filter_passes",
    "markers.seed_components", "markers.seed_pixels", "watershed.regions_in",
    "watershed.regions_out", "ccs.patches_in", "ccs.patches_out",
    "formats.read_bytes", "formats.write_bytes",
)


def self_times(spans) -> dict:
    """Seconds per layer spent in its own code: each span's duration minus
    the durations of its direct children (children never overlap)."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[s["layer"]] += s["end"] - s["start"] - covered[s["id"]]
    return totals


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times (s), counts and ratios of one traced pipeline pass."""
    spans = tracer.spans
    counts = tracer.counts
    by_id = {s["id"]: s for s in spans}

    def total(name, parent=None):
        return sum((s["end"] - s["start"] for s in spans if s["name"] == name and (
            parent is None or by_id[s["parent"]]["name"] == parent)), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    flood_s = total("flood.priority_flood")
    pushes = counts["flood.heap_pushes"]
    merge_s = total("watershed.merge_small_regions", "cli._cmd_segment")
    merges = counts["watershed.regions_in"] - counts["watershed.regions_out"]
    metrics = {
        "flood.calls": sum(s["name"] == "flood.priority_flood" for s in spans),
        "flood.s": flood_s,
        "flood.pixels_claimed": counts["flood.pixels_claimed"],
        "flood.heap_pushes": pushes,
        "flood.ns_per_push": ratio(flood_s * 1e9, pushes),
        "morphology.gradient_s": total("morphology.multispectral_gradient"),
        "morphology.filter_passes": counts["morphology.filter_passes"],
        "morphology.mb_moved_computed": counts["morphology.bytes_computed"] / MIB,
        "watershed.flood_s": total("watershed.watershed_from_markers"),
        "watershed.merge_s": merge_s,
        "watershed.regions_in": counts["watershed.regions_in"],
        "watershed.regions_out": counts["watershed.regions_out"],
        "watershed.ms_per_merge": ratio(merge_s * 1e3, merges),
        "watershed.classify_s": total("watershed.classify_regions"),
        "ccs.segment_s": total("ccs.ccs_segment"),
        "ccs.label_s": total("markers.label_components", "ccs.ccs_segment"),
        "ccs.flood_s": total("flood.priority_flood", "ccs.ccs_segment"),
        "ccs.merge_s": total("watershed.merge_small_regions", "ccs.ccs_segment"),
        "ccs.patches_in": counts["ccs.patches_in"],
        "ccs.patches_out": counts["ccs.patches_out"],
        "formats.read_s": sum(total(n) for n in (
            "formats.read_raster_file", "formats.read_volume_file", "formats.read_cloud_mask")),
        "formats.write_s": total("formats.write_raster_file"),
        "formats.read_mb": counts["formats.read_bytes"] / MIB,
        "formats.write_mb": counts["formats.write_bytes"] / MIB,
        "markers.otsu_s": total("markers.otsu_threshold"),
        "markers.generate_s": total("markers.generate_markers"),
        "markers.seed_components": counts["markers.seed_components"],
        "markers.seed_pixels": counts["markers.seed_pixels"],
        "verification.truth_mask_s": total("verification.derive_truth_mask"),
        "verification.score_s": total("verification.contingency") + total("verification.verify"),
    }
    for layer, seconds in self_times(spans).items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def exact_counts(tracer: Tracer) -> dict:
    counts = dict(tracer.counts)
    counts["flood.calls"] = sum(s["name"] == "flood.priority_flood" for s in tracer.spans)
    return {key: counts.get(key, 0) for key in EXACT_COUNTS}


def unit(name: str) -> str:
    """Unit of a timed or derived per-layer metric (counts are 'count')."""
    if name.endswith(("_mb", "_computed")):
        return "MiB"
    if name.endswith("ms_per_merge"):
        return "ms"
    if name.endswith("ns_per_push"):
        return "ns"
    return "s"


def overhead(tracer: Tracer, walls: dict, startup_s: float) -> float:
    """Seconds the traced pass spent beyond the untraced CLI pass: the layer
    self times plus one interpreter start-up per command, minus the walls."""
    traced = sum(self_times(tracer.spans).values())
    return traced + len(walls) * startup_s - sum(wall for wall, _, _ in walls.values())


def accounting(tracer: Tracer, walls: dict, startup_s: float) -> list:
    """One line per command: untraced wall against start-up + traced self times."""
    lines = []
    for command, (wall, _, _) in walls.items():
        traced = sum(self_times([s for s in tracer.spans if s["command"] == command]).values())
        lines.append(f"  {command:<11} {wall:8.3f} s = {startup_s:.3f} + {traced:8.3f}"
                     f" {wall - startup_s - traced:+.3f} s")
    return lines
