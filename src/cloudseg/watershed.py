"""Marker-controlled watershed flooding, small-region merging, and
cloud/clear classification of the resulting segments."""

import heapq
from dataclasses import dataclass

import numpy as np

from .flood import priority_flood, seed_order
from .raster import CloudMask, MarkerMap, PreconditionError, Raster2D, SegmentMap, check_number


class EmptyMarkerMapError(PreconditionError):
    """Watershed needs at least one marker to flood from."""


@dataclass(frozen=True)
class RegionStats:
    """Per-region summary used for classification and the stats report."""

    label: int
    area: int
    mean_bt: float
    min_bt: float
    mean_gradient: float
    is_cloud: bool


def watershed_from_markers(field: Raster2D, markers: MarkerMap) -> SegmentMap:
    """Flood the gradient surface from the marker components.

    Each marker keeps its label; every pixel ends up in exactly one of the
    K regions. Marker pixels on the frontier (next to an unlabeled pixel)
    seed the flood in ascending label order, row-major within each
    component, and growth follows the deterministic
    priority-flood semantics of :mod:`cloudseg.flood`. The result is a
    total partition with bit-identical output for identical input.
    """
    if field.shape != markers.shape:
        raise ValueError(f"shape mismatch: field {field.shape} vs markers {markers.shape}")
    if markers.count < 1:
        raise EmptyMarkerMapError("marker map has no seed components")
    free = markers.labels == 0
    seeds = seed_order(markers.labels, free)
    labels = priority_flood(field.values, markers.labels, seeds, free)
    return SegmentMap(labels)


# ---------------------------------------------------------------------------
# region merging
# ---------------------------------------------------------------------------

def _boundary_counts(labels: np.ndarray, top: int):
    """Count 8-adjacent pixel pairs between distinct regions of labels 0..top.

    Returns lists (lo, hi, npairs) with lo < hi, one entry per touching pair
    of regions; pairs involving label 0 are not recorded (clear sky is
    never a merge target).
    """
    slices = (
        (labels[:, :-1], labels[:, 1:]),    # east
        (labels[:-1, :], labels[1:, :]),    # south
        (labels[:-1, :-1], labels[1:, 1:]),  # south-east
        (labels[:-1, 1:], labels[1:, :-1]),  # south-west
    )
    codes = []
    for a, b in slices:
        diff = (a != b) & (a != 0) & (b != 0)
        a, b = a[diff].astype(np.int64), b[diff]
        codes.append(np.minimum(a, b) * (top + 1) + np.maximum(a, b))
    codes, npairs = np.unique(np.concatenate(codes), return_counts=True)
    return (codes // (top + 1)).tolist(), (codes % (top + 1)).tolist(), npairs.tolist()


def merge_small_regions(seg: SegmentMap, min_area: int = 1) -> SegmentMap:
    """Absorb regions smaller than min_area into their dominant neighbour.

    Repeatedly takes the smallest offending region (ties: lowest label) and
    merges it into the neighbouring region sharing the longest common
    boundary, measured in 8-adjacent pixel pairs (ties: lower label).
    Label 0, where present, is untouchable: an undersized region with no
    positive-label neighbour is removed to 0 instead. Merging stops when
    at most one region is left. Survivors are renumbered 1..K' in
    ascending order; with nothing to merge (always so for min_area == 1)
    seg itself is returned.

    The image is scanned once, into a region adjacency graph ({neighbour:
    npairs} per label) that each merge updates. This is exact because pair
    counts add up under relabelling: (victim, x) pairs become (target, x)
    pairs and (victim, target) pairs become interior. Areas only grow, so
    a heap of (area, label) entries, skipping dead labels and outdated
    areas, yields the same victim as a scan of all offenders.
    Cost: O(pixels + regions * degree * log regions).
    """
    min_area = check_number(min_area, "min_area", int, 1)
    labels = seg.labels
    top = seg.count
    areas = seg.areas.tolist()
    heap = sorted((a, l) for l, a in enumerate(areas) if l and a < min_area)  # a valid heap
    if not heap:
        return seg
    adjacency = [{} for _ in range(top + 1)]
    for a, b, c in zip(*_boundary_counts(labels, top)):
        adjacency[a][b] = adjacency[b][a] = c
    live = top  # SegmentMap labels are consecutive
    merges = []
    while heap and live > 1:
        area, victim = heapq.heappop(heap)
        if areas[victim] != area:
            continue  # dead, or grown since this entry was pushed
        areas[victim] = 0
        live -= 1
        row = adjacency[victim]
        target = min(row, key=lambda l: (-row[l], l)) if row else 0
        merges.append((victim, target))
        if not target:
            continue
        into = adjacency[target]
        for x, c in row.items():
            del adjacency[x][victim]
            if x != target:
                adjacency[x][target] = adjacency[x].get(target, 0) + c
                into[x] = into.get(x, 0) + c
        areas[target] += area
        if areas[target] < min_area:
            heapq.heappush(heap, (areas[target], target))
    remap = np.arange(top + 1, dtype=np.int32)
    for victim, target in reversed(merges):
        remap[victim] = remap[target]
    keep = np.array(areas) > 0  # the survivors, and 0
    keep[0] = False
    return SegmentMap((np.cumsum(keep, dtype=np.int32) * keep)[remap][labels])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify_regions(seg: SegmentMap, bt: Raster2D, gradient: Raster2D,
                     clear_sky_cutoff: float = 280.0):
    """Split segments into cloud and clear by mean brightness temperature.

    A region is cloud iff its mean BT is strictly below clear_sky_cutoff.
    Pixels labeled 0 (clear sky in threshold-based maps) are never cloud.

    Returns:
        (CloudMask, list of RegionStats) with stats for every region 1..K.
    """
    if seg.shape != bt.shape:
        raise ValueError(f"shape mismatch: segments {seg.shape} vs bt {bt.shape}")
    if gradient.shape != seg.shape:
        raise ValueError(f"shape mismatch: segments {seg.shape} vs gradient {gradient.shape}")
    clear_sky_cutoff = check_number(clear_sky_cutoff, "clear_sky_cutoff")
    k, flat = seg.count, seg.labels.ravel()
    bt_sums = np.bincount(flat, weights=bt.values.ravel(), minlength=k + 1)
    bt_min = np.full(k + 1, np.inf)
    np.minimum.at(bt_min, flat, bt.values.ravel())
    grad_sums = np.bincount(flat, weights=gradient.values.ravel(), minlength=k + 1)
    stats = []
    cloudy = np.zeros(k + 1, dtype=bool)
    for label in range(1, k + 1):
        area = int(seg.areas[label])
        mean_bt = float(bt_sums[label] / area)
        is_cloud = mean_bt < clear_sky_cutoff
        cloudy[label] = is_cloud
        stats.append(RegionStats(
            label=label,
            area=area,
            mean_bt=mean_bt,
            min_bt=float(bt_min[label]),
            mean_gradient=float(grad_sums[label] / area),
            is_cloud=is_cloud,
        ))
    return CloudMask(cloudy[seg.labels]), stats
