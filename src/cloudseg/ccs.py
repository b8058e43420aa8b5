"""Incremental-threshold seeded region growing over brightness temperature.

Cloud patches start from the 8-connected components of the coldest pixels
and absorb warmer neighbours while the threshold is raised level by level,
up to a hard cap (253 K by default). Anything warmer than the cap is never
claimed, which is exactly why warm clouds go undetected by this scheme.
"""

from dataclasses import dataclass

from .flood import priority_flood, seed_order
from .markers import label_components
from .raster import CloudMask, Raster2D, SegmentMap, Units, check_number
from .watershed import merge_small_regions


@dataclass(frozen=True)
class CcsConfig:
    """Threshold schedule and cleanup size for the region growing.

    threshold_levels must be finite and strictly ascend; the last level is
    the hard cap above which no pixel is ever claimed. min_area is a
    positive integer.
    """

    threshold_levels: tuple = (220.0, 235.0, 253.0)
    min_area: int = 50

    def __post_init__(self):
        levels = tuple(check_number(t, "threshold_levels", float) for t in self.threshold_levels)
        if not levels:
            raise ValueError("need at least one threshold level")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"threshold levels must be strictly ascending: {levels}")
        object.__setattr__(self, "threshold_levels", levels)
        object.__setattr__(self, "min_area", check_number(self.min_area, "min_area", int, 1))


def ccs_segment(bt: Raster2D, cfg: CcsConfig = CcsConfig()) -> SegmentMap:
    """Segment cloud patches by seeded growth up to the threshold cap.

    Seeds are the 8-connected components of pixels at or below the first
    level, labeled in row-major order. For each later level, frontier
    pixels grow into unlabeled neighbours with BT <= level, coldest first
    with FIFO ties; a pixel keeps the label that reaches it first. Pixels
    warmer than the cap stay 0 (clear). Patches below cfg.min_area are
    finally merged into their dominant neighbour or removed.

    An image with no pixel at or below the first level yields an all-zero
    map rather than an error.
    """
    if bt.units is not Units.KELVIN:
        raise ValueError("ccs_segment expects brightness temperature in kelvin")
    values = bt.values
    labels = label_components(values <= cfg.threshold_levels[0])
    for level in cfg.threshold_levels[1:]:
        eligible = (labels == 0) & (values <= level)
        seeds = seed_order(labels, eligible)
        if len(seeds):
            labels = priority_flood(values, labels, seeds, eligible)
        del eligible, seeds
    seg = SegmentMap(labels)
    del labels  # a flood's output is a view of its padded grid, which the merge need not hold
    return merge_small_regions(seg, min_area=cfg.min_area)


def ccs_cloud_mask(seg: SegmentMap) -> CloudMask:
    """Cloud wherever a patch label is present; label 0 is clear."""
    return CloudMask(seg.labels != 0)
