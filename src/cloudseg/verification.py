"""Truth-mask derivation and categorical verification scores.

The truth rule sums all hydrometeor species level by level, takes each
column's vertical maximum of the summed profile, and calls the column
cloudy when that maximum exceeds 1e-6 kg/kg. The maximum exceeds the
threshold exactly when some level's sum does, so one pass over the levels
ORs each level's test into one bool plane: a volume streamed from its
file needs one f32 species plane, one float64 sum plane and two bool
planes at a time. Scores follow the standard contingency-table
definitions; metrics whose denominator is zero are reported as None
(serialized to JSON null), never as 0 or NaN. The table counts 0/1
bytes, so only the truth rule loads numpy.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .base import MIXING_RATIO_THRESHOLD, check_number


def derive_truth_mask(levels, threshold: float = MIXING_RATIO_THRESHOLD) -> "CloudMask":
    """Column is cloudy iff the vertical max of the summed species profile
    exceeds the threshold (sum first, then maximize).

    Each level's species are summed in order into one float64 plane (the
    additions of ``sum(axis=0, dtype=float64)``), and the column is cloudy
    iff some level's sum exceeds the threshold.

    Args:
        levels: a HydrometeorVolume, or its levels in order, each an
            iterable of (h, w) species planes in order: e.g. the
            (species, h, w) arrays of ``vol.values.transpose(1, 0, 2, 3)``
            or the levels of ``formats.read_volume_levels``. Each plane is
            used before the next is taken, so a reader may reuse its buffer.
        threshold: mixing ratio (kg/kg) a column's maximum must exceed.
    """
    import numpy as np

    from .raster import CloudMask, HydrometeorVolume

    threshold = check_number(threshold, "threshold")
    if isinstance(levels, HydrometeorVolume):
        levels = levels.values.transpose(1, 0, 2, 3)
    cloudy = None
    for level in levels:
        planes = iter(level)
        first = next(planes, None)
        if first is None:
            raise ValueError("a truth mask needs at least one species in each level")
        if cloudy is None:
            total = np.empty(first.shape)
            above = np.empty(first.shape, dtype=bool)
            cloudy = np.zeros(first.shape, dtype=bool)
        np.copyto(total, first)
        for plane in planes:
            np.add(total, plane, out=total)
        np.greater(total, threshold, out=above)
        np.logical_or(cloudy, above, out=cloudy)
    if cloudy is None:
        raise ValueError("a truth mask needs at least one level")
    return CloudMask(cloudy)


@dataclass(frozen=True)
class ContingencyTable:
    """Pixel counts of the four prediction/truth outcomes."""

    hits: int
    misses: int
    false_alarms: int
    correct_negatives: int

    def __post_init__(self):
        for name in ("hits", "misses", "false_alarms", "correct_negatives"):
            object.__setattr__(self, name, check_number(getattr(self, name), name, int, 0))

    @property
    def total(self) -> int:
        return self.hits + self.misses + self.false_alarms + self.correct_negatives


def _pixel_bytes(mask) -> tuple:
    """(shape, one byte 0 or 1 per pixel) of a CloudMask or a read_mask_bytes pair."""
    return mask if isinstance(mask, tuple) else (mask.shape, mask.flags.astype("u1"))


def contingency(pred, truth) -> ContingencyTable:
    """Tally TP/FN/FP/TN between a predicted and a reference mask, each a
    CloudMask or the ((height, width), payload) of ``base.read_mask_bytes``:
    read as one integer, a mask's 0/1 bytes hold a set bit per cloudy pixel."""
    (shape, pred_bytes), (truth_shape, truth_bytes) = _pixel_bytes(pred), _pixel_bytes(truth)
    if shape != truth_shape:
        raise ValueError(f"dimension mismatch: prediction {shape} vs truth {truth_shape}")
    p, t = int.from_bytes(pred_bytes, "little"), int.from_bytes(truth_bytes, "little")
    hits = (p & t).bit_count()
    predicted = p.bit_count()
    observed = t.bit_count()
    return ContingencyTable(
        hits=hits,
        misses=observed - hits,
        false_alarms=predicted - hits,
        correct_negatives=math.prod(shape) - predicted - observed + hits,
    )


@dataclass(frozen=True)
class VerificationReport:
    """The five categorical scores plus the raw counts.

    far is false alarms over not-observed events, implemented verbatim
    from its table definition; far_conventional is the textbook
    FP/(TP+FP) ratio, carried alongside for comparability. The evaluate
    JSON report is ``dataclasses.asdict`` of this, keys in field order.
    """

    pod: Optional[float]
    far: Optional[float]
    far_conventional: Optional[float]
    undetected_error_rate: Optional[float]
    bias: Optional[float]
    ets: Optional[float]
    hits: int
    misses: int
    false_alarms: int
    correct_negatives: int


def verify(table: ContingencyTable) -> VerificationReport:
    """Compute POD, FAR (both forms), undetected error rate, bias and ETS.

    observed = TP+FN and not_observed = FP+TN share the denominators:

        pod  = TP / observed          ur   = FN / observed
        far  = FP / not_observed      bias = (TP+FP) / observed
        ets  = (TP - h) / (TP+FN+FP - h),  h = observed*(TP+FP)/total

    Raises:
        ValueError: table with zero total.
    """
    tp, fn, fp, tn = table.hits, table.misses, table.false_alarms, table.correct_negatives
    total = table.total
    if total == 0:
        raise ValueError("empty contingency table")
    observed = tp + fn
    not_observed = fp + tn
    detected = tp + fp

    pod = tp / observed if observed else None
    ur = fn / observed if observed else None
    far = fp / not_observed if not_observed else None
    far_conv = fp / detected if detected else None
    bias = detected / observed if observed else None

    hits_random = observed * detected / total
    ets_denom = tp + fn + fp - hits_random
    ets = (tp - hits_random) / ets_denom if ets_denom != 0 else None

    return VerificationReport(
        pod=pod,
        far=far,
        far_conventional=far_conv,
        undetected_error_rate=ur,
        bias=bias,
        ets=ets,
        hits=tp,
        misses=fn,
        false_alarms=fp,
        correct_negatives=tn,
    )
