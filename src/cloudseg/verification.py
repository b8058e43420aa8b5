"""Truth-mask derivation and categorical verification scores.

The truth rule sums all hydrometeor species level by level, takes each
column's vertical maximum of the summed profile, and calls the column
cloudy when that maximum exceeds 1e-6 kg/kg. It runs in one pass over
the levels with a running maximum, so a volume streamed from its file
needs only one level and two float64 planes at a time. Scores follow the
standard contingency-table definitions; metrics whose denominator is
zero are reported as None (serialized to JSON null), never as 0 or NaN.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .raster import MIXING_RATIO_THRESHOLD, CloudMask, HydrometeorVolume, check_number


def derive_truth_mask(levels, threshold: float = MIXING_RATIO_THRESHOLD) -> CloudMask:
    """Column is cloudy iff the vertical max of the summed species profile
    exceeds the threshold (sum first, then maximize).

    Args:
        levels: a HydrometeorVolume, or its levels in order as
            (species, h, w) arrays, e.g. ``vol.values.transpose(1, 0, 2, 3)``
            or the planes of ``formats.read_volume_levels``. Each level is
            used before the next is taken, so a reader may reuse its buffer.
        threshold: mixing ratio (kg/kg) a column's maximum must exceed.
    """
    threshold = check_number(threshold, "threshold")
    if isinstance(levels, HydrometeorVolume):
        levels = levels.values.transpose(1, 0, 2, 3)
    column_max = None
    for plane in levels:
        # species added one by one in file order, as values.sum(axis=0) does
        summed = plane[0].astype(np.float64)
        for species in plane[1:]:
            summed += species
        if column_max is None:
            column_max = summed
        else:
            np.maximum(column_max, summed, out=column_max)
        del summed  # else the next level's sum is allocated beside it
    if column_max is None:
        raise ValueError("a truth mask needs at least one level")
    return CloudMask(column_max > threshold)


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


def contingency(pred: CloudMask, truth: CloudMask) -> ContingencyTable:
    """Tally TP/FN/FP/TN between a predicted and a reference mask."""
    if pred.shape != truth.shape:
        raise ValueError(f"dimension mismatch: prediction {pred.shape} vs truth {truth.shape}")
    p = pred.flags
    t = truth.flags
    return ContingencyTable(
        hits=int(np.sum(p & t)),
        misses=int(np.sum(~p & t)),
        false_alarms=int(np.sum(p & ~t)),
        correct_negatives=int(np.sum(~p & ~t)),
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
