"""Otsu threshold selection on gradient magnitudes and seed extraction.

Gradient histograms are heavily bottom-loaded: most pixels sit in smooth
regions while edge pixels spread into a long tail, so a two-class Otsu
split cleanly separates seed candidates (low side) from edges. Seeds
become the markers the watershed floods from.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .raster import MarkerMap, PreconditionError, Raster2D, check_number


class ConstantFieldError(PreconditionError):
    """Field has a single distinct value; no threshold can separate it."""


class NoSeedRegionsError(PreconditionError):
    """Every seed component fell below min_seed_area."""


@dataclass(frozen=True)
class OtsuResult:
    """Chosen bin-edge threshold and the variance it maximizes."""

    threshold: float
    between_class_variance: float


def otsu_threshold(field: Raster2D, bins: int = 256) -> OtsuResult:
    """Pick the histogram bin edge maximizing between-class variance.

    A `bins`-bin histogram is built over [min, max]; every interior bin
    edge is a candidate split with the low class taken as values <= edge.
    Splits within a relative 1e-9 of the best float score are compared
    again in exact arithmetic on the float bin centres, so that ties go to
    the lowest qualifying edge whatever the rounding.

    Raises:
        ConstantFieldError: all values identical, nothing to separate.
    """
    bins = check_number(bins, "bins", int, 2)
    v = field.values.ravel()
    vmin = float(v.min())
    vmax = float(v.max())
    if vmin == vmax:
        raise ConstantFieldError(f"constant field (all values {vmin}); cannot threshold")
    hist, edges = np.histogram(v, bins=bins, range=(vmin, vmax))
    centers = (edges[:-1] + edges[1:]) / 2.0
    counts = hist.astype(np.float64)
    total = counts.sum()
    cum_s = np.cumsum(counts * centers)
    # split k's low class is bins 0..k; vmin falls in the first bin and vmax in
    # the last, so neither class is ever empty
    n0 = np.cumsum(counts)[:-1]
    n1 = total - n0
    variance = n0 * n1 / (total * total) * (cum_s[:-1] / n0 - (cum_s[-1] - cum_s[:-1]) / n1) ** 2
    split = int(np.argmax(variance))  # first occurrence = lowest edge on ties
    near = np.flatnonzero(variance >= variance[split] * (1.0 - 1e-9))
    near = near[np.unique(n0[near], return_index=True)[1]]  # equal low-class counts tie exactly
    if near.size > 1:
        from fractions import Fraction  # loads decimal: 0.45 MiB and 2.5 ms that most runs need not pay
        nonzero = np.flatnonzero(hist)
        prefix = [0, *itertools.accumulate(int(hist[i]) * Fraction(float(centers[i])) for i in nonzero)]
        n, s = int(total), prefix[-1]

        def exact(k):  # split k's between-class variance times n ** 2, then the lower edge
            n0_k, s0 = int(n0[k]), prefix[np.searchsorted(nonzero, k, side="right")]
            return (n * s0 - n0_k * s) ** 2 / (n0_k * (n - n0_k)), -k

        split = max(near.tolist(), key=exact)
    return OtsuResult(
        threshold=float(edges[split + 1]),
        between_class_variance=float(variance[split]),
    )


def label_components(mask: np.ndarray) -> np.ndarray:
    """8-connected components of a boolean mask as an int32 map.

    Background stays 0. A component with an earlier first pixel in
    row-major order gets a smaller label, so labels run 1..K in that order.

    Works on runs, the maximal horizontal stretches of set pixels. A run
    joins each run in the row above whose columns reach within one of its
    own. The joins are made by hooking the larger root onto the smaller and
    pointer jumping until every run points at its component's root, which
    is then the component's first run.
    """
    h, w = mask.shape
    pw = w + 1  # one False column ends every row's last run in that row
    padded = np.zeros((h, pw), dtype=bool)
    padded[:, :w] = mask
    edges = np.flatnonzero(np.diff(padded.ravel(), prepend=False))
    del padded
    starts, ends = edges[0::2], edges[1::2]  # flat [start, end) of each run
    n = starts.size
    # Flat positions and pair counts stay int64; run indices are int32, as
    # an image within the codec's 2**31-element cap has fewer runs than that.
    # Run k meets runs lo[k]..lo[k]+count[k]-1: those of the row above that
    # end at or after its start and begin at or before its end, shifted up one row.
    lo = np.searchsorted(ends, starts - pw, side="left").astype(np.int32)
    count = np.searchsorted(starts, ends - pw, side="right").astype(np.int32)
    count -= lo
    np.maximum(count, 0, out=count)
    # pair p meets run lo[k] - (first pair of run k) + p, k being its run below
    shift = np.cumsum(count, dtype=np.int64)
    shift -= count
    np.subtract(lo, shift, out=shift)
    del lo
    count = count.astype(np.intp)  # else np.repeat makes this copy on each call
    above = np.repeat(shift, count)
    del shift
    above += np.arange(above.size)
    above = above.astype(np.int32)
    below = np.repeat(np.arange(n, dtype=np.int32), count)
    del count
    parent = np.arange(n, dtype=np.int32)
    while below.size:
        np.minimum.at(parent, below, above)  # both roots, above < below
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        a, b = parent[below], parent[above]
        joined = a != b
        below, above = np.maximum(a[joined], b[joined]), np.minimum(a[joined], b[joined])
    run_label = np.cumsum(parent == np.arange(n, dtype=np.int32), dtype=np.int32)[parent]
    del parent
    marks = np.zeros(h * pw, dtype=np.int32)
    marks[starts] = run_label
    marks[ends] = -run_label
    del edges, starts, ends, run_label
    np.cumsum(marks, out=marks)
    return np.ascontiguousarray(marks.reshape(h, pw)[:, :w])


def generate_markers(field: Raster2D, otsu: OtsuResult, min_seed_area: int = 8) -> MarkerMap:
    """Label low-gradient seed components, dropping the tiny ones.

    Pixels with value <= otsu.threshold are seed pixels; 8-connected seed
    components get labels 1..K in row-major first-pixel order. Components
    smaller than min_seed_area are demoted to non-seed, and survivors are
    relabeled so the ids stay consecutive.

    Raises:
        NoSeedRegionsError: min_seed_area wiped out every component.
    """
    min_seed_area = check_number(min_seed_area, "min_seed_area", int, 1)
    seeds = field.values <= otsu.threshold
    labels = label_components(seeds)
    count = int(labels.max())
    if count == 0:
        raise NoSeedRegionsError("no pixel falls at or below the threshold")
    keep = np.bincount(labels.ravel(), minlength=count + 1) >= min_seed_area
    keep[0] = False
    if not keep.any():
        raise NoSeedRegionsError(
            f"all {count} seed components are smaller than min_seed_area="
            f"{min_seed_area}; use a smaller value"
        )
    # dropping whole components joins no others: renumber survivors in order
    labels = (np.cumsum(keep, dtype=np.int32) * keep)[labels]
    return MarkerMap(labels)
