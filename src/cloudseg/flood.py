"""Deterministic seeded priority flood over an 8-connected grid.

One engine serves both the marker-controlled watershed (priority image =
gradient magnitude, no eligibility limit) and threshold region growing
(priority image = brightness temperature, limit = current threshold).

Semantics, fixed for reproducibility:

* the heap orders pixels by (priority value, global insertion sequence),
  so equal values resolve first-in first-out;
* when a pixel is popped, each unlabeled eligible 8-neighbour immediately
  takes the popped pixel's label and enters the heap at its own value
  (first claim wins, labels never change afterwards);
* seeds enter the heap in the caller-supplied order before any growth.

Only frontier seeds are worth enqueueing: labeled pixels with at least
one claimable 8-neighbour (unlabeled, and within the limit if one is
given). This is exact. Labels never change once set and eligibility is
fixed, so a seed with no claimable neighbour claims nothing whenever it
is popped. Dropping it keeps the relative (value, seq) order of every
other heap entry, because all claims still enter after all seeds and
each claim's seq shifts by the same constant. Markers usually cover most
of the image, so this keeps their interiors out of the heap.

The loop runs on flat Python lists: scalar indexing on ndarrays is far
slower, and a 512 x 512 flood has to stay comfortably inside the
end-to-end time budget.
"""

import heapq

import numpy as np
from scipy import ndimage

_EIGHT = np.ones((3, 3), dtype=bool)


def seed_order(labels: np.ndarray, claimable: np.ndarray) -> list:
    """Flat indices of the frontier seeds, ascending label, row-major within.

    A frontier seed is a labeled pixel with at least one 8-neighbour
    set in ``claimable`` (the pixels the flood may still claim).
    """
    frontier = (labels > 0) & ndimage.binary_dilation(claimable, structure=_EIGHT)
    flat = labels.ravel()
    idx = np.flatnonzero(frontier)
    return idx[np.argsort(flat[idx], kind="stable")].tolist()


def priority_flood(priority: np.ndarray, labels: np.ndarray, seeds: list, limit=None) -> np.ndarray:
    """Grow labels outward from the seed pixels in priority order.

    Args:
        priority: 2D float array the heap is keyed on.
        labels: 2D int array, 0 = unclaimed; not modified.
        seeds: flat indices of already-labeled pixels, in enqueue order.
        limit: if given, only pixels with priority <= limit are claimable.

    Returns:
        New int32 label array.
    """
    h, w = priority.shape
    vals = priority.ravel().tolist()
    labs = labels.astype(np.int64).ravel().tolist()
    n = h * w
    heap = [(vals[i], seq, i) for seq, i in enumerate(seeds)]
    heapq.heapify(heap)
    seq = len(heap)
    push = heapq.heappush
    pop = heapq.heappop
    # (flat offset, column delta) pairs; the delta guards against row wrap
    offs = ((-w - 1, -1), (-w, 0), (-w + 1, 1), (-1, -1), (1, 1), (w - 1, -1), (w, 0), (w + 1, 1))
    while heap:
        _, _, i = pop(heap)
        li = labs[i]
        ci = i % w
        for off, dc in offs:
            j = i + off
            if j < 0 or j >= n:
                continue
            cj = ci + dc
            if cj < 0 or cj >= w:
                continue
            if labs[j] == 0:
                vj = vals[j]
                if limit is None or vj <= limit:
                    labs[j] = li
                    push(heap, (vj, seq, j))
                    seq += 1
    return np.asarray(labs, dtype=np.int32).reshape(h, w)
