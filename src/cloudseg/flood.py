"""Deterministic seeded priority flood over an 8-connected grid.

One engine serves both the marker-controlled watershed (priority image =
gradient magnitude) and threshold region growing (priority image =
brightness temperature). Callers pass one boolean mask of the pixels the
flood may claim to both ``seed_order`` and ``priority_flood``.

Semantics, fixed for reproducibility:

* the heap orders pixels by (priority value, global insertion sequence),
  so equal values resolve first-in first-out;
* when a pixel is popped, each unlabeled claimable 8-neighbour immediately
  takes the popped pixel's label and enters the heap at its own value
  (first claim wins, labels never change afterwards);
* seeds enter the heap in the caller-supplied order before any growth.

Only frontier seeds are worth enqueueing: labeled pixels with at least
one claimable 8-neighbour. This is exact. Labels never change once set
and the mask is fixed, so a seed with no claimable neighbour claims
nothing whenever it is popped. Dropping it keeps the relative (value,
seq) order of every other heap entry, because all claims still enter
after all seeds and each claim's seq shifts by the same constant.
Markers usually cover most of the image, so this keeps their interiors
out of the heap.

The loop runs on flat Python lists, far faster than scalar ndarray
indexing. A one-pixel border of -1 walls, plus -1 on every unlabeled
pixel outside the mask, makes "label is 0" the loop's only claim test.
"""

import heapq

import numpy as np


def seed_order(labels: np.ndarray, claimable: np.ndarray) -> list:
    """Flat indices of the frontier seeds, ascending label, row-major within.

    A frontier seed is a labeled pixel with at least one 8-neighbour
    set in ``claimable`` (the pixels the flood may still claim).
    """
    h, w = claimable.shape
    padded = np.pad(claimable, 1)
    near = np.zeros((h, w), dtype=bool)  # 3x3 dilation of the mask
    for dr in range(3):
        for dc in range(3):
            near |= padded[dr:dr + h, dc:dc + w]
    frontier = (labels > 0) & near
    flat = labels.ravel()
    idx = np.flatnonzero(frontier)
    return idx[np.argsort(flat[idx], kind="stable")].tolist()


def priority_flood(priority: np.ndarray, labels: np.ndarray, seeds: list,
                   claimable: np.ndarray) -> np.ndarray:
    """Grow labels outward from the seed pixels in priority order.

    Args:
        priority: 2D float array the heap is keyed on.
        labels: 2D int array, 0 = unclaimed; not modified.
        seeds: flat indices of already-labeled pixels, in enqueue order.
        claimable: 2D bool array, the unlabeled pixels the flood may claim.

    Returns:
        New int32 label array; unlabeled pixels outside ``claimable`` stay 0.
    """
    h, w = priority.shape
    pw = w + 2  # padded row width
    vals = priority.ravel().tolist()
    # -1 walls on a one-pixel border and on unlabeled pixels outside the mask
    labs = np.pad(np.where(claimable | (labels != 0), labels, -1), 1, constant_values=-1)
    labs = labs.ravel().tolist()  # rebinding frees both arrays before the flood
    # pixel i = r * w + c sits at padded index (r + 1) * pw + c + 1 = i + 2 * r + pw + 1
    heap = [(vals[i], seq, i + 2 * (i // w) + pw + 1) for seq, i in enumerate(seeds)]
    heapq.heapify(heap)
    seq = len(heap)
    push = heapq.heappush
    pop = heapq.heappop
    offs = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)
    while heap:
        _, _, i = pop(heap)
        li = labs[i]
        for off in offs:
            j = i + off
            if labs[j] == 0:
                labs[j] = li
                push(heap, (vals[j - 2 * (j // pw) + 1 - pw], seq, j))
                seq += 1
    out = np.asarray(labs, dtype=np.int32).reshape(h + 2, pw)[1:-1, 1:-1]
    return np.maximum(out, 0, out=out)  # walls back to 0, in place
