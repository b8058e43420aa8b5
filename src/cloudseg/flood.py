"""Deterministic seeded priority flood over an 8-connected grid.

One engine serves both the marker-controlled watershed (priority image =
gradient magnitude) and threshold region growing (priority image =
brightness temperature). Callers pass one boolean mask of the pixels the
flood may claim to both ``seed_order`` and ``priority_flood``.

Semantics, fixed for reproducibility:

* the heap orders pixels by (priority value, global insertion sequence),
  so equal values resolve first-in first-out, and the sequence is unique,
  so nothing after it in an entry is ever compared;
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

The loop's bookkeeping covers the claimable pixels only, so its memory
and set-up follow the work, not the image: a bytearray of the padded mask
is 1 where a pixel may still be claimed and is zeroed on claim, a dict
holds the priorities of the claimable pixels, and each heap entry
carries its pixel's label. The one-pixel border and every pixel outside
the mask are 0 bytes, walls never claimed, which makes "is this byte 1?"
the loop's only claim test. The claims are scattered into a copy of the
labels at the end.
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
    w = priority.shape[1]
    pw = w + 2  # padded row width
    # 1 on the claimable pixels; the one-pixel border and every pixel
    # outside the mask are 0, walls the loop never claims
    free = np.pad(claimable, 1)
    claim = bytearray(free)
    vals = dict(zip(np.flatnonzero(free).tolist(), priority[claimable].tolist()))
    del free
    flat = np.asarray(seeds, dtype=np.intp)
    # pixel i = r * w + c sits at padded index (r + 1) * pw + c + 1 = i + 2 * r + pw + 1
    heap = list(zip(priority.ravel()[flat].tolist(), range(flat.size),
                    (flat + 2 * (flat // w) + pw + 1).tolist(), labels.ravel()[flat].tolist()))
    heapq.heapify(heap)  # seq is unique, so labels are never compared
    seq = len(heap)
    claimed, claimed_labels = [], []
    push = heapq.heappush
    pop = heapq.heappop
    offs = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)
    while heap:
        _, _, i, li = pop(heap)
        for off in offs:
            j = i + off
            if claim[j]:
                claim[j] = 0
                claimed.append(j)
                claimed_labels.append(li)
                push(heap, (vals[j], seq, j, li))
                seq += 1
    out = labels.astype(np.int32)
    padded = np.array(claimed, dtype=np.intp)
    np.put(out, padded - 2 * (padded // pw) + 1 - pw, claimed_labels)
    return out
