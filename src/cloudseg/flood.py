"""Deterministic seeded priority flood over an 8-connected grid.

One engine serves both the marker-controlled watershed (priority image =
gradient magnitude) and threshold region growing (priority image =
brightness temperature). Callers pass one boolean mask of the pixels the
flood may claim to both ``seed_order`` and ``priority_flood``.

Semantics, fixed for reproducibility:

* the heap orders pixels by (priority value, global insertion sequence),
  so equal values resolve first-in first-out, and the sequence is unique,
  so the pixel after it in an entry is never compared;
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

The loop's state is one padded int32 label grid and the heap. The grid
is the claim state, the walls and the output at once: -1 on the
one-pixel border and on every unlabeled pixel outside the mask, 0 on
the claimable pixels, the label elsewhere, so a popped pixel's label is
its grid cell and "is this cell 0?" is the loop's only claim test. A
heap entry is (value, seq, padded index). At the end the walls are
cleared to 0 and the grid's interior is the result.
"""

import heapq

import numpy as np

from .morphology import _window_max  # bound at import: perfbench counts morphology's own calls


def seed_order(labels: np.ndarray, claimable: np.ndarray) -> np.ndarray:
    """Frontier seeds as an intp array of flat indices in enqueue order.

    A frontier seed is a labeled pixel with at least one 8-neighbour
    set in ``claimable`` (the pixels the flood may still claim); seeds
    come in ascending label order, row-major within a label.
    """
    frontier = (labels > 0) & _window_max(claimable, 1)  # 3x3 dilation of the mask
    flat = labels.ravel()
    idx = np.flatnonzero(frontier)
    return idx[np.argsort(flat[idx], kind="stable")]


def priority_flood(priority: np.ndarray, labels: np.ndarray, seeds: np.ndarray,
                   claimable: np.ndarray) -> np.ndarray:
    """Grow labels outward from the seed pixels in priority order.

    Args:
        priority: 2D float array the heap is keyed on.
        labels: 2D int array, 0 = unclaimed; not modified.
        seeds: intp array of already-labeled flat indices, in enqueue order.
        claimable: 2D bool array, the unlabeled pixels the flood may claim.

    Returns:
        New int32 label array (a view into the flood's padded grid);
        unlabeled pixels outside ``claimable`` stay 0.
    """
    h, w = priority.shape
    pw = w + 2  # padded row width
    grid = np.full((h + 2, pw), -1, dtype=np.int32)
    inner = grid[1:-1, 1:-1]
    inner[...] = labels
    inner[inner == 0] = -1  # every unlabeled pixel is a wall...
    inner[claimable] = 0  # ...unless the flood may claim it
    cells = memoryview(grid.reshape(-1))
    values = np.ascontiguousarray(priority, dtype=np.float64).reshape(-1)
    vals = memoryview(values)
    # pixel i = r * w + c sits at padded index (r + 1) * pw + c + 1 = i + 2 * r + pw + 1
    heap = list(zip(values[seeds].tolist(), range(seeds.size), (seeds + 2 * (seeds // w) + pw + 1).tolist()))
    heapq.heapify(heap)
    seq = len(heap)
    push = heapq.heappush
    pop = heapq.heappop
    offs = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)
    while heap:
        _, _, i = pop(heap)
        label = cells[i]
        for off in offs:
            j = i + off
            if not cells[j]:
                cells[j] = label
                push(heap, (vals[j - 2 * (j // pw) + 1 - pw], seq, j))
                seq += 1
    np.maximum(grid, 0, out=grid)  # the walls back to 0
    return inner
