"""Independent brute-force references the fast paths are tested against.

Everything here is written as a direct transcription of the definitions,
deliberately ignoring the production implementations: window scans use
explicit clipped slices, components use a plain BFS, scores use Python
loops. Slow is fine; agreeing for the wrong reason is not.
"""

import heapq

import numpy as np


def window_max(values: np.ndarray, radius: int) -> np.ndarray:
    """Clipped-window maximum via per-pixel slicing."""
    h, w = values.shape
    out = np.empty_like(values)
    for r in range(h):
        r0, r1 = max(0, r - radius), min(h, r + radius + 1)
        for c in range(w):
            c0, c1 = max(0, c - radius), min(w, c + radius + 1)
            out[r, c] = values[r0:r1, c0:c1].max()
    return out


def window_min(values: np.ndarray, radius: int) -> np.ndarray:
    h, w = values.shape
    out = np.empty_like(values)
    for r in range(h):
        r0, r1 = max(0, r - radius), min(h, r + radius + 1)
        for c in range(w):
            c0, c1 = max(0, c - radius), min(w, c + radius + 1)
            out[r, c] = values[r0:r1, c0:c1].min()
    return out


def multiscale_reference(values: np.ndarray, n_scales: int) -> np.ndarray:
    """Term-by-term composition of the multi-scale gradient from the
    naive window operators."""
    acc = np.zeros_like(values)
    for i in range(1, n_scales + 1):
        grad_i = window_max(values, i) - window_min(values, i)
        acc += window_min(grad_i, i - 1)
    return acc / n_scales


def exhaustive_otsu(values: np.ndarray, bins: int):
    """Scan every interior bin edge in exact rational arithmetic; return
    (threshold, variance).

    Exact arithmetic makes mathematically tied splits (runs of empty bins)
    compare equal, so the lowest-edge tie-break is well defined.
    """
    from fractions import Fraction

    v = np.asarray(values, dtype=np.float64).ravel()
    hist, edges = np.histogram(v, bins=bins, range=(float(v.min()), float(v.max())))
    centers = (edges[:-1] + edges[1:]) / 2.0
    counts = [int(c) for c in hist]
    weighted = [Fraction(c) * Fraction(float(x)) for c, x in zip(counts, centers)]
    total = Fraction(sum(counts))
    prefix_n = [Fraction(0)]
    prefix_s = [Fraction(0)]
    for c, s in zip(counts, weighted):
        prefix_n.append(prefix_n[-1] + c)
        prefix_s.append(prefix_s[-1] + s)
    best_split = None
    best_var = Fraction(-1)
    for split in range(1, bins):
        n0 = prefix_n[split]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            var = Fraction(0)
        else:
            mu0 = prefix_s[split] / n0
            mu1 = (prefix_s[-1] - prefix_s[split]) / n1
            var = n0 * n1 * (mu0 - mu1) ** 2 / (total * total)
        if var > best_var:
            best_var = var
            best_split = split
    return float(edges[best_split]), float(best_var)


_NEIGHBOURS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def flood_components(mask: np.ndarray) -> np.ndarray:
    """8-connected components by BFS, labeled 1.. in row-major discovery order."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    next_label = 0
    for r in range(h):
        for c in range(w):
            if mask[r, c] and labels[r, c] == 0:
                next_label += 1
                queue = [(r, c)]
                labels[r, c] = next_label
                while queue:
                    qr, qc = queue.pop()
                    for dr, dc in _NEIGHBOURS:
                        nr, nc = qr + dr, qc + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and labels[nr, nc] == 0:
                            labels[nr, nc] = next_label
                            queue.append((nr, nc))
    return labels


def all_seeds_flood(priority: np.ndarray, labels: np.ndarray, limit=None) -> np.ndarray:
    """Priority flood seeded from every labeled pixel.

    Seeds enter in ascending label order, row-major within a label; the
    heap holds (value, seq, row, col) with a global insertion counter;
    a popped pixel hands its label to each unlabeled in-bounds
    8-neighbour whose value is within the limit, which then enters the
    heap at its own value.
    """
    h, w = labels.shape
    out = np.array(labels, dtype=np.int64)
    seeds = sorted(((int(out[r, c]), r, c) for r in range(h) for c in range(w) if out[r, c] > 0))
    heap = []
    seq = 0
    for _, r, c in seeds:
        heapq.heappush(heap, (float(priority[r, c]), seq, r, c))
        seq += 1
    while heap:
        _, _, r, c = heapq.heappop(heap)
        for dr, dc in _NEIGHBOURS:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < h and 0 <= nc < w) or out[nr, nc] != 0:
                continue
            value = float(priority[nr, nc])
            if limit is None or value <= limit:
                out[nr, nc] = out[r, c]
                heapq.heappush(heap, (value, seq, nr, nc))
                seq += 1
    return out.astype(np.int32)


def label_is_connected(labels: np.ndarray, label: int) -> bool:
    """True iff the pixels carrying `label` form one 8-connected set."""
    mask = labels == label
    total = int(mask.sum())
    if total == 0:
        return False
    comp = flood_components(mask)
    return int(comp.max()) == 1


def minimax_pass_height(values: np.ndarray, sources, targets) -> float:
    """Smallest possible path maximum between two pixel sets.

    Widest-path Dijkstra over the 8-connected grid; the cost of a path is
    the highest value it visits, endpoints included.
    """
    h, w = values.shape
    best = np.full((h, w), np.inf)
    heap = []
    for (r, c) in sources:
        cost = values[r, c]
        best[r, c] = cost
        heapq.heappush(heap, (cost, r, c))
    target_set = set(map(tuple, targets))
    while heap:
        cost, r, c = heapq.heappop(heap)
        if cost > best[r, c]:
            continue
        if (r, c) in target_set:
            return float(cost)
        for dr, dc in _NEIGHBOURS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w:
                ncost = max(cost, values[nr, nc])
                if ncost < best[nr, nc]:
                    best[nr, nc] = ncost
                    heapq.heappush(heap, (ncost, nr, nc))
    raise AssertionError("targets unreachable")


def boundary_pairs(labels: np.ndarray):
    """All 8-adjacent pixel pairs carrying different labels."""
    h, w = labels.shape
    for r in range(h):
        for c in range(w):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and labels[r, c] != labels[nr, nc]:
                    yield (r, c), (nr, nc)


def shared_boundary_length(labels: np.ndarray, a: int, b: int) -> int:
    """Count of 8-adjacent pixel pairs between regions a and b."""
    count = 0
    for (p, q) in boundary_pairs(labels):
        pair = {int(labels[p]), int(labels[q])}
        if pair == {a, b}:
            count += 1
    return count


def rescan_merge(labels: np.ndarray, min_area: int) -> np.ndarray:
    """Small-region merge that recounts every boundary after each merge.

    While more than one region is left and some region is smaller than
    min_area: take the smallest (ties: lowest label), count its 8-adjacent
    pixel pairs with each positive-label neighbour, and relabel it to the
    neighbour with the most pairs (ties: lowest label), or to 0 when it
    has none. Survivors are then renumbered 1..K' in ascending order.
    """
    out = np.array(labels, dtype=np.int64)
    while True:
        areas = {}
        for v in out.ravel().tolist():
            if v > 0:
                areas[v] = areas.get(v, 0) + 1
        offenders = [l for l in areas if areas[l] < min_area]
        if len(areas) <= 1 or not offenders:
            break
        victim = min(offenders, key=lambda l: (areas[l], l))
        shared = {}
        for p, q in boundary_pairs(out):
            a, b = int(out[p]), int(out[q])
            other = b if a == victim else a if b == victim else 0
            if other > 0:
                shared[other] = shared.get(other, 0) + 1
        target = min(shared, key=lambda l: (-shared[l], l)) if shared else 0
        out[out == victim] = target
    survivors = sorted(set(out.ravel().tolist()) - {0})
    renumber = {old: new for new, old in enumerate(survivors, start=1)}
    renumber[0] = 0
    return np.array([[renumber[v] for v in row] for row in out.tolist()], dtype=np.int32)


def tally(pred: np.ndarray, truth: np.ndarray):
    """Per-pixel contingency tally with explicit Python loops."""
    tp = fn = fp = tn = 0
    for p, t in zip(pred.ravel().tolist(), truth.ravel().tolist()):
        if p and t:
            tp += 1
        elif not p and t:
            fn += 1
        elif p and not t:
            fp += 1
        else:
            tn += 1
    return tp, fn, fp, tn


def truth_mask_reference(values: np.ndarray, threshold: float) -> np.ndarray:
    """Truth rule on a whole [species][level][row][col] volume: sum the
    species, then take each column's maximum over the levels."""
    return values.sum(axis=0).max(axis=0) > threshold
