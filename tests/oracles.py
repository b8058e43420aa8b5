"""Independent brute-force references the fast paths are tested against.

Everything here is written as a direct transcription of the definitions,
deliberately ignoring the production implementations: window scans use
explicit clipped slices, components use a plain BFS, scores use Python
loops. Slow is fine; agreeing for the wrong reason is not.
"""

import heapq
import struct

import numpy as np

from cloudseg.raster import HYDROMETEOR_SPECIES
from cloudseg.synth import (
    _COLD_SPLIT, _COLD_TOP_BT, _TAIL_CUTOFF_K, _WARM_SPLIT, TRUTH_DEPRESSION_K, _cloud_window,
)


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


def gms1_bytes(dtype_code: int, channel_id: str, plane: np.ndarray) -> bytes:
    """A one-channel GMS1 file (u8 mask, dtype 2, or u32 labels, dtype 3),
    packed field by field from the format's layout table."""
    h, w = plane.shape
    head = b"GMS1" + struct.pack("<BBHIII", 1, dtype_code, 0, w, h, 1)
    return head + channel_id.encode("ascii").ljust(16, b"\0") + plane.astype({2: "u1", 3: "<u4"}[dtype_code]).tobytes()


def _keep_components(labels: np.ndarray, min_area: int) -> np.ndarray:
    """Drop the labels with fewer than min_area pixels to 0 and number the
    rest 1.. in ascending order of their old labels."""
    areas = {}
    for v in labels.ravel().tolist():
        areas[v] = areas.get(v, 0) + 1
    renumber = {0: 0}
    for old in sorted(areas):
        if old and areas[old] >= min_area:
            renumber[old] = len(renumber)
    return np.array([[renumber.get(v, 0) for v in row] for row in labels.tolist()], dtype=np.int32)


def segment_reference(channels, bt: np.ndarray, n_scales: int = 5, normalize: bool = False, bins: int = 256,
                      min_seed_area: int = 8, min_area: int = 0, clear_sky_cutoff: float = 280.0):
    """`cloudseg segment` composed from the references above.

    channels are the selected 2D channels in order and bt the one
    classified against. Returns the label map, the cloud flags and the
    stats CSV text, or None where the command must exit 3 (a constant
    gradient field, or no seed component of min_seed_area pixels).
    """
    field = 0.0
    for values in channels:
        grad = multiscale_reference(np.asarray(values, dtype=np.float64), n_scales)
        if normalize and grad.max() > 0:
            grad = grad / grad.max()
        field = field + grad
    if field.min() == field.max():
        return None
    threshold, _ = exhaustive_otsu(field, bins)
    markers = _keep_components(flood_components(field <= threshold), min_seed_area)
    if markers.max() == 0:
        return None
    labels = all_seeds_flood(field, markers)
    if min_area > 0:
        labels = rescan_merge(labels, min_area)
    h, w = labels.shape
    cloudy = np.zeros(labels.shape, dtype=bool)
    rows = ["label,area,mean_bt,min_bt,mean_gradient,is_cloud"]
    for label in range(1, int(labels.max()) + 1):
        area, bt_sum, bt_min, grad_sum = 0, 0.0, np.inf, 0.0
        for r in range(h):
            for c in range(w):
                if labels[r, c] == label:
                    area += 1
                    bt_sum += float(bt[r, c])
                    bt_min = min(bt_min, float(bt[r, c]))
                    grad_sum += float(field[r, c])
        mean_bt = bt_sum / area
        is_cloud = mean_bt < clear_sky_cutoff
        cloudy[labels == label] = is_cloud
        rows.append(f"{label},{area},{mean_bt:.6f},{bt_min:.6f},{grad_sum / area:.6f},{str(is_cloud).lower()}")
    return labels, cloudy, "".join(f"{row}\n" for row in rows)


def ccs_reference(bt: np.ndarray, levels, min_area: int = 50):
    """`cloudseg ccs` composed from the references above: components at or
    below the first level, an all-seeds flood capped at each later level,
    then the rescan merge. Returns the label map; its cloud mask is
    labels != 0."""
    labels = flood_components(bt <= levels[0])
    for level in levels[1:]:
        labels = all_seeds_flood(bt, labels, limit=level)
    return rescan_merge(labels, min_area)


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


def render_reference(spec):
    """The synthetic scene's noiseless depression (height, width) and per-species
    column peaks (species, height, width), one cloud at a time in spec order:
    the loop `synth.generate_scene` ran before it rendered runs of clouds."""
    h, w = spec.height, spec.width
    bg = spec.background_bt
    depression = np.zeros((h, w))
    plume = np.zeros((len(HYDROMETEOR_SPECIES), h, w))  # column peak per species
    species_index = {name: i for i, name in enumerate(HYDROMETEOR_SPECIES)}

    for cloud in spec.clouds:
        depth = bg - cloud.min_bt
        if depth <= _TAIL_CUTOFF_K:
            continue
        r0, r1, c0, c1 = _cloud_window(cloud, depth, h, w)
        rows = np.arange(r0, r1, dtype=np.float64)[:, None]
        cols = np.arange(c0, c1, dtype=np.float64)[None, :]
        cy, cx = cloud.center
        dist2 = (rows - cy) ** 2 + (cols - cx) ** 2
        local = depth * np.exp(-dist2 / (2.0 * cloud.radius_px ** 2))
        depression[r0:r1, c0:c1] += local
        support = local > TRUTH_DEPRESSION_K
        split = _WARM_SPLIT if cloud.min_bt > _COLD_TOP_BT else _COLD_SPLIT
        for name, fraction in split.items():
            plume[species_index[name], r0:r1, c0:c1][support] += cloud.hydrometeor_peak * fraction
    return depression, plume
