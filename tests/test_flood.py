"""Frontier seeding and the priority flood against the all-seeds oracle."""

import tracemalloc

import numpy as np

import oracles
from cloudseg.flood import priority_flood, seed_order


def claimable(priority, labels, limit):
    free = labels == 0
    return free if limit is None else free & (priority <= limit)


class TestSeedOrder:
    def test_interior_seeds_are_dropped(self):
        labels = np.array([
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            [2, 2, 0, 0],
        ])
        assert seed_order(labels, labels == 0).tolist() == [2, 6, 9, 10, 13]

    def test_neighbour_above_limit_is_not_claimable(self):
        priority = np.array([[0.0, 9.0, 0.0, 1.0]])
        labels = np.array([[1, 0, 2, 0]])
        assert seed_order(labels, claimable(priority, labels, 5.0)).tolist() == [2]

    def test_ascending_label_then_row_major(self):
        labels = np.array([
            [2, 2, 0],
            [0, 0, 0],
            [1, 1, 1],
        ])
        assert seed_order(labels, labels == 0).tolist() == [6, 7, 8, 0, 1]

    def test_fully_labeled_map_has_no_seeds(self):
        labels = np.array([[1, 1], [2, 2]])
        assert seed_order(labels, labels == 0).tolist() == []


def test_seed_order_holds_one_index_array():
    """A 1024 x 1024 checkerboard makes every labeled pixel a frontier seed
    (524,288 of them). The seeds come back as one intp array, 4 MiB, and
    the call peaks near 13 MiB; a Python list of them held 20 MiB and
    peaked at 29 MiB."""
    n = 1024
    labels = (np.indices((n, n)).sum(axis=0) % 2 == 0).astype(np.int32)
    mask = labels == 0
    tracemalloc.start()
    try:
        seeds = seed_order(labels, mask)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(seeds, np.ndarray) and seeds.dtype == np.intp
    np.testing.assert_array_equal(seeds, np.flatnonzero(labels))
    assert held <= 8 * 2 ** 20, f"held {held / 2 ** 20:.1f} MiB"
    assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def random_case(rng):
    shape = rng.integers(1, 13, size=2)
    if rng.random() < 0.2:
        shape[rng.integers(2)] = 1  # 1xN and Nx1 strips
    h, w = int(shape[0]), int(shape[1])
    if rng.random() < 0.7:
        priority = rng.integers(0, 3, size=(h, w)).astype(float)  # 0-2 plateaus
    else:
        priority = rng.random((h, w)) * 3.0
    density = rng.choice([0.05, 0.3, 0.6, 0.9, 1.0])
    labels = np.where(rng.random((h, w)) < density, rng.integers(1, 5, size=(h, w)), 0)
    limit = None if rng.random() < 0.5 else float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))
    return priority, labels, limit


def naive_seed_order(labels, mask):
    h, w = labels.shape
    seeds = []
    for r in range(h):
        for c in range(w):
            near = mask[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2]
            if labels[r, c] > 0 and near.any():
                seeds.append((labels[r, c], r * w + c))
    return [i for _, i in sorted(seeds)]


def test_seed_order_matches_naive_scan():
    rng = np.random.default_rng(1992)
    for _ in range(3000):
        priority, labels, limit = random_case(rng)
        mask = claimable(priority, labels, limit)
        assert seed_order(labels, mask).tolist() == naive_seed_order(labels, mask)


def test_frontier_flood_matches_all_seeds_oracle():
    rng = np.random.default_rng(1991)
    for _ in range(3000):
        priority, labels, limit = random_case(rng)
        mask = claimable(priority, labels, limit)
        got = priority_flood(priority, labels, seed_order(labels, mask), mask)
        want = oracles.all_seeds_flood(priority, labels, limit)
        np.testing.assert_array_equal(got, want, err_msg=f"{priority!r}\n{labels!r}\nlimit={limit}")


def flood_peak(priority, labels):
    """The flood's labels from all frontier seeds, and its tracemalloc peak in bytes."""
    mask = labels == 0
    seeds = seed_order(labels, mask)
    tracemalloc.start()
    try:
        got = priority_flood(priority, labels, seeds, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak


def test_flood_memory_follows_the_claimable_pixels():
    """A 2048 x 2048 grid with a 10-column claimable strip (20,480 pixels):
    the flood holds its padded int32 label grid (16 MiB), one image-sized
    bool mask while the walls are set and heap entries for the strip
    only, about 20 MiB at peak, where converting the whole image to
    Python lists reached 176 MiB."""
    n = 2048
    priority = np.random.default_rng(5).integers(0, 50, size=(n, n)).astype(float)
    labels = np.zeros((n, n), dtype=np.int32)
    labels[:, :1000] = 1
    labels[:, 1010:] = 2
    mask = labels == 0
    got, peak = flood_peak(priority, labels)
    assert (got[mask] > 0).all() and (got[~mask] == labels[~mask]).all()
    assert peak <= 24 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_flood_memory_on_pure_noise():
    """A 512 x 512 noise field grown from two seeds claims every pixel, so
    the heap is the flood's largest structure. Entries of (value, seq,
    pixel) and the label grid peak near 22 MiB; a claim bytearray, a
    priority dict and a label in every entry reached 50 MiB."""
    n = 512
    priority = np.random.default_rng(3).random((n, n))
    labels = np.zeros((n, n), dtype=np.int32)
    labels[0, 0], labels[-1, -1] = 1, 2
    got, peak = flood_peak(priority, labels)
    assert (got > 0).all() and got[0, 0] == 1 and got[-1, -1] == 2
    assert peak <= 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_flood_takes_read_only_inputs_and_int64_labels():
    """Raster2D and SegmentMap hold read-only arrays; the flood reads them
    (int64 labels too) and changes neither."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        priority, labels, limit = random_case(rng)
        mask = claimable(priority, labels, limit)
        want = oracles.all_seeds_flood(priority, labels, limit)
        labels = labels.astype(np.int64)
        before = priority.copy(), labels.copy()
        priority.setflags(write=False)
        labels.setflags(write=False)
        got = priority_flood(priority, labels, seed_order(labels, mask), mask)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(priority, before[0])
        np.testing.assert_array_equal(labels, before[1])
