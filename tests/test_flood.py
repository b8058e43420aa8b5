"""Frontier seeding and the priority flood against the all-seeds oracle."""

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
        assert seed_order(labels, labels == 0) == [2, 6, 9, 10, 13]

    def test_neighbour_above_limit_is_not_claimable(self):
        priority = np.array([[0.0, 9.0, 0.0, 1.0]])
        labels = np.array([[1, 0, 2, 0]])
        assert seed_order(labels, claimable(priority, labels, 5.0)) == [2]

    def test_ascending_label_then_row_major(self):
        labels = np.array([
            [2, 2, 0],
            [0, 0, 0],
            [1, 1, 1],
        ])
        assert seed_order(labels, labels == 0) == [6, 7, 8, 0, 1]

    def test_fully_labeled_map_has_no_seeds(self):
        labels = np.array([[1, 1], [2, 2]])
        assert seed_order(labels, labels == 0) == []


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
        assert seed_order(labels, mask) == naive_seed_order(labels, mask)


def test_frontier_flood_matches_all_seeds_oracle():
    rng = np.random.default_rng(1991)
    for _ in range(3000):
        priority, labels, limit = random_case(rng)
        mask = claimable(priority, labels, limit)
        got = priority_flood(priority, labels, seed_order(labels, mask), mask)
        want = oracles.all_seeds_flood(priority, labels, limit)
        np.testing.assert_array_equal(got, want, err_msg=f"{priority!r}\n{labels!r}\nlimit={limit}")
