"""Seeded inputs and CLI command lines of the benchmark workloads.

Every layout fixes how much work a scene holds and lets the seed move only
cloud positions (a shuffle over fixed slots plus a small jitter) and the
sensor-noise draw. Runs on different seeds therefore do nearly the same
work, so their timings are comparable, while no seed sees the same pixels.
Scenes are built only through the public ``cloudseg.synth`` API.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from cloudseg.synth import CHANNEL_IR, CHANNEL_WV, CloudSpec, SceneSpec, deck

# Fractional parts of k * these constants spread cloud properties evenly
# over their ranges (additive recurrences), independent of the seed.
_GOLDEN = 0.6180339887498949
_PLASTIC = 0.7548776662466927


def _spread(k: np.ndarray, step: float) -> np.ndarray:
    return (k * step) % 1.0


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def segment_large_scene(seed: int) -> SceneSpec:
    """Acceptance criterion 7's 512 x 512 two-channel layout: a warm 262 K deck
    and two cold cores, each moved by up to 8 px."""
    rng = _rng(seed, 1)
    clouds = []
    for centre, radius, min_bt in (((260.0, 220.0), 120.0, 262.0),
                                   ((150.0, 380.0), 30.0, 212.0),
                                   ((400.0, 120.0), 25.0, 210.0)):
        row, col = np.add(centre, rng.uniform(-8.0, 8.0, size=2))
        clouds += deck((row, col), radius, min_bt)
    return SceneSpec(width=512, height=512, clouds=tuple(clouds),
                     channels=(CHANNEL_IR, CHANNEL_WV), noise_sigma=0.5, rng_seed=seed)


def ccs_outbreak_scene(seed: int) -> SceneSpec:
    """40 cold decks (radius 10-30 px, tops 205-245 K) and 40 small cold cells
    (tops 205-240 K) on 768 x 768, one of each per cell of an 8 x 5 grid; the
    seed picks which deck and which cell go where."""
    rng = _rng(seed, 3)
    size, cols, rows = 768, 8, 5
    k = np.arange(cols * rows)
    deck_radius = 10.0 + 20.0 * _spread(k, _GOLDEN)
    deck_top = 205.0 + 40.0 * _spread(k, _PLASTIC)
    cell_radius = 2.0 + 2.0 * _spread(k + 7, _GOLDEN)
    cell_top = 205.0 + 35.0 * _spread(k + 7, _PLASTIC)
    deck_order = rng.permutation(k.size)
    cell_order = rng.permutation(k.size)
    height, width = size / rows, size / cols
    clouds = []
    for slot in range(k.size):
        row0 = (slot // cols + 0.5) * height
        col0 = (slot % cols + 0.5) * width
        d, c = deck_order[slot], cell_order[slot]
        dr, dc = rng.uniform(-10.0, 10.0, size=2)
        clouds += deck((row0 + dr, col0 + dc), deck_radius[d], deck_top[d])
        cr, cc = rng.uniform(-6.0, 6.0, size=2)
        clouds.append(CloudSpec((row0 + 0.4 * height + cr, col0 + 0.4 * width + cc),
                                cell_radius[c], cell_top[c]))
    return SceneSpec(width=size, height=size, clouds=tuple(clouds),
                     channels=(CHANNEL_IR,), noise_sigma=0.5, rng_seed=seed)


@dataclass(frozen=True)
class Workload:
    """A seeded scene layout and the CLI detection subcommand (``segment`` or
    ``ccs``, default flags) run on its scene."""

    name: str
    scene: Callable[[int], SceneSpec]
    command: str


WORKLOADS = {w.name: w for w in (
    Workload("segment_large", segment_large_scene, "segment"),
    Workload("ccs_outbreak", ccs_outbreak_scene, "ccs"),
)}
