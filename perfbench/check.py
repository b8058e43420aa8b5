"""Output checks that do not trust the program's own decoders or scorers.

GMS1 files are decoded here with a few lines of numpy, and every property
is recomputed from the decoded arrays. Each check returns a list of
problems; an empty list means the output is correct.
"""

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

_GMS1_DTYPES = {1: "<f4", 2: "u1", 3: "<u4"}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_gms1(path) -> np.ndarray:
    """Payload of a GMS1 file as an array of shape (channels, height, width)."""
    data = Path(path).read_bytes()
    magic, _, dtype, _, width, height, channels = struct.unpack_from("<4sBBHIII", data)
    if magic != b"GMS1" or dtype not in _GMS1_DTYPES:
        raise ValueError(f"{path}: not a GMS1 file")
    offset = 20 + 16 * channels
    return np.frombuffer(data, _GMS1_DTYPES[dtype], offset=offset).reshape(channels, height, width)


def truth_mask(volume_values: np.ndarray, threshold: float = 1e-6) -> np.ndarray:
    """Truth rule on the f32-stored volume: column max of the species sum."""
    stored = volume_values.astype(np.float32).astype(np.float64)
    return stored.sum(axis=0).max(axis=0) > threshold


def _consecutive(labels: np.ndarray, allow_zero: bool) -> list:
    present = np.unique(labels)
    positive = present[present > 0]
    problems = []
    if not allow_zero and present[0] == 0:
        problems.append("unlabelled pixels in a total partition")
    if not np.array_equal(positive, np.arange(1, positive.size + 1)):
        problems.append("labels are not 1..K")
    return problems


def check_segment(out: Path, bt: np.ndarray, cutoff: float = 280.0) -> list:
    """Total partition, stats CSV consistent with the pixels, mask = cloudy regions."""
    labels = read_gms1(out / "seg.gms1")[0].astype(np.int64)
    mask = read_gms1(out / "mask.gms1")[0]
    problems = _consecutive(labels, allow_zero=False)
    k = int(labels.max())
    areas = np.bincount(labels.ravel(), minlength=k + 1)
    means = np.bincount(labels.ravel(), weights=bt.ravel(), minlength=k + 1)[1:] / np.maximum(areas[1:], 1)
    with open(out / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["label"]) for r in rows] != list(range(1, k + 1)):
        return problems + ["stats rows do not list labels 1..K"]
    if [int(r["area"]) for r in rows] != areas[1:].tolist():
        problems.append("stats areas differ from the label map")
    if not np.allclose([float(r["mean_bt"]) for r in rows], means, rtol=0, atol=1e-5):
        problems.append("stats mean_bt differs from the scene")
    cloudy = np.array([False] + [r["is_cloud"] == "true" for r in rows])
    if not np.array_equal(cloudy[1:], means < cutoff):
        problems.append("is_cloud disagrees with mean_bt < cutoff")
    if not np.array_equal(mask.astype(bool), cloudy[labels]):
        problems.append("mask is not the union of cloudy regions")
    return problems


def check_ccs(out: Path, bt: np.ndarray, cap: float = 253.0, min_area: int = 50) -> list:
    """Patches only where BT <= cap, none below min_area, mask = patch support."""
    labels = read_gms1(out / "seg.gms1")[0].astype(np.int64)
    mask = read_gms1(out / "mask.gms1")[0]
    problems = _consecutive(labels, allow_zero=True)
    if (labels[bt > cap] != 0).any():
        problems.append(f"pixels warmer than {cap} K are labelled")
    areas = np.bincount(labels.ravel())[1:]
    if areas.size > 1 and areas.min() < min_area:
        problems.append(f"a patch is smaller than min_area={min_area}")
    if not np.array_equal(mask.astype(bool), labels != 0):
        problems.append("mask is not the patch support")
    return problems


def check_truth(out: Path, expected: np.ndarray) -> list:
    mask = read_gms1(out / "truth.gms1")[0].astype(bool)
    return [] if np.array_equal(mask, expected) else ["truth mask differs from the volume's truth rule"]


def check_report(out: Path):
    """(problems, pod, ets) of the evaluate report against the two masks."""
    p = read_gms1(out / "mask.gms1")[0].astype(bool)
    t = read_gms1(out / "truth.gms1")[0].astype(bool)
    tp, fn, fp, tn = (int(np.sum(p & t)), int(np.sum(~p & t)), int(np.sum(p & ~t)), int(np.sum(~p & ~t)))
    report = json.loads((out / "report.json").read_text())
    problems = []
    if (report["hits"], report["misses"], report["false_alarms"], report["correct_negatives"]) != (tp, fn, fp, tn):
        problems.append("report counts differ from the masks")
    pod = tp / (tp + fn)
    chance = (tp + fn) * (tp + fp) / (tp + fn + fp + tn)
    ets = (tp - chance) / (tp + fn + fp - chance)
    for name, value in (("pod", pod), ("ets", ets)):
        if report[name] is None or not math.isclose(report[name], value, rel_tol=1e-12):
            problems.append(f"report {name} {report[name]} differs from {value}")
    return problems, pod, ets
