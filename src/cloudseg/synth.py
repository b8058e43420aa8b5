"""Deterministic synthetic scenes: brightness-temperature channels plus a
co-registered hydrometeor volume whose truth support is known by
construction.

Every cloud is a Gaussian brightness-temperature depression reaching its
min_bt at the centre (radius_px is the Gaussian standard deviation in
pixels). The cloud's hydrometeor plume covers exactly the pixels where
that cloud's own noiseless depression exceeds TRUTH_DEPRESSION_K, so the
truth mask derived from the volume equals the union of the per-cloud
support disks, independent of the noise draw.

Large cloud decks are assembled from lattices of small steep Gaussians:
a single broad Gaussian has its maximum-gradient ring far inside its
truth contour, which no boundary-seeking segmentation can recover, while
a plateau with steep rims keeps the two aligned.

Clouds are rendered a run at a time. A run is a stretch of consecutive
clouds that share radius_px, depth, hydrometeor_peak and warm/cold species
split (every deck() lattice is one). Each run's reach comes from Python
math once (np.log may differ from libm by an ulp and move a window edge),
and one numpy pass clips every window, floor/ceil of centre -/+ reach, to
the grid. A run is rendered in stacks of at most _RUN_ENTRIES pixels:
each is one (m, rows, cols) Gaussian array from the windows' corners, as
tall and as wide as its tallest and widest window, masked to each window
unless it holds one cloud. Its in-window pixels are scattered into flat
depression and per-species plume planes with np.add.at, cloud-major, runs
in spec order. This gives the bytes of adding one cloud's window at a
time: np.add.at is unbuffered and applies its entries in order, and a
cloud touches a pixel at most once, so every pixel still sums its clouds
in spec order starting from 0.0. Depth is background_bt - min_bt and the
denominator 2.0 * radius_px ** 2, as a cloud-at-a-time loop computes
them. Partial sums (bincount) are never added into a plane, since that
would change how each pixel's sum associates.

The water-vapor channel is a smoothed (sigma 2 px), damped (factor 0.6)
copy of the total depression field offset +10 K; the constants exist only
to give multi-channel fusion a genuinely distinct second band. Noise is
drawn from a counter-based Philox generator keyed on rng_seed and applied
to the IR window channel only.
"""

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .raster import (HYDROMETEOR_SPECIES, MAX_ELEMENTS, MIXING_RATIO_THRESHOLD, PRESET_NAMES,
                     HydrometeorVolume, MultiChannelImage, Raster2D, Units, check_number, parse_channel_ids)

CHANNEL_IR = "ir_window"
CHANNEL_WV = "water_vapor"
KNOWN_CHANNELS = (CHANNEL_IR, CHANNEL_WV)

TRUTH_DEPRESSION_K = 2.0          # noiseless depression marking cloud support
WV_OFFSET_K = 10.0
WV_DAMPING = 0.6
WV_SMOOTH_SIGMA = 2.0
_VERTICAL_WEIGHTS = (0.0, 0.5, 1.0, 0.5, 0.0)   # triangular, peaked mid-column
_WARM_SPLIT = {"cloud_water": 0.6, "rain": 0.4}
_COLD_SPLIT = {"cloud_ice": 0.5, "snow": 0.3, "graupel": 0.2}
_COLD_TOP_BT = 253.0
_TAIL_CUTOFF_K = 1e-6             # gaussian tail below this is not evaluated
_RUN_ENTRIES = 2 ** 17            # window pixels one stacked run renders at most


@dataclass(frozen=True)
class CloudSpec:
    """One Gaussian depression: centre (row, col), std radius_px, floor
    min_bt, and the peak mixing ratio of its hydrometeor plume."""

    center: tuple
    radius_px: float
    min_bt: float
    hydrometeor_peak: float = 2e-4

    def __post_init__(self):
        row, col = self.center
        object.__setattr__(self, "center", (check_number(row, "center"), check_number(col, "center")))
        for name in ("radius_px", "min_bt", "hydrometeor_peak"):
            object.__setattr__(self, name, check_number(getattr(self, name), name))
        # the Gaussian's denominator as rendered; a normal float keeps every
        # in-window dist2 / denominator finite
        try:
            denominator = 2.0 * self.radius_px ** 2
        except OverflowError:
            denominator = math.inf
        if not (self.radius_px > 0 and sys.float_info.min <= denominator < math.inf):
            raise ValueError(
                f"radius_px must be positive with 2 * radius_px ** 2 a finite normal float, "
                f"got {self.radius_px}"
            )
        if self.hydrometeor_peak <= MIXING_RATIO_THRESHOLD:
            raise ValueError(
                f"hydrometeor_peak must exceed {MIXING_RATIO_THRESHOLD} kg/kg for the "
                f"truth rule to register the cloud, got {self.hydrometeor_peak}"
            )


@dataclass(frozen=True)
class SceneSpec:
    """Full description of one synthetic scene."""

    width: int
    height: int
    clouds: tuple = field(default_factory=tuple)
    background_bt: float = 290.0
    channels: tuple = (CHANNEL_IR,)
    noise_sigma: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        for name, *rule in (("width", int, 1), ("height", int, 1), ("background_bt", float),
                            ("noise_sigma", float, 0), ("rng_seed", int, 0, 2 ** 64 - 1)):
            object.__setattr__(self, name, check_number(getattr(self, name), name, *rule))
        volume = len(HYDROMETEOR_SPECIES) * len(_VERTICAL_WEIGHTS) * self.width * self.height
        if volume > MAX_ELEMENTS:  # the codec would not read the volume back
            raise ValueError(f"{self.width}x{self.height} scene: its volume of {volume} elements "
                             f"exceeds the {MAX_ELEMENTS}-element cap")
        object.__setattr__(self, "clouds", tuple(self.clouds))
        object.__setattr__(self, "channels", tuple(self.channels))
        if not self.channels:
            raise ValueError("scene needs at least one channel")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"duplicate channels: {self.channels}")
        for ch in self.channels:
            if ch not in KNOWN_CHANNELS:
                raise ValueError(f"unknown channel {ch!r}, expected subset of {KNOWN_CHANNELS}")
        for i, cloud in enumerate(self.clouds):
            if not isinstance(cloud, CloudSpec):
                raise ValueError(f"clouds[{i}] is not a CloudSpec")
            row, col = cloud.center
            if not (0 <= row <= self.height - 1 and 0 <= col <= self.width - 1):
                raise ValueError(f"clouds[{i}] centre {cloud.center} outside {self.height}x{self.width} grid")
            if not 0 < self.background_bt - cloud.min_bt < math.inf:
                raise ValueError(
                    f"clouds[{i}] min_bt {cloud.min_bt} must be below background {self.background_bt} "
                    f"by a finite depth"
                )


def _gaussian_blur(values: np.ndarray) -> np.ndarray:
    """scipy.ndimage.gaussian_filter(values, WV_SMOOTH_SIGMA) bit for bit: correlate1d's
    terms in its order. Radius int(4 sigma + 0.5), "reflect" borders (numpy's
    "symmetric"), the centre term, then the pairs from the outermost in."""
    r = int(4.0 * WV_SMOOTH_SIGMA + 0.5)
    weights = np.exp(-0.5 / (WV_SMOOTH_SIGMA * WV_SMOOTH_SIGMA) * np.arange(-r, r + 1) ** 2)
    weights = weights / weights.sum()
    for _ in range(2):  # axis 0, then axis 1 through the transpose
        n = values.shape[0]
        padded = np.pad(values, ((r, r), (0, 0)), mode="symmetric")
        acc = padded[r:r + n] * weights[r]
        for j in range(r, 0, -1):
            acc += (padded[r - j:r - j + n] + padded[r + j:r + j + n]) * weights[r + j]
        values = acc.T
    return values


def _render_run(depression, plume, key, centres, lo, hi, n_rows: int, n_cols: int, width: int) -> None:
    """Add one run of m clouds into the flat planes, cloud-major. Each cloud's
    window is rows and columns [lo, hi), given with centres as (m, 2) arrays;
    all are evaluated as one (m, n_rows, n_cols) stack from lo, masked to the window."""
    radius, depth, peak, warm = key
    rows = lo[:, :1] + np.arange(n_rows)   # (m, n_rows)
    cols = lo[:, 1:] + np.arange(n_cols)   # (m, n_cols)
    dist2 = (((rows - centres[:, :1]) ** 2)[:, :, None] + ((cols - centres[:, 1:]) ** 2)[:, None, :]).ravel()
    pixels = ((rows * width)[:, :, None] + cols[:, None, :]).ravel()
    if len(centres) > 1:  # a lone cloud's window is the whole stack
        inside = ((rows < hi[:, :1])[:, :, None] & (cols < hi[:, 1:])[:, None, :]).ravel()
        dist2, pixels = dist2[inside], pixels[inside]
    local = depth * np.exp(-dist2 / (2.0 * radius ** 2))
    np.add.at(depression, pixels, local)
    support = pixels[local > TRUTH_DEPRESSION_K]
    for name, fraction in (_WARM_SPLIT if warm else _COLD_SPLIT).items():
        np.add.at(plume[HYDROMETEOR_SPECIES.index(name)], support, peak * fraction)


def _render(spec: SceneSpec):
    """The noiseless depression (height, width) and the column peak of each
    species (species, height, width), summed over the clouds in spec order."""
    h, w = spec.height, spec.width
    bg = spec.background_bt
    deep = [cloud for cloud in spec.clouds if bg - cloud.min_bt > _TAIL_CUTOFF_K]
    runs = [(key, sum(1 for _ in run)) for key, run in itertools.groupby(deep, lambda cloud: (
        cloud.radius_px, bg - cloud.min_bt, cloud.hydrometeor_peak, cloud.min_bt > _COLD_TOP_BT))]
    # past its reach, a cloud's depth * exp is below the cutoff
    reach = [radius * math.sqrt(2.0 * math.log(depth / _TAIL_CUTOFF_K)) for (radius, depth, *_), _ in runs]
    reach = np.repeat(reach, [n for _, n in runs])[:, None]
    centres = np.array([cloud.center for cloud in deep]).reshape(-1, 2)
    lo = np.maximum(np.floor(centres - reach), 0).astype(np.intp)
    hi = np.minimum(np.ceil(centres + reach) + 1, (h, w)).astype(np.intp)
    extent = (hi - lo).tolist()
    depression = np.zeros(h * w)
    plume = np.zeros((len(HYDROMETEOR_SPECIES), h * w))
    for (key, n), end in zip(runs, itertools.accumulate(n for _, n in runs)):
        n_rows, n_cols = map(max, zip(*extent[end - n:end]))
        step = max(1, _RUN_ENTRIES // (n_rows * n_cols))
        for i in range(end - n, end, step):
            j = min(i + step, end)
            n_rows, n_cols = map(max, zip(*extent[i:j]))  # the stack: the tallest and the widest window
            _render_run(depression, plume, key, centres[i:j], lo[i:j], hi[i:j], n_rows, n_cols, w)
    return depression.reshape(h, w), plume.reshape(-1, h, w)


def generate_scene(spec: SceneSpec):
    """Render the scene.

    Returns:
        (MultiChannelImage, HydrometeorVolume): the requested channels in
        spec order (kelvin) and the 5-level, 5-species volume. Identical
        specs produce bit-identical results.
    """
    bg = spec.background_bt
    depression, plume = _render(spec)
    # the weights are 0, 1/2 and 1, so scaling the summed plume is exact
    volume = plume[:, None] * np.array(_VERTICAL_WEIGHTS)[:, None, None]

    ir = bg - depression
    if spec.noise_sigma > 0:
        rng = np.random.Generator(np.random.Philox(spec.rng_seed))
        ir = ir + rng.normal(0.0, spec.noise_sigma, size=ir.shape)

    channels = []
    for name in spec.channels:
        if name == CHANNEL_IR:
            channels.append((name, Raster2D(ir, Units.KELVIN)))
        else:
            wv = (bg + WV_OFFSET_K) - WV_DAMPING * _gaussian_blur(depression)
            channels.append((name, Raster2D(wv, Units.KELVIN)))

    return MultiChannelImage(tuple(channels)), HydrometeorVolume(HYDROMETEOR_SPECIES, volume)


# ---------------------------------------------------------------------------
# deck construction and shipped presets
# ---------------------------------------------------------------------------

_DECK_BACKGROUND_BT = 290.0
_DECK_SPACING = 3.0
_DECK_SIGMA = 1.6


@functools.cache
def _lattice_gain() -> float:
    """Peak depression of an infinite lattice of unit Gaussians, i.e. how
    much neighbour overlap amplifies each element's individual depth."""
    total = 0.0
    for i in range(-6, 7):
        for j in range(-6, 7):
            total += math.exp(-((i * _DECK_SPACING) ** 2 + (j * _DECK_SPACING) ** 2)
                              / (2.0 * _DECK_SIGMA ** 2))
    return total


def deck(center, radius_px: float, min_bt: float) -> list:
    """Clouds forming a steep-rimmed plateau (a stratiform-style deck).

    Small Gaussians of std _DECK_SIGMA sit on a square lattice of pitch
    _DECK_SPACING inside the disk of radius_px around centre; each one's
    depth is scaled down by the lattice overlap gain so the assembled
    plateau bottoms out near min_bt on a 290 K background.
    """
    element_min_bt = _DECK_BACKGROUND_BT - (_DECK_BACKGROUND_BT - min_bt) / _lattice_gain()
    cy, cx = center
    steps = int(math.ceil(radius_px / _DECK_SPACING))
    clouds = []
    for i in range(-steps, steps + 1):
        for j in range(-steps, steps + 1):
            dy = i * _DECK_SPACING
            dx = j * _DECK_SPACING
            if dy * dy + dx * dx <= radius_px * radius_px:
                clouds.append(CloudSpec((cy + dy, cx + dx), _DECK_SIGMA, element_min_bt))
    return clouds


def preset_warm_stratiform() -> SceneSpec:
    """One large warm stratiform deck, cloud tops near 261 K: everything a
    253 K threshold cannot see."""
    return SceneSpec(width=224, height=224, clouds=tuple(deck((112.0, 112.0), 70.0, 261.0)))


def preset_mixed() -> SceneSpec:
    """Warm deck with two embedded convective cores plus an isolated cold
    cell: both detection regimes in one scene."""
    clouds = deck((120.0, 100.0), 60.0, 262.0)
    clouds += deck((100.0, 76.0), 9.0, 212.0)
    clouds += deck((142.0, 120.0), 8.0, 208.0)
    clouds += deck((36.0, 184.0), 8.0, 216.0)
    return SceneSpec(width=224, height=224, clouds=tuple(clouds))


def preset_wyoming_like() -> SceneSpec:
    """Several compact cold convective cells on a clear background."""
    clouds = []
    for (row, col, radius, min_bt) in (
        (50.0, 60.0, 12.0, 210.0),
        (80.0, 134.0, 10.0, 214.0),
        (124.0, 70.0, 11.0, 212.0),
        (152.0, 148.0, 9.0, 216.0),
        (58.0, 158.0, 10.0, 210.0),
    ):
        clouds += deck((row, col), radius, min_bt)
    return SceneSpec(
        width=192, height=192, clouds=tuple(clouds),
        channels=(CHANNEL_IR, CHANNEL_WV),
    )


def preset_harvey_like() -> SceneSpec:
    """A large cold spiral cluster (deep core, trailing arms) with warm
    skirt clouds around it."""
    clouds = deck((112.0, 112.0), 24.0, 200.0)
    theta = 0.0
    while theta < 3.2 * math.pi:
        r = 26.0 + 5.5 * theta
        row = 112.0 + r * math.sin(theta)
        col = 112.0 + r * math.cos(theta)
        if 4.0 <= row <= 219.0 and 4.0 <= col <= 219.0:
            clouds.append(CloudSpec((row, col), 2.4, 230.0))
        theta += 0.30 / (0.3 + 0.06 * theta)
    clouds += deck((40.0, 170.0), 12.0, 264.0)
    clouds += deck((180.0, 50.0), 10.0, 262.0)
    return SceneSpec(
        width=224, height=224, clouds=tuple(clouds),
        channels=(CHANNEL_IR, CHANNEL_WV),
    )


# one preset_<name> layout per name that the CLI offers
PRESETS = {name: globals()[f"preset_{name}"] for name in PRESET_NAMES}


def make_preset(name: str, noise_sigma: float = 0.5, rng_seed: int = 0) -> SceneSpec:
    """Instantiate a shipped preset layout with the given noise and seed."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}, choose from {sorted(PRESETS)}") from None
    return replace(factory(), noise_sigma=noise_sigma, rng_seed=rng_seed)


def two_cloud_gap_scene() -> SceneSpec:
    """Two cloud decks separated by a shallow warm gap near 257 K.

    The decks bottom out near 250 K, so a 253 K detection threshold sees
    two separate objects, while raising it to 260 K lets the warm bridge
    join them into one. The gradient field keeps a closed ridge around
    each deck regardless, which is the whole point of the comparison.
    """
    clouds = deck((96.0, 131.0), 52.0, 250.0)
    clouds += deck((96.0, 253.0), 52.0, 250.0)
    for k in (-2, -1, 0, 1, 2):
        clouds.append(CloudSpec((96.0, 192.0 + 4.0 * k), 1.8, 261.5))
    return SceneSpec(width=384, height=192, clouds=tuple(clouds), noise_sigma=0.0)


# ---------------------------------------------------------------------------
# flat key = value scene-spec files
# ---------------------------------------------------------------------------

# SceneSpec's fields besides its clouds, in file order, each with the parser
# of its value. A key left out of a file takes its SceneSpec/CloudSpec default.
_SCALAR_KEYS = {
    "width": int,
    "height": int,
    "background_bt": float,
    "channels": parse_channel_ids,
    "noise_sigma": float,
    "rng_seed": int,
}
_CLOUD_FIELDS = ("center_row", "center_col", "radius_px", "min_bt", "hydrometeor_peak")


def write_scene_spec(spec: SceneSpec, path) -> None:
    """Write a scene spec as one `key = value` per line."""
    scalars = {key: getattr(spec, key) for key in _SCALAR_KEYS}
    scalars["channels"] = ",".join(spec.channels)
    lines = [f"{key} = {value}" for key, value in scalars.items()]  # str(float) is its repr
    for i, cloud in enumerate(spec.clouds):
        values = (*cloud.center, cloud.radius_px, cloud.min_bt, cloud.hydrometeor_peak)
        lines += [f"cloud.{i}.{name} = {value!r}" for name, value in zip(_CLOUD_FIELDS, values)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_scene_spec(path) -> SceneSpec:
    """Parse a `key = value` scene-spec file (# starts a comment line) in
    which each key appears at most once."""
    scalars, cloud_fields = {}, {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key.startswith("cloud."):
                parts = key.split(".")
                if len(parts) != 3 or not parts[1].isdigit() or parts[2] not in _CLOUD_FIELDS:
                    raise ValueError(f"{path}:{lineno}: bad cloud key {key!r}")
                store, name = cloud_fields.setdefault(int(parts[1]), {}), parts[2]
            elif key in _SCALAR_KEYS:
                store, name = scalars, key
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if name in store:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            store[name] = value
    for required in ("width", "height"):
        if required not in scalars:
            raise ValueError(f"{path}: missing required key {required!r}")
    if sorted(cloud_fields) != list(range(len(cloud_fields))):
        raise ValueError(f"{path}: cloud indices must be 0..N-1, got {sorted(cloud_fields)}")
    clouds = []
    for i, fields_i in sorted(cloud_fields.items()):
        for required in _CLOUD_FIELDS[:-1]:  # hydrometeor_peak has a default
            if required not in fields_i:
                raise ValueError(f"{path}: cloud.{i} missing {required!r}")
        try:
            values = {name: float(text) for name, text in fields_i.items()}
            clouds.append(CloudSpec((values.pop("center_row"), values.pop("center_col")), **values))
        except ValueError as exc:
            raise ValueError(f"{path}: cloud.{i}: {exc}") from None
    for key, text in scalars.items():
        try:
            scalars[key] = _SCALAR_KEYS[key](text)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    return SceneSpec(clouds=tuple(clouds), **scalars)
