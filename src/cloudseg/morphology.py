"""Flat grayscale morphology and the multi-scale / multi-spectral gradients.

Windows are clipped to the image domain, which for a flat structuring
element is the same thing as replicate padding; the fast path therefore
runs on scipy's separable min/max filters with mode="nearest". The test
suite holds these equal, exactly, to a naive clipped-window scan.

Every gradient is a dimensionless Raster2D, non-negative by construction:
dilation minus erosion is >= 0, and so is an erosion of it.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import MultiChannelImage, Raster2D, StructuringElement, Units


@dataclass(frozen=True)
class GradientConfig:
    """Parameters of the multi-scale gradient.

    n_scales is the largest structuring-element index n; scales 1..n use
    squares of size (2i+1). normalize_channels rescales each channel's
    gradient field by its own maximum before the multi-spectral sum.
    """

    n_scales: int = 5
    normalize_channels: bool = False

    def __post_init__(self):
        if not isinstance(self.n_scales, (int, np.integer)) or self.n_scales < 1:
            raise ValueError(f"n_scales must be a positive integer, got {self.n_scales!r}")
        object.__setattr__(self, "n_scales", int(self.n_scales))


def _window_max(values: np.ndarray, radius: int) -> np.ndarray:
    return ndimage.maximum_filter(values, size=2 * radius + 1, mode="nearest")


def _window_min(values: np.ndarray, radius: int) -> np.ndarray:
    return ndimage.minimum_filter(values, size=2 * radius + 1, mode="nearest")


def dilate(f: Raster2D, se: StructuringElement) -> Raster2D:
    """Grayscale dilation: window maximum over the flat square element."""
    return Raster2D(_window_max(f.values, se.radius), f.units)


def erode(f: Raster2D, se: StructuringElement) -> Raster2D:
    """Grayscale erosion: window minimum over the flat square element."""
    return Raster2D(_window_min(f.values, se.radius), f.units)


def morphological_gradient(f: Raster2D, se: StructuringElement) -> Raster2D:
    """Single-scale gradient, dilation minus erosion.

    Radius 0 is rejected: the single-pixel element makes the difference
    identically zero by construction.
    """
    if se.radius < 1:
        raise ValueError("morphological gradient needs radius >= 1")
    diff = _window_max(f.values, se.radius) - _window_min(f.values, se.radius)
    return Raster2D(diff, Units.DIMENSIONLESS)


def _multiscale(values: np.ndarray, n_scales: int) -> np.ndarray:
    acc = np.zeros_like(values)
    for i in range(1, n_scales + 1):
        grad_i = _window_max(values, i) - _window_min(values, i)
        acc += _window_min(grad_i, i - 1)
    return acc / n_scales


def multiscale_gradient(f: Raster2D, cfg: GradientConfig = GradientConfig()) -> Raster2D:
    """Mean over scales i=1..n of the scale-i gradient eroded by the
    scale-(i-1) element; the i=1 term is the plain single-scale gradient."""
    return Raster2D(_multiscale(f.values, cfg.n_scales), Units.DIMENSIONLESS)


def multispectral_gradient(img: MultiChannelImage, cfg: GradientConfig = GradientConfig()) -> Raster2D:
    """Per-channel multi-scale gradients summed into one field.

    The sum runs in channel order. With cfg.normalize_channels each
    channel's field is first divided by its own maximum; all-zero
    channels are summed as-is.
    """
    acc = None
    for _, raster in img.channels:
        field = _multiscale(raster.values, cfg.n_scales)
        if cfg.normalize_channels:
            peak = field.max()
            if peak > 0:
                field = field / peak
        acc = field if acc is None else acc + field
    return Raster2D(acc, Units.DIMENSIONLESS)
