"""Flat grayscale morphology and the multi-scale / multi-spectral gradients.

Windows are clipped to the image domain, which for a flat structuring
element is the same thing as replicate padding. Flat squares compose by
Minkowski sum, so a clipped (2r+1)-square max (or min) is r clipped 3x3
steps, and each step is a row pass then a column pass of np.maximum (or
np.minimum) over shifted slices. The multi-scale gradient takes scale i's
dilation and erosion one step from scale i-1's instead of starting over.
Max and min only select values, so every step is exact; the test suite
holds the results equal to a naive clipped-window scan.

Every gradient is a dimensionless Raster2D, non-negative by construction:
dilation minus erosion is >= 0, and so is an erosion of it.
"""

from dataclasses import dataclass

import numpy as np

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


def _pass(values: np.ndarray, op, axis: int) -> np.ndarray:
    """op over each pixel and its clipped neighbours along one axis."""
    src = np.moveaxis(values, axis, 0)
    out = np.empty_like(values)
    dst = np.moveaxis(out, axis, 0)
    op(src[:-1], src[1:], out=dst[:-1])  # with the next line
    dst[-1] = src[-1]
    op(dst[1:], src[:-1], out=dst[1:])   # and with the previous one
    return out


def _window_max(values: np.ndarray, radius: int) -> np.ndarray:
    for _ in range(radius):
        values = _pass(_pass(values, np.maximum, 1), np.maximum, 0)
    return values


def _window_min(values: np.ndarray, radius: int) -> np.ndarray:
    for _ in range(radius):
        values = _pass(_pass(values, np.minimum, 1), np.minimum, 0)
    return values


def dilate(f: Raster2D, se: StructuringElement) -> Raster2D:
    """Grayscale dilation: window maximum over the flat square element."""
    return Raster2D(_window_max(f.values, se.radius), f.units)


def erode(f: Raster2D, se: StructuringElement) -> Raster2D:
    """Grayscale erosion: window minimum over the flat square element."""
    return Raster2D(_window_min(f.values, se.radius), f.units)


def _multiscale(values: np.ndarray, n_scales: int) -> np.ndarray:
    acc = np.zeros_like(values)
    dilated = eroded = values
    for i in range(1, n_scales + 1):
        dilated = _window_max(dilated, 1)  # scale i from scale i-1: one step
        eroded = _window_min(eroded, 1)
        acc += _window_min(dilated - eroded, i - 1)
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
