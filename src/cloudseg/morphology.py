"""Flat grayscale morphology and the multi-scale / multi-spectral gradients.

Windows are clipped to the image domain, which for a flat structuring
element is the same thing as replicate padding. Flat squares compose by
Minkowski sum, so a clipped (2r+1)-square max (or min) is r clipped 3x3
steps, and each step is a row pass then a column pass of np.maximum (or
np.minimum) over shifted slices. A clipped window of radius
max(shape) - 1 already covers the whole array, so a wider one takes only
that many steps: more would change nothing. The multi-scale gradient takes
scale i's dilation and erosion one step from scale i-1's instead of
starting over.
Max and min only select values, so every step is exact; the test suite
holds the results equal to a naive clipped-window scan.

The multi-scale gradient runs in row strips, so only its output plane and
one strip's working set are image-sized; a strip plane is _STRIP_BYTES.
Strip rows [r0, r1) are computed from the block of rows [r0 - h, r1 + h)
clipped to the image, with a halo h = 2n - 1, and only the strip's own
rows are kept. That is exact: a clipped 3x3 step at a row reads only rows
within 1 of it, and scale i takes i dilation (erosion) steps and then
i - 1 erosion steps of its gradient, at most 2n - 1 steps in all. So a
block edge that is not the image's own edge lies >= 2n - 1 rows from
every kept row and never reaches it, while at the image's edge the block
clips exactly where the image does. Scale i's gradient is formed only on
the block rows within i - 1 of the strip, the rows its i - 1 erosion steps
read, and is eroded by i - 1 steps, at most max(slice shape) - 1 of them
as for any window, so the cost stays linear in the number of scales.

Every gradient is a dimensionless Raster2D, non-negative by construction:
dilation minus erosion is >= 0, and so is an erosion of it.
"""

from dataclasses import dataclass

import numpy as np

from .raster import MultiChannelImage, Raster2D, StructuringElement, Units, check_number

# Bytes of one float64 strip plane: a block and the few planes it works
# on then stay close to a 2 MiB L2 cache.
_STRIP_BYTES = 512 * 1024


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
        object.__setattr__(self, "n_scales", check_number(self.n_scales, "n_scales", int, 1))


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
    for _ in range(min(radius, max(values.shape) - 1)):
        values = _pass(_pass(values, np.maximum, 1), np.maximum, 0)
    return values


def _window_min(values: np.ndarray, radius: int) -> np.ndarray:
    for _ in range(min(radius, max(values.shape) - 1)):
        values = _pass(_pass(values, np.minimum, 1), np.minimum, 0)
    return values


def dilate(f: Raster2D, se: StructuringElement) -> Raster2D:
    """Grayscale dilation: window maximum over the flat square element."""
    return Raster2D(_window_max(f.values, se.radius), f.units)


def erode(f: Raster2D, se: StructuringElement) -> Raster2D:
    """Grayscale erosion: window minimum over the flat square element."""
    return Raster2D(_window_min(f.values, se.radius), f.units)


def _strip_sum(block: np.ndarray, top: int, bottom: int, n_scales: int) -> np.ndarray:
    """Sum of the scale gradients 1..n_scales on block rows [top, bottom),
    windows clipped to block."""
    acc = np.zeros_like(block[top:bottom])
    dilated = eroded = block
    for i in range(1, n_scales + 1):
        dilated = _window_max(dilated, 1)  # scale i from scale i-1: one step
        eroded = _window_min(eroded, 1)
        lo = max(top - (i - 1), 0)  # the rows i - 1 steps from the strip reach
        grad = dilated[lo:bottom + i - 1] - eroded[lo:bottom + i - 1]
        acc += _window_min(grad, i - 1)[top - lo:bottom - lo]
    return acc


def _multiscale(values: np.ndarray, n_scales: int) -> np.ndarray:
    height, width = values.shape
    halo = 2 * n_scales - 1
    rows = max(1, _STRIP_BYTES // (values.itemsize * width))
    out = np.empty_like(values)
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        b0 = max(r0 - halo, 0)
        out[r0:r1] = _strip_sum(values[b0:r1 + halo], r0 - b0, r1 - b0, n_scales)
    out /= n_scales
    return out


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
                field /= peak
        if acc is None:
            acc = field
        else:
            acc += field
    return Raster2D(acc, Units.DIMENSIONLESS)
