import numpy as np
import pytest

from cloudseg import Raster2D, Units


def make_bt(values) -> Raster2D:
    return Raster2D(np.asarray(values, dtype=float), Units.KELVIN)


def make_field(values) -> Raster2D:
    return Raster2D(np.abs(np.asarray(values, dtype=float)), Units.DIMENSIONLESS)


def smooth_field(rng, h, w, scale=12.0) -> Raster2D:
    """Random non-negative field with some spatial structure."""
    from scipy.ndimage import gaussian_filter

    noise = rng.normal(0.0, 1.0, size=(h, w))
    return make_field(np.abs(gaussian_filter(noise, 2.0)) * scale)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
