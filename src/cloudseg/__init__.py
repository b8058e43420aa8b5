"""Gradient-driven multi-spectral cloud segmentation with a
threshold/region-growing baseline, truth masks and verification scores.

The public names load lazily (PEP 562): ``import cloudseg`` imports no
submodule and so no numpy, which lets ``python -m cloudseg`` set up its
process before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("FormatError", "PreconditionError", "read_mask_bytes"), "base"),
    **dict.fromkeys((
        "CloudMask", "HYDROMETEOR_SPECIES", "HydrometeorVolume", "MarkerMap", "MultiChannelImage",
        "Raster2D", "SegmentMap", "StructuringElement", "Units",
    ), "raster"),
    **dict.fromkeys((
        "read_cloud_mask", "read_raster_file", "read_segment_map",
        "read_volume_file", "read_volume_levels", "write_raster_file", "write_volume_file",
    ), "formats"),
    **dict.fromkeys((
        "GradientConfig", "dilate", "erode", "multiscale_gradient", "multispectral_gradient",
    ), "morphology"),
    **dict.fromkeys((
        "ConstantFieldError", "NoSeedRegionsError", "OtsuResult",
        "generate_markers", "label_components", "otsu_threshold",
    ), "markers"),
    **dict.fromkeys((
        "EmptyMarkerMapError", "RegionStats", "classify_regions",
        "merge_small_regions", "watershed_from_markers",
    ), "watershed"),
    **dict.fromkeys(("CcsConfig", "ccs_cloud_mask", "ccs_segment"), "ccs"),
    **dict.fromkeys((
        "ContingencyTable", "VerificationReport", "contingency", "derive_truth_mask", "verify",
    ), "verification"),
    **dict.fromkeys((
        "CloudSpec", "PRESETS", "SceneSpec", "deck", "generate_scene", "make_preset",
        "read_scene_spec", "two_cloud_gap_scene", "write_scene_spec",
    ), "synth"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
