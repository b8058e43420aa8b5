"""Gradient-driven multi-spectral cloud segmentation with a
threshold/region-growing baseline, truth masks and verification scores."""

from .raster import (
    CloudMask,
    HYDROMETEOR_SPECIES,
    HydrometeorVolume,
    MarkerMap,
    MultiChannelImage,
    Raster2D,
    SegmentMap,
    StructuringElement,
    Units,
)
from .formats import (
    FormatError,
    read_cloud_mask,
    read_raster_file,
    read_segment_map,
    read_volume_file,
    read_volume_levels,
    write_raster_file,
    write_volume_file,
)
from .morphology import (
    GradientConfig,
    dilate,
    erode,
    morphological_gradient,
    multiscale_gradient,
    multispectral_gradient,
)
from .markers import (
    ConstantFieldError,
    NoSeedRegionsError,
    OtsuResult,
    generate_markers,
    label_components,
    otsu_threshold,
)
from .watershed import (
    EmptyMarkerMapError,
    RegionStats,
    classify_regions,
    merge_small_regions,
    watershed_from_markers,
)
from .ccs import CcsConfig, ccs_cloud_mask, ccs_segment
from .verification import (
    ContingencyTable,
    VerificationReport,
    contingency,
    derive_truth_mask,
    verify,
)
from .synth import (
    CloudSpec,
    PRESETS,
    SceneSpec,
    deck,
    generate_scene,
    make_preset,
    read_scene_spec,
    two_cloud_gap_scene,
    write_scene_spec,
)

__version__ = "0.1.0"
