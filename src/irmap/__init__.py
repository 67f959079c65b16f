"""Layer-wise radiometric feature extraction for powder bed fusion builds.

Converts per-layer infrared frame stacks into calibrated, geometry-registered
per-voxel features, with a synthetic build simulator supplying ground truth
for every stage.
"""

from .errors import (
    BelowFloorError,
    ConfigError,
    DataError,
    DegeneracyError,
    DegenerateHistogramError,
    FeatureNotFoundError,
    HorizonError,
    IllConditionedError,
    IrmapError,
    NoPrescanError,
    OutOfFrameError,
    ParameterError,
    StlParseError,
    StlTruncationError,
    StoreCorruptionError,
    StoreFormatError,
)
from .features import FeatureId, FeatureMap, FeatureParams, LayerStack, extract_layer
from .geometry import (
    LayerMask,
    SparseFeature,
    TriangleMesh,
    VoxelMesh,
    box_mesh,
    layer_mask,
    map_layer_feature,
    parse_stl,
    voxelize,
)
from .radiometry import (
    CalibrationProfile,
    RadianceModel,
    fit_emissivity,
    fit_window_transmission,
    forward_counts,
    invert_counts,
)
from .simulator import (
    GroundTruth,
    ScanParameters,
    SpatterSchedule,
    ThermalParams,
    generate_scan_path,
    render_frames,
)
from .spatial import (
    Homography,
    PixelGridFrame,
    estimate_homography,
    warp_frame,
)
from .store import FeatureStore, StoreMeta, read_store, reduction_report, write_store

__version__ = "0.1.0"

__all__ = [
    "BelowFloorError",
    "CalibrationProfile",
    "ConfigError",
    "DataError",
    "DegeneracyError",
    "DegenerateHistogramError",
    "FeatureId",
    "FeatureMap",
    "FeatureNotFoundError",
    "FeatureParams",
    "FeatureStore",
    "GroundTruth",
    "Homography",
    "HorizonError",
    "IllConditionedError",
    "IrmapError",
    "LayerMask",
    "LayerStack",
    "NoPrescanError",
    "OutOfFrameError",
    "ParameterError",
    "PixelGridFrame",
    "RadianceModel",
    "ScanParameters",
    "SparseFeature",
    "SpatterSchedule",
    "StlParseError",
    "StlTruncationError",
    "StoreCorruptionError",
    "StoreFormatError",
    "StoreMeta",
    "ThermalParams",
    "TriangleMesh",
    "VoxelMesh",
    "box_mesh",
    "estimate_homography",
    "extract_layer",
    "fit_emissivity",
    "fit_window_transmission",
    "forward_counts",
    "generate_scan_path",
    "invert_counts",
    "layer_mask",
    "map_layer_feature",
    "parse_stl",
    "read_store",
    "reduction_report",
    "render_frames",
    "voxelize",
    "warp_frame",
    "write_store",
]
