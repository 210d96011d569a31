"""Shadow-set multi-object tracking: label assignment, set-based query
lifecycle, a synthetic oracle pipeline, and tracking metrics."""

from .geometry import BoundingBox, pairwise, to_pixel
from .matching import (
    Assignment,
    ClassScores,
    CostMatrix,
    CostWeights,
    focal_cost,
    hungarian,
)
from .assignment import (
    FrameGroundTruth,
    GroundTruthObject,
    LabelAssignment,
    SetCostTensor,
    Target,
    assign_detection_sets,
    assign_tracking_sets,
    build_set_cost_tensor,
    cola_targets,
    reduce_set_costs,
    tala_targets,
)
from .shadow import (
    INIT_METHODS,
    REDUCTIONS,
    ShadowConfig,
    ShadowSet,
    init_query_bank,
    reduce_values,
)
from .tracker import FrameResult, Observation, ShadowTracker, TrackerConfig, Tracklets
from .simulator import (
    OracleConfig,
    Scene,
    SceneConfig,
    SceneFrame,
    emit_training_targets,
    generate_scene,
    oracle_decode,
    track_scene,
)
from .metrics import (
    ALPHA_GRID,
    AlphaScores,
    ClearMotResult,
    HotaResult,
    MetricsReport,
    clear_mot,
    evaluate,
    hota,
    idf1,
)
from .mot_io import MotFormatError, MotLine, format_mot, read_mot, write_mot
from .config import ConfigError, RunConfig, load_run_config, parse_config_text

__version__ = "0.1.0"

__all__ = [
    "BoundingBox", "pairwise", "to_pixel",
    "ClassScores", "CostWeights", "CostMatrix", "Assignment",
    "focal_cost", "hungarian",
    "Target", "GroundTruthObject", "FrameGroundTruth", "LabelAssignment", "SetCostTensor",
    "tala_targets", "cola_targets", "reduce_set_costs", "build_set_cost_tensor",
    "assign_detection_sets", "assign_tracking_sets",
    "ShadowSet", "ShadowConfig", "REDUCTIONS", "INIT_METHODS",
    "init_query_bank", "reduce_values",
    "TrackerConfig", "FrameResult", "Observation", "Tracklets", "ShadowTracker",
    "SceneConfig", "OracleConfig", "SceneFrame", "Scene",
    "generate_scene", "oracle_decode", "emit_training_targets", "track_scene",
    "ClearMotResult", "AlphaScores", "HotaResult", "MetricsReport", "ALPHA_GRID",
    "clear_mot", "idf1", "hota", "evaluate",
    "MotLine", "MotFormatError", "read_mot", "write_mot", "format_mot",
    "RunConfig", "ConfigError", "parse_config_text", "load_run_config",
    "__version__",
]
