"""Shadow-set multi-object tracking: label assignment, set-based query
lifecycle, a synthetic oracle pipeline, and tracking metrics.

Each public name is loaded from its module on first use, so a command
pays only for the modules it runs."""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, which are also its __all__
_MODULES = {
    "geometry": ("BoundingBox",),
    "matching": (
        "ClassScores", "CostWeights", "CostMatrix", "Assignment", "focal_cost", "hungarian",
    ),
    "assignment": (
        "Target", "GroundTruthObject", "FrameGroundTruth", "LabelAssignment", "SetCostTensor",
        "tala_targets", "cola_targets", "reduce_set_costs", "build_set_cost_tensor",
        "assign_detection_sets", "assign_tracking_sets",
    ),
    "shadow": (
        "ShadowSet", "ShadowConfig", "REDUCTIONS", "INIT_METHODS",
        "init_query_bank", "reduce_values",
    ),
    "tracker": ("TrackerConfig", "FrameResult", "ShadowTracker"),
    "simulator": (
        "SceneConfig", "OracleConfig", "Scene",
        "generate_scene", "oracle_decode", "emit_training_targets", "track_scene",
    ),
    "metrics": (
        "ClearMotResult", "AlphaScores", "HotaResult", "MetricsReport", "ALPHA_GRID",
        "clear_mot", "idf1", "hota", "evaluate",
    ),
    "mot_io": (
        "Observation", "Tracklets", "MotLine", "MotFormatError", "read_mot", "write_mot", "format_mot",
    ),
    "config": ("RunConfig", "ConfigError", "parse_config_text", "load_run_config"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    # a name that is not public falls through, so that ``from shadowmot
    # import cli`` imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
