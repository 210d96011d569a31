"""Flat key-value run configuration.

A config file is lines of ``dotted.key = value`` with ``#`` comments.
Every key has a documented default; unknown keys are rejected so typos
cannot silently fall back.  The single top-level ``seed`` feeds both scene
generation and the oracle/tracker, keeping one number in charge of a whole
reproducible run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from . import _MODULES

if TYPE_CHECKING:
    from .matching import CostWeights
    from .simulator import OracleConfig, SceneConfig
    from .tracker import TrackerConfig

__all__ = _MODULES["config"]


class ConfigError(ValueError):
    """Bad config file or bad key/value."""


def _int(text: str) -> int:
    """``int(text)``, refusing the ``_`` that int() reads between digits
    (``"1_0"`` is 10), as MOT fields do."""
    if "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _float(text: str) -> float:
    """``float(text)``, refusing the ``_`` that float() reads between
    digits (``"0_5"`` is 5.0), as MOT fields do."""
    if "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


# argparse names a flag's converter in its error: "invalid int value: 'x'"
_int.__name__, _float.__name__ = "int", "float"


def _parse_occlusions(raw: str) -> tuple[tuple[int, int, int], ...]:
    raw = raw.strip()
    if not raw:
        return ()
    out = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"occlusion {chunk.strip()!r} is not id:start:end")
        out.append(tuple(_int(p) for p in parts))
    return tuple(out)


def _fmt_occlusions(occs: tuple[tuple[int, int, int], ...]) -> str:
    return ",".join(f"{i}:{a}:{b}" for i, a, b in occs)


# the reductions of a shadow set's costs and scores: shadow.lambda and
# shadow.phi, and the values of those ablate grid axes
REDUCTIONS: tuple[str, ...] = ("min", "mean", "max")

# key -> (converter, default, help text).  Every ``section.*`` key names a
# field of that section's constructor: the same name, or the one in _FIELDS.
_SCHEMA: dict[str, tuple] = {
    "seed": (_int, 0, "master seed for scene, oracle, and query bank"),
    "scene.n_frames": (_int, 100, "frames per sequence, 1 to 100000; n_frames * n_objects at most 1000000"),
    "scene.n_objects": (_int, 10, "number of objects, 0 to 10000; n_frames * n_objects at most 1000000"),
    "scene.schedule": (str, "all-at-start", "newborn schedule: all-at-start or uniform"),
    "scene.jitter": (_float, 0.0, "per-frame position jitter std (normalized units)"),
    "scene.occlusions": (_parse_occlusions, (), "comma list of id:start:end windows"),
    "scene.image_width": (_int, 1920, "image width in pixels, 1 to 100000"),
    "scene.image_height": (_int, 1080, "image height in pixels, 1 to 100000"),
    "oracle.box_noise_std": (_float, 0.0, "per-shadow box noise std at layer 1, 0 to 1000000"),
    "oracle.base_score": (_float, 0.9, "score served for a captured object"),
    "oracle.occ_drop": (_float, 0.6, "score drop while the object is occluded"),
    "oracle.p_corrupt": (_float, 0.0, "per-shadow probability of a zeroed score"),
    "oracle.refinement": (_float, 0.5, "per-layer noise shrink factor in [0,1)"),
    "oracle.fp_rate": (_float, 0.0, "false-positive rate for idle detection sets"),
    "oracle.fp_score": (_float, 0.1, "score of a false-positive box"),
    "shadow.ns": (_int, 3, "shadows per set, 1 to 64"),
    "shadow.init": (str, "noise", "bank anchor initialization: rand, copy, or noise; rand and copy give the same anchors"),
    "shadow.sigma_pos": (_float, 1e-6, "position noise std for noisy init, 0 to 1000000"),
    "shadow.sigma_emb": (_float, 1e-6, "unread (queries carry no embedding); validated >= 0 and kept in manifests"),
    "shadow.lambda": (str, "max", "training cost reduction: min, mean, or max"),
    "shadow.phi": (str, "min", "inference score reduction: min, mean, or max"),
    "shadow.tau": (_float, 0.5, "confidence threshold for births and survival"),
    "shadow.embed_dim": (_int, 256, "length of a discarded per-set draw in copy/noise init, 1 to 4096; shifts noise-init positions"),
    "tracker.n_layers": (_int, 6, "decoder layer count, 1 to 64"),
    "tracker.n_detection_sets": (_int, 60, "detection sets per frame, 1 to 10000; n_detection_sets * patience at most 1000000"),
    "tracker.patience": (_int, 0, "sub-threshold frames before a track dies, >= 0; n_detection_sets * patience at most 1000000"),
    "tracker.mode": (str, "cola", "training-target mode: tala or cola"),
    "cost.w_class": (_float, 2.0, "classification cost weight, 0 to 1000000"),
    "cost.w_l1": (_float, 5.0, "L1 box cost weight, 0 to 1000000"),
    "cost.w_giou": (_float, 2.0, "overlap cost weight, 0 to 1000000"),
    "cost.alpha": (_float, 0.25, "focal cost alpha"),
    "cost.gamma": (_float, 2.0, "focal cost gamma"),
}


# the largest box noise, anchor noise, cost weight and scene box component:
# boxes and costs scaled by it stay far below float overflow, and every
# box that track writes is one that eval reads
_MAX_SCALE = 10**6

# config keys whose constructor field has another name
_FIELDS = {
    "shadow.ns": "n_shadows",
    "shadow.lambda": "cost_reduction",
    "shadow.phi": "score_reduction",
    "tracker.mode": "assignment_mode",
}
_KEYS = {field: key for key, field in _FIELDS.items()}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw ``key = value`` pairs from a config document."""
    pairs: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, resolved to typed sub-configs."""

    seed: int
    scene: SceneConfig
    oracle: OracleConfig
    tracker: TrackerConfig
    weights: CostWeights

    def to_manifest(self) -> dict:
        """Every knob that affects output, in config-file key terms."""
        sections = {
            "scene": self.scene,
            "oracle": self.oracle,
            "shadow": self.tracker.shadow,
            "tracker": self.tracker,
            "cost": self.weights,
        }
        manifest: dict[str, object] = {"seed": self.seed}
        for key in _SCHEMA:
            section, _, name = key.partition(".")
            if name:
                manifest[key] = getattr(sections[section], _FIELDS.get(key, name))
        manifest["scene.occlusions"] = _fmt_occlusions(self.scene.occlusions)
        return manifest


def load_run_config(
    pairs: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> RunConfig:
    """Resolve key-value pairs (plus programmatic overrides) against the
    schema.  Unknown keys are an error; overrides win over file values."""
    resolved: dict[str, object] = {key: default for key, (_, default, _) in _SCHEMA.items()}

    for source in (pairs or {}), (overrides or {}):
        for key, value in source.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            convert = _SCHEMA[key][0]
            if isinstance(value, str):
                try:
                    resolved[key] = convert(value)
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"key {key!r}: bad value {value!r} ({exc})") from None
            else:
                resolved[key] = value

    # the section classes load only here: describing the schema needs none
    from .matching import CostWeights
    from .shadow import ShadowConfig
    from .simulator import OracleConfig, SceneConfig
    from .tracker import TrackerConfig

    seed = int(resolved["seed"])
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    scene = _build(SceneConfig, "scene", resolved, seed=seed)
    oracle = _build(OracleConfig, "oracle", resolved, seed=seed)
    shadow = _build(ShadowConfig, "shadow", resolved)
    tracker = _build(TrackerConfig, "tracker", resolved, shadow=shadow)
    weights = _build(CostWeights, "cost", resolved)
    return RunConfig(seed=seed, scene=scene, oracle=oracle, tracker=tracker, weights=weights)


def _build(cls, section: str, resolved: Mapping[str, object], **extra):
    """``cls`` made from the ``section.*`` keys.  Its range errors start with
    a field name (``tau: must lie in [0, 1], got nan``); the ConfigError
    starts with the key instead (``shadow.tau: ...``)."""
    prefix = section + "."
    kwargs = {
        _FIELDS.get(key, key[len(prefix):]): value
        for key, value in resolved.items()
        if key.startswith(prefix)
    }
    try:
        return cls(**kwargs, **extra)
    except ValueError as exc:
        raise ConfigError(_name_keys(str(exc), lambda name: _KEYS.get(name, prefix + name))) from None


def _check_range(name: str, value: float, least: float, most: float | None = None) -> None:
    """The range rule of every bounded integer, and of the bounds of a
    finite float: ``name: must be >= least, got v``, and ``name: must be
    <= most, got v`` above an upper bound."""
    if value < least:
        raise ValueError(f"{name}: must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name}: must be <= {most}, got {value}")


def _check_spread(name: str, value: float, most: float | None = None) -> None:
    """The rule of every spread: ``name: must be finite and >= 0, got v``,
    and the range rule's message above an upper bound.  Compared, not
    converted: an integer too large for a float is out of range, not an
    OverflowError."""
    if not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{name}: must be finite and >= 0, got {value!r}")
    if most is not None:
        _check_range(name, value, 0, most)


def _check_choice(name: str, value: object, choices: tuple) -> None:
    """The rule of every enumerated value: ``name: must be one of (...), got v``."""
    if value not in choices:
        raise ValueError(f"{name}: must be one of {choices}, got {value!r}")


def _name_keys(message: str, key_of: Callable[[str], str]) -> str:
    """A range error ``field: problem`` with its field named by
    ``key_of(field)``.  An index stays (``occlusions[1]``), and a bound on
    a product names each factor (``n_frames * n_objects``)."""
    where, _, problem = message.partition(": ")
    field = where.partition("[")[0]  # occlusions[1] -> occlusions
    key = " * ".join(key_of(name) for name in field.split(" * "))
    return f"{key}{where[len(field):]}: {problem}"


def describe_defaults() -> str:
    """One line per key for --help: key, default, meaning."""
    lines = []
    for key, (_, default, help_text) in _SCHEMA.items():
        shown = _fmt_occlusions(default) if key == "scene.occlusions" else default
        lines.append(f"  {key} = {shown!r}: {help_text}")  # an int's or float's repr is its str
    return "\n".join(lines)
