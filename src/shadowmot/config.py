"""Flat key-value run configuration.

A config file is lines of ``dotted.key = value`` with ``#`` comments.
Every key has a documented default; unknown keys are rejected so typos
cannot silently fall back.  The single top-level ``seed`` feeds both scene
generation and the oracle/tracker, keeping one number in charge of a whole
reproducible run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .matching import CostWeights
    from .simulator import OracleConfig, SceneConfig
    from .tracker import TrackerConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_text",
    "load_run_config",
    "describe_defaults",
]


class ConfigError(ValueError):
    """Bad config file or bad key/value."""


def _parse_occlusions(raw: str) -> tuple[tuple[int, int, int], ...]:
    raw = raw.strip()
    if not raw:
        return ()
    out = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"occlusion {chunk.strip()!r} is not id:start:end")
        out.append(tuple(int(p) for p in parts))
    return tuple(out)


def _fmt_occlusions(occs: tuple[tuple[int, int, int], ...]) -> str:
    return ",".join(f"{i}:{a}:{b}" for i, a, b in occs)


# key -> (converter, default, help text).  Every ``section.*`` key names a
# field of that section's constructor: the same name, or the one in _FIELDS.
_SCHEMA: dict[str, tuple] = {
    "seed": (int, 0, "master seed for scene, oracle, and query bank"),
    "scene.n_frames": (int, 100, "frames per sequence, 1 to 100000"),
    "scene.n_objects": (int, 10, "number of objects, 0 to 10000"),
    "scene.schedule": (str, "all-at-start", "newborn schedule: all-at-start or uniform"),
    "scene.jitter": (float, 0.0, "per-frame position jitter std (normalized units)"),
    "scene.occlusions": (_parse_occlusions, (), "comma list of id:start:end windows"),
    "scene.image_width": (int, 1920, "image width in pixels, 1 to 100000"),
    "scene.image_height": (int, 1080, "image height in pixels, 1 to 100000"),
    "oracle.box_noise_std": (float, 0.0, "per-shadow box noise std at layer 1"),
    "oracle.base_score": (float, 0.9, "score served for a captured object"),
    "oracle.occ_drop": (float, 0.6, "score drop while the object is occluded"),
    "oracle.p_corrupt": (float, 0.0, "per-shadow probability of a zeroed score"),
    "oracle.refinement": (float, 0.5, "per-layer noise shrink factor in [0,1)"),
    "oracle.fp_rate": (float, 0.0, "false-positive rate for idle detection sets"),
    "oracle.fp_score": (float, 0.1, "score of a false-positive box"),
    "shadow.ns": (int, 3, "shadows per set, 1 to 64"),
    "shadow.init": (str, "noise", "bank anchor initialization: rand, copy, or noise; rand and copy give the same anchors"),
    "shadow.sigma_pos": (float, 1e-6, "position noise std for noisy init"),
    "shadow.sigma_emb": (float, 1e-6, "unread (queries carry no embedding); validated >= 0 and kept in manifests"),
    "shadow.lambda": (str, "max", "training cost reduction: min, mean, or max"),
    "shadow.phi": (str, "min", "inference score reduction: min, mean, or max"),
    "shadow.tau": (float, 0.5, "confidence threshold for births and survival"),
    "shadow.embed_dim": (int, 256, "length of a discarded per-set draw in copy/noise init, 1 to 4096; shifts noise-init positions"),
    "tracker.n_layers": (int, 6, "decoder layer count, 1 to 64"),
    "tracker.n_detection_sets": (int, 60, "detection sets per frame, 1 to 10000"),
    "tracker.patience": (int, 0, "sub-threshold frames before a track dies"),
    "tracker.mode": (str, "cola", "training-target mode: tala or cola"),
    "cost.w_class": (float, 2.0, "classification cost weight"),
    "cost.w_l1": (float, 5.0, "L1 box cost weight"),
    "cost.w_giou": (float, 2.0, "overlap cost weight"),
    "cost.alpha": (float, 0.25, "focal cost alpha"),
    "cost.gamma": (float, 2.0, "focal cost gamma"),
}


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
        where, _, problem = str(exc).partition(": ")
        field = where.partition("[")[0]  # occlusions[1] -> occlusions
        key = _KEYS.get(field, prefix + field)
        raise ConfigError(f"{key}{where[len(field):]}: {problem}") from None


def describe_defaults() -> str:
    """One line per key for --help: key, default, meaning."""
    lines = []
    for key, (_, default, help_text) in _SCHEMA.items():
        shown = _fmt_occlusions(default) if key == "scene.occlusions" else default
        lines.append(f"  {key} = {shown!r}: {help_text}" if isinstance(shown, str)
                     else f"  {key} = {shown}: {help_text}")
    return "\n".join(lines)
