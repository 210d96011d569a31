"""Flat key-value run configuration.

A config file is lines of ``dotted.key = value`` with ``#`` comments.
Every key has a documented default; unknown keys are rejected so typos
cannot silently fall back.  The single top-level ``seed`` feeds both scene
generation and the oracle/tracker, keeping one number in charge of a whole
reproducible run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .matching import CostWeights
from .shadow import ShadowConfig
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


# key -> (converter, default, help text)
_SCHEMA: dict[str, tuple] = {
    "seed": (int, 0, "master seed for scene, oracle, and query bank"),
    "scene.n_frames": (int, 100, "frames per sequence"),
    "scene.n_objects": (int, 10, "number of objects"),
    "scene.schedule": (str, "all-at-start", "newborn schedule: all-at-start or uniform"),
    "scene.jitter": (float, 0.0, "per-frame position jitter std (normalized units)"),
    "scene.occlusions": (_parse_occlusions, (), "comma list of id:start:end windows"),
    "scene.image_width": (int, 1920, "image width in pixels"),
    "scene.image_height": (int, 1080, "image height in pixels"),
    "oracle.box_noise_std": (float, 0.0, "per-shadow box noise std at layer 1"),
    "oracle.base_score": (float, 0.9, "score served for a captured object"),
    "oracle.occ_drop": (float, 0.6, "score drop while the object is occluded"),
    "oracle.p_corrupt": (float, 0.0, "per-shadow probability of a zeroed score"),
    "oracle.refinement": (float, 0.5, "per-layer noise shrink factor in [0,1)"),
    "oracle.fp_rate": (float, 0.0, "false-positive rate for idle detection sets"),
    "oracle.fp_score": (float, 0.1, "score of a false-positive box"),
    "shadow.ns": (int, 3, "shadows per set"),
    "shadow.init": (str, "noise", "bank initialization: rand, copy, or noise"),
    "shadow.sigma_pos": (float, 1e-6, "position noise std for noisy init"),
    "shadow.sigma_emb": (float, 1e-6, "unread (queries carry no embedding); validated >= 0 and kept in manifests"),
    "shadow.lambda": (str, "max", "training cost reduction: min, mean, or max"),
    "shadow.phi": (str, "min", "inference score reduction: min, mean, or max"),
    "shadow.tau": (float, 0.5, "confidence threshold for births and survival"),
    "shadow.embed_dim": (int, 256, "length of a discarded per-set draw in copy/noise init; shifts noise-init positions"),
    "tracker.n_layers": (int, 6, "decoder layer count"),
    "tracker.n_detection_sets": (int, 60, "detection sets per frame"),
    "tracker.patience": (int, 0, "sub-threshold frames before a track dies"),
    "tracker.mode": (str, "cola", "training-target mode: tala or cola"),
    "cost.w_class": (float, 2.0, "classification cost weight"),
    "cost.w_l1": (float, 5.0, "L1 box cost weight"),
    "cost.w_giou": (float, 2.0, "overlap cost weight"),
    "cost.alpha": (float, 0.25, "focal cost alpha"),
    "cost.gamma": (float, 2.0, "focal cost gamma"),
}


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
        shadow = self.tracker.shadow
        return {
            "seed": self.seed,
            "scene.n_frames": self.scene.n_frames,
            "scene.n_objects": self.scene.n_objects,
            "scene.schedule": self.scene.schedule,
            "scene.jitter": self.scene.jitter,
            "scene.occlusions": _fmt_occlusions(self.scene.occlusions),
            "scene.image_width": self.scene.image_width,
            "scene.image_height": self.scene.image_height,
            "oracle.box_noise_std": self.oracle.box_noise_std,
            "oracle.base_score": self.oracle.base_score,
            "oracle.occ_drop": self.oracle.occ_drop,
            "oracle.p_corrupt": self.oracle.p_corrupt,
            "oracle.refinement": self.oracle.refinement,
            "oracle.fp_rate": self.oracle.fp_rate,
            "oracle.fp_score": self.oracle.fp_score,
            "shadow.ns": shadow.n_shadows,
            "shadow.init": shadow.init,
            "shadow.sigma_pos": shadow.sigma_pos,
            "shadow.sigma_emb": shadow.sigma_emb,
            "shadow.lambda": shadow.cost_reduction,
            "shadow.phi": shadow.score_reduction,
            "shadow.tau": shadow.tau,
            "shadow.embed_dim": shadow.embed_dim,
            "tracker.n_layers": self.tracker.n_layers,
            "tracker.n_detection_sets": self.tracker.n_detection_sets,
            "tracker.patience": self.tracker.patience,
            "tracker.mode": self.tracker.assignment_mode,
            "cost.w_class": self.weights.w_class,
            "cost.w_l1": self.weights.w_l1,
            "cost.w_giou": self.weights.w_giou,
            "cost.alpha": self.weights.alpha,
            "cost.gamma": self.weights.gamma,
        }


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

    seed = int(resolved["seed"])
    if seed < 0:
        raise ConfigError(f"key 'seed': must be >= 0, got {seed}")
    try:
        scene = SceneConfig(
            n_frames=resolved["scene.n_frames"],
            n_objects=resolved["scene.n_objects"],
            schedule=resolved["scene.schedule"],
            jitter=resolved["scene.jitter"],
            occlusions=resolved["scene.occlusions"],
            image_width=resolved["scene.image_width"],
            image_height=resolved["scene.image_height"],
            seed=seed,
        )
    except ValueError as exc:
        # SceneConfig names the field; the config key adds "scene."
        raise ConfigError(f"scene.{exc}") from None
    try:
        oracle = OracleConfig(
            seed=seed,
            box_noise_std=resolved["oracle.box_noise_std"],
            base_score=resolved["oracle.base_score"],
            occ_drop=resolved["oracle.occ_drop"],
            p_corrupt=resolved["oracle.p_corrupt"],
            refinement=resolved["oracle.refinement"],
            fp_rate=resolved["oracle.fp_rate"],
            fp_score=resolved["oracle.fp_score"],
        )
        shadow = ShadowConfig(
            n_shadows=resolved["shadow.ns"],
            init=resolved["shadow.init"],
            sigma_pos=resolved["shadow.sigma_pos"],
            sigma_emb=resolved["shadow.sigma_emb"],
            cost_reduction=resolved["shadow.lambda"],
            score_reduction=resolved["shadow.phi"],
            tau=resolved["shadow.tau"],
            embed_dim=resolved["shadow.embed_dim"],
        )
        tracker = TrackerConfig(
            shadow=shadow,
            n_layers=resolved["tracker.n_layers"],
            n_detection_sets=resolved["tracker.n_detection_sets"],
            patience=resolved["tracker.patience"],
            assignment_mode=resolved["tracker.mode"],
        )
        weights = CostWeights(
            w_class=resolved["cost.w_class"],
            w_l1=resolved["cost.w_l1"],
            w_giou=resolved["cost.w_giou"],
            alpha=resolved["cost.alpha"],
            gamma=resolved["cost.gamma"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(seed=seed, scene=scene, oracle=oracle, tracker=tracker, weights=weights)


def describe_defaults() -> str:
    """One line per key for --help: key, default, meaning."""
    lines = []
    for key, (_, default, help_text) in _SCHEMA.items():
        shown = _fmt_occlusions(default) if key == "scene.occlusions" else default
        lines.append(f"  {key} = {shown!r}: {help_text}" if isinstance(shown, str)
                     else f"  {key} = {shown}: {help_text}")
    return "\n".join(lines)
