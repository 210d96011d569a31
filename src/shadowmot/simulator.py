"""Synthetic scenes and the oracle decoder that stands in for a trained
network.

Scenes are constant-velocity trajectories with border reflection, optional
per-frame jitter, occlusion windows, and a newborn schedule (everyone at
frame 1, or staggered arrivals).  The oracle converts scene plus live query
sets into per-layer, per-shadow box/score predictions with controllable
noise: box noise shrinks geometrically across layers, occlusion drops the
score, and each shadow's score can independently collapse to zero.  That
collapse is the failure mode the shadow mechanism exists to survive, so it
is the one knob the robustness experiments turn.

All randomness flows from the config seeds through named substreams, so
every output is reproducible draw for draw.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .geometry import BoundingBox, _corners, _iou, _rows
from .matching import ClassScores
from .mot_io import Tracklets
from .shadow import ShadowSet
from .tracker import FrameResult, ShadowTracker, TrackerConfig

if TYPE_CHECKING:
    from .assignment import FrameGroundTruth, GroundTruthObject

__all__ = [
    "Schedule",
    "SceneConfig",
    "OracleConfig",
    "SceneFrame",
    "Scene",
    "generate_scene",
    "oracle_decode",
    "emit_training_targets",
    "track_scene",
]

Schedule = Literal["all-at-start", "uniform"]

_STREAM_SCENE = 0
_STREAM_ORACLE = 1
_STREAM_CORRUPT = 2

SCENE_JSON_VERSION = 1

# Bounds of the box an unassociated detection set emits, per (cx, cy, w, h).
# It is drawn as lo + (hi - lo) * u from one frame_rng.random call, which is
# what numpy's uniform(lo, hi) computes from the same doubles.
_FALLBACK_LO = np.array((0.2, 0.2, 0.02, 0.02))
_FALLBACK_HI = np.array((0.8, 0.8, 0.1, 0.1))


@dataclass(frozen=True)
class SceneConfig:
    """Scene generation knobs.  Occlusions are (identity, first, last)
    frame windows, inclusive on both ends."""

    n_frames: int
    n_objects: int
    schedule: Schedule = "all-at-start"
    jitter: float = 0.0
    occlusions: tuple[tuple[int, int, int], ...] = ()
    image_width: int = 1920
    image_height: int = 1080
    seed: int = 0

    def __post_init__(self) -> None:
        # each message starts with the field it is about, e.g.
        # "n_frames: must be >= 1, got 0", so that readers of a scene
        # document or a config file can put their own prefix on it
        if self.n_frames < 1:
            raise ValueError(f"n_frames: must be >= 1, got {self.n_frames}")
        if self.n_frames > 100000:
            raise ValueError(f"n_frames: must be <= 100000, got {self.n_frames}")
        if self.n_objects < 0:
            raise ValueError(f"n_objects: must be >= 0, got {self.n_objects}")
        if self.n_objects > 10000:
            raise ValueError(f"n_objects: must be <= 10000, got {self.n_objects}")
        if self.schedule not in ("all-at-start", "uniform"):
            raise ValueError(
                f"schedule: must be 'all-at-start' or 'uniform', got {self.schedule!r}"
            )
        # compared, not converted: an integer too large for a float is out
        # of range, not an OverflowError
        if not 0 <= self.jitter <= sys.float_info.max:
            raise ValueError(f"jitter: must be finite and >= 0, got {self.jitter!r}")
        for name in ("image_width", "image_height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
            if getattr(self, name) > 100000:
                raise ValueError(f"{name}: must be <= 100000, got {getattr(self, name)}")
        occs = tuple((int(i), int(a), int(b)) for i, a, b in self.occlusions)
        object.__setattr__(self, "occlusions", occs)
        for n, (identity, start, end) in enumerate(occs):
            if not 1 <= identity <= self.n_objects:
                raise ValueError(
                    f"occlusions[{n}]: identity must be in [1, n_objects = "
                    f"{self.n_objects}], got {identity}"
                )
            if not 1 <= start <= end <= self.n_frames:
                raise ValueError(
                    f"occlusions[{n}]: window [{start}, {end}] outside frames "
                    f"[1, {self.n_frames}]"
                )

    def to_json(self) -> dict:
        return {
            "n_frames": self.n_frames,
            "n_objects": self.n_objects,
            "schedule": self.schedule,
            "jitter": self.jitter,
            "occlusions": [list(o) for o in self.occlusions],
            "image_width": self.image_width,
            "image_height": self.image_height,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SceneConfig":
        """Parse the ``config`` object of a scene document; a value of the
        wrong type (checked exactly, as json.loads makes them) or out of
        range is a ValueError that names its key, e.g.
        ``config.n_frames: expected an integer, got 'x'`` or
        ``config.n_frames: must be >= 1, got 0``."""
        if not isinstance(doc, dict):
            raise ValueError("config: expected an object")
        known = {
            "n_frames", "n_objects", "schedule", "jitter", "occlusions",
            "image_width", "image_height", "seed",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        for key in ("n_frames", "n_objects"):
            _key(doc, key, "config")
        kwargs = dict(doc)
        for key, value in doc.items():
            path = f"config.{key}"
            if key == "schedule":
                if type(value) is not str:
                    raise ValueError(f"{path}: expected a string, got {value!r}")
            elif key == "jitter":
                if type(value) not in _NUMBER_TYPES:
                    raise ValueError(f"{path}: expected a number, got {value!r}")
            elif key == "occlusions":
                for n, window in enumerate(_list(value, path)):
                    if not (type(window) is list and len(window) == 3
                            and all(type(v) is int for v in window)):
                        raise ValueError(
                            f"{path}[{n}]: expected a list of 3 integers, got {window!r}"
                        )
                kwargs[key] = tuple(tuple(w) for w in value)
            elif type(value) is not int:
                raise ValueError(f"{path}: expected an integer, got {value!r}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"config.{exc}") from None


@dataclass(frozen=True)
class OracleConfig:
    """Noise model of the decoder stand-in.

    ``refinement`` scales layer-l box noise by refinement**(l-1), so later
    layers are sharper.  ``p_corrupt`` zeroes a shadow's score for one
    frame, independently per shadow and frame but shared across layers.
    """

    seed: int = 0
    box_noise_std: float = 0.0
    base_score: float = 0.9
    occ_drop: float = 0.6
    p_corrupt: float = 0.0
    refinement: float = 0.5
    fp_rate: float = 0.0
    fp_score: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.box_noise_std) and self.box_noise_std >= 0):
            raise ValueError(f"box_noise_std: must be finite and >= 0, got {self.box_noise_std!r}")
        for name in ("base_score", "occ_drop", "p_corrupt", "fp_rate", "fp_score"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1], got {v!r}")
        if not 0.0 <= self.refinement < 1.0:
            raise ValueError(f"refinement: must lie in [0, 1), got {self.refinement!r}")


class SceneFrame(NamedTuple):
    t: int
    box: BoundingBox
    visible: bool


@dataclass
class Scene:
    """Ground truth: per-identity frame states plus the generating config."""

    config: SceneConfig
    tracks: dict[int, tuple[SceneFrame, ...]]

    def __post_init__(self) -> None:
        self._states: dict[int, dict[int, SceneFrame]] = {}
        for identity, states in self.tracks.items():
            frames = [s.t for s in states]
            if frames != sorted(set(frames)):
                raise ValueError(f"identity {identity}: frame indices must strictly increase")
            if frames and (frames[0] < 1 or frames[-1] > self.config.n_frames):
                raise ValueError(f"identity {identity}: frames outside [1, {self.config.n_frames}]")
            for s in states:
                self._states.setdefault(s.t, {})[identity] = s

    @property
    def n_frames(self) -> int:
        return self.config.n_frames

    @property
    def identities(self) -> tuple[int, ...]:
        return tuple(sorted(self.tracks))

    def states_at(self, frame: int) -> dict[int, SceneFrame]:
        return dict(self._states.get(frame, {}))

    def visible_objects(self, frame: int) -> tuple[GroundTruthObject, ...]:
        # training targets load the assignment module only when asked for
        from .assignment import GroundTruthObject

        return tuple(
            GroundTruthObject(identity=i, box=s.box)
            for i, s in sorted(self.states_at(frame).items())
            if s.visible
        )

    def gt_tracklets(self) -> Tracklets:
        """Ground truth as tracklets; occluded frames are skipped, since an
        occluded object is not an evaluation target."""
        out = Tracklets()
        for identity in self.identities:
            for s in self.tracks[identity]:
                if s.visible:
                    out.add(identity, s.t, s.box, 1.0)
        return out

    def to_json(self) -> dict:
        return {
            "version": SCENE_JSON_VERSION,
            "config": self.config.to_json(),
            "tracks": [
                {
                    "id": identity,
                    "frames": [
                        {"t": s.t, "box": [s.box.cx, s.box.cy, s.box.w, s.box.h], "visible": s.visible}
                        for s in self.tracks[identity]
                    ],
                }
                for identity in self.identities
            ],
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2) + "\\n"``, one template per
        frame.  Box components are floats, as ``generate_scene`` and
        ``from_json`` build them, and ``json`` writes each with
        ``float.__repr__``, also numpy's, which ``%r`` would not."""
        r = float.__repr__
        tracks = [
            _TRACK_JSON % (identity, _json_list([
                _FRAME_JSON % (t, r(box.cx), r(box.cy), r(box.w), r(box.h),
                               "true" if visible else "false")
                for t, box, visible in self.tracks[identity]
            ], "      "))
            for identity in self.identities
        ]
        # the document up to its "tracks" key is this dump without its
        # closing brace
        head = json.dumps(
            {"version": SCENE_JSON_VERSION, "config": self.config.to_json()}, indent=2
        )[:-2]
        return head + ',\n  "tracks": ' + _json_list(tracks, "  ") + "\n}\n"

    @classmethod
    def from_json(cls, doc: dict) -> "Scene":
        """Parse a scene document; any defect is a ValueError that names its
        path, e.g. ``tracks[0].frames[3].box: expected 4 numbers, got 3``
        or ``tracks[0]: unknown keys ['junk']``."""
        if not isinstance(doc, dict):
            raise ValueError(f"scene document: expected an object, got {type(doc).__name__}")
        version = doc.get("version")
        if type(version) is not int or version != SCENE_JSON_VERSION:
            raise ValueError(f"unsupported scene document version {version!r}")
        unknown = set(doc) - {"version", "config", "tracks"}
        if unknown:
            raise ValueError(f"unknown scene document keys: {sorted(unknown)}")
        config = SceneConfig.from_json(_key(doc, "config", "scene document"))
        tracks: dict[int, tuple[SceneFrame, ...]] = {}
        # every frame is checked inline, by exact type: json.loads makes
        # exactly dict, list, str, int, float and bool
        for n, entry in enumerate(_list(_key(doc, "tracks", "scene document"), "tracks")):
            if type(entry) is not dict or entry.keys() != _TRACK_KEYS:
                _check_keys(entry, ("id", "frames"), f"tracks[{n}]")
            identity, frames = entry["id"], entry["frames"]
            if type(identity) is not int:
                raise ValueError(f"tracks[{n}].id: expected an integer, got {identity!r}")
            if identity < 1:
                raise ValueError(f"tracks[{n}].id: must be >= 1, got {identity}")
            if identity in tracks:
                raise ValueError(f"tracks[{n}].id: duplicate id {identity}")
            if type(frames) is not list:
                raise ValueError(f"tracks[{n}].frames: expected a list")
            states = []
            for m, f in enumerate(frames):
                if type(f) is not dict or f.keys() != _FRAME_KEYS:
                    _check_keys(f, ("t", "box", "visible"), f"tracks[{n}].frames[{m}]")
                t, box, visible = f["t"], f["box"], f["visible"]
                if type(t) is not int:
                    raise ValueError(f"tracks[{n}].frames[{m}].t: expected an integer, got {t!r}")
                if type(box) is not list or not _NUMBER_TYPES.issuperset(map(type, box)):
                    raise ValueError(
                        f"tracks[{n}].frames[{m}].box: expected a list of 4 numbers, got {box!r}"
                    )
                if len(box) != 4:
                    raise ValueError(
                        f"tracks[{n}].frames[{m}].box: expected 4 numbers, got {len(box)}"
                    )
                try:
                    bbox = BoundingBox(*map(float, box))
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"tracks[{n}].frames[{m}].box: {exc}") from None
                if type(visible) is not bool:
                    raise ValueError(
                        f"tracks[{n}].frames[{m}].visible: expected true or false, got {visible!r}"
                    )
                states.append(SceneFrame(t, bbox, visible))
            tracks[identity] = tuple(states)
        try:
            return cls(config=config, tracks=tracks)
        except ValueError as exc:
            # the check names an identity; the document names its track,
            # the n-th in both
            where, _, problem = str(exc).partition(": ")
            n = list(tracks).index(int(where.removeprefix("identity ")))
            raise ValueError(f"tracks[{n}]: {problem}") from None


# one frame and one track of a scene document, as json.dumps(indent=2)
# lays them out at their depth
_FRAME_JSON = ('        {\n          "t": %d,\n          "box": [\n            %s,\n'
               '            %s,\n            %s,\n            %s\n          ],\n'
               '          "visible": %s\n        }')
_TRACK_JSON = '    {\n      "id": %d,\n      "frames": %s\n    }'


def _json_list(items: list[str], indent: str) -> str:
    """Rendered ``items`` as the list json.dumps(indent=2) lays out, with
    the closing bracket at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


_TRACK_KEYS = {"id", "frames"}
_FRAME_KEYS = {"t", "box", "visible"}
_NUMBER_TYPES = {int, float}


def _check_keys(obj: object, keys: tuple[str, ...], path: str) -> None:
    """Raise the located error of an ``obj`` that is not an object with
    exactly ``keys``."""
    for key in keys:
        _key(obj, key, path)
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")


def _key(obj: object, key: str, path: str) -> object:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    if key not in obj:
        raise ValueError(f"{path}: missing key {key!r}")
    return obj[key]


def _list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{path}: expected a list")
    return value


def _reflect(center: float, half: float) -> tuple[float, float]:
    """Fold a center coordinate back into [half, 1-half]; returns the new
    coordinate and the velocity sign flip (+1 or -1)."""
    lo, hi = half, 1.0 - half
    flip = 1.0
    if lo >= hi:
        return min(max(center, 0.0), 1.0), flip
    c = center
    for _ in range(8):
        if c < lo:
            c = 2 * lo - c
            flip = -flip
        elif c > hi:
            c = 2 * hi - c
            flip = -flip
        else:
            break
    return min(max(c, lo), hi), flip


def generate_scene(cfg: SceneConfig) -> Scene:
    """Deterministic scene synthesis.

    Each identity draws its own substream, so one object's trajectory does
    not depend on how many others exist.  Objects persist from their first
    frame to the final frame; occlusion windows only clear the visibility
    flag.
    """
    occluded: dict[int, set[int]] = {}
    for identity, start, end in cfg.occlusions:
        occluded.setdefault(identity, set()).update(range(start, end + 1))

    tracks: dict[int, tuple[SceneFrame, ...]] = {}
    for identity in range(1, cfg.n_objects + 1):
        rng = np.random.default_rng([cfg.seed, _STREAM_SCENE, identity])
        if cfg.schedule == "all-at-start":
            first = 1
        else:
            first = int(rng.integers(1, cfg.n_frames + 1))
        cx = float(rng.uniform(0.15, 0.85))
        cy = float(rng.uniform(0.15, 0.85))
        w = float(rng.uniform(0.05, 0.2))
        h = float(rng.uniform(0.05, 0.2))
        vx = float(rng.uniform(-0.01, 0.01))
        vy = float(rng.uniform(-0.01, 0.01))
        states = []
        for t in range(first, cfg.n_frames + 1):
            if t > first:
                jx, jy = (rng.normal(0.0, cfg.jitter, size=2) if cfg.jitter > 0 else (0.0, 0.0))
                cx, fx = _reflect(cx + vx + float(jx), w / 2)
                cy, fy = _reflect(cy + vy + float(jy), h / 2)
                vx *= fx
                vy *= fy
            visible = t not in occluded.get(identity, ())
            states.append(SceneFrame(t=t, box=BoundingBox(cx, cy, w, h), visible=visible))
        tracks[identity] = tuple(states)
    return Scene(config=cfg, tracks=tracks)


def emit_training_targets(
    scene: Scene, frame: int, track_ids: Sequence[int]
) -> FrameGroundTruth:
    """This frame's visible objects split into tracked vs newborn against
    the live track list."""
    from .assignment import FrameGroundTruth

    if not 1 <= frame <= scene.n_frames:
        raise ValueError(f"frame {frame} outside [1, {scene.n_frames}]")
    return FrameGroundTruth.partition(scene.visible_objects(frame), track_ids)


def _claim(
    anchors: np.ndarray,
    boxes: np.ndarray,
    gate: Callable[[np.ndarray], np.ndarray],
) -> dict[int, int]:
    """Greedy one-to-one claim of the ``boxes`` rows by the ``anchors``
    rows, as anchor index -> box index: best overlap first, ties to the
    lower anchor and then the lower box, among the pairs whose overlap
    passes ``gate``."""
    overlaps, _ = _iou(_corners(anchors), _corners(boxes))
    claims: dict[int, int] = {}
    taken: set[int] = set()
    for _, r, k in sorted(
        (-float(overlaps[r, k]), r, k) for r, k in np.argwhere(gate(overlaps)).tolist()
    ):
        if r not in claims and k not in taken:
            claims[r] = k
            taken.add(k)
    return claims


class _FrameDraws(NamedTuple):
    """One frame's draws for ``S`` sets of ``ns`` shadows each.  Per set:
    the box it is served (``target[S, 4]``, valid where ``has_target``),
    its base score and the box it emits without a target
    (``fallback[S, 4]``).  Per shadow: the corruption flag ``[S, ns]`` and
    the unscaled box noise ``eps[S, ns, 4]``."""

    target: np.ndarray
    has_target: np.ndarray
    base: np.ndarray
    corrupted: np.ndarray
    eps: np.ndarray
    fallback: np.ndarray


def _set_arrays(live_sets: Sequence[ShadowSet]) -> tuple[np.ndarray, list[bool], int]:
    """The anchors ``[S, 4]``, tracking flags and shared shadow count of sets."""
    counts = {s.n_shadows for s in live_sets}
    if len(counts) > 1:
        raise ValueError(f"sets disagree on shadow count: {sorted(counts)}")
    return (
        _rows([s.anchor for s in live_sets]),
        [s.role == "tracking" for s in live_sets],
        counts.pop() if counts else 1,
    )


def _frame_draws(
    scene: Scene,
    frame: int,
    anchors: np.ndarray,
    tracking: Sequence[bool],
    ns: int,
    cfg: OracleConfig,
) -> _FrameDraws:
    """Everything random about one frame for the sets with ``anchors[S, 4]``,
    ``tracking`` roles and ``ns`` shadows each, drawn in a fixed order:
    claims and association first (no draws), then every shadow's
    corruption flag from the corruption stream, then per set its box noise
    and, when it has no target, a false-positive coin and a fallback box
    (detection sets) or four discarded doubles (tracking sets, which fall
    back to their anchor)."""
    if not 1 <= frame <= scene.n_frames:
        raise ValueError(f"frame {frame} outside [1, {scene.n_frames}]")

    frame_rng = np.random.default_rng([cfg.seed, _STREAM_ORACLE, frame])
    corrupt_rng = np.random.default_rng([cfg.seed, _STREAM_CORRUPT, frame])

    present = sorted(scene.states_at(frame).items())
    n_sets = len(tracking)
    base = np.zeros(n_sets)
    served: dict[int, BoundingBox] = {}

    # tracking sets recognize their target by anchor overlap, not by the
    # tracker's identity counter (identities diverge from scene ids as
    # soon as a track dies or objects enter out of order); the gate is
    # any positive overlap because one frame of motion can drop a small
    # box below IoU 0.5 even without noise
    claimed_ids: set[int] = set()
    trk_indices = [i for i in range(n_sets) if tracking[i]]
    if present and trk_indices:
        boxes = _rows([st.box for _, st in present])
        claims = _claim(anchors[trk_indices], boxes, lambda ov: ov > 0.0)
        for r, k in claims.items():
            identity, st = present[k]
            served[trk_indices[r]] = st.box
            base[trk_indices[r]] = max(cfg.base_score - (0.0 if st.visible else cfg.occ_drop), 0.0)
            claimed_ids.add(identity)

    unclaimed = [st.box for identity, st in present if st.visible and identity not in claimed_ids]

    det_indices = [i for i in range(n_sets) if not tracking[i]]
    if unclaimed and det_indices:
        claims = _claim(anchors[det_indices], _rows(unclaimed), lambda ov: ov >= 0.5)
        taken = set(claims.values())
        free_sets = [r for r in range(len(det_indices)) if r not in claims]
        free_objs = [k for k in range(len(unclaimed)) if k not in taken]
        claims.update(zip(free_sets, free_objs))
        for r, k in claims.items():
            served[det_indices[r]] = unclaimed[k]
            base[det_indices[r]] = cfg.base_score

    # every shadow's corruption flag, in set order, in one call: no other
    # draw reads this stream
    corrupted = corrupt_rng.uniform(size=(n_sets, ns)) < cfg.p_corrupt

    # the box noise is one normal call per set, and a set without a target
    # draws right after its noise, so these calls stay one per set; the
    # doubles are mapped after the loop
    std = cfg.box_noise_std
    noise: list[np.ndarray] = []
    lost: list[int] = []
    free: list[int] = []
    fallback_draws: list[np.ndarray] = []
    for i in range(n_sets):
        if std > 0:
            noise.append(frame_rng.normal(0.0, std, size=(ns, 4)))
        if i in served:
            continue
        if tracking[i]:
            # a lost track emits its anchor; the stream still advances
            # past the fallback box it does not use
            frame_rng.random(4)
            lost.append(i)
        else:
            free.append(i)
            fallback_draws.append(frame_rng.random(5))

    target = np.zeros((n_sets, 4))
    has_target = np.zeros(n_sets, dtype=bool)
    if served:
        rows = list(served)
        target[rows] = _rows(list(served.values()))
        has_target[rows] = True
    fallback = np.zeros((n_sets, 4))
    fallback[lost] = anchors[lost]
    if free:
        u = np.concatenate(fallback_draws).reshape(-1, 5)
        base[free] = np.where(u[:, 0] < cfg.fp_rate, cfg.fp_score, 0.0)
        fallback[free] = _FALLBACK_LO + (_FALLBACK_HI - _FALLBACK_LO) * u[:, 1:]
    eps = np.array(noise) if noise else np.zeros((n_sets, ns, 4))
    return _FrameDraws(target, has_target, base, corrupted, eps, fallback)


def _render_layer(draws: _FrameDraws, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """One decoder layer's per-shadow boxes ``[S, ns, 4]`` and scores
    ``[S, ns]``, box noise scaled by ``scale``.  Makes no draws.  The
    extent clamp is ``np.where(v < 0.0, 0.0, v)``, which keeps ``-0.0`` as
    ``max(v, 0.0)`` does and ``np.maximum`` does not."""
    boxes = draws.target[:, np.newaxis] + draws.eps * scale
    extent = boxes[..., 2:]
    boxes[..., 2:] = np.where(extent < 0.0, 0.0, extent)
    boxes = np.where(draws.has_target[:, np.newaxis, np.newaxis], boxes,
                     draws.fallback[:, np.newaxis])
    scores = np.where(draws.corrupted, 0.0, draws.base[:, np.newaxis])
    return boxes, scores


def oracle_decode(
    scene: Scene,
    frame: int,
    live_sets: Sequence[ShadowSet],
    cfg: OracleConfig,
    n_layers: int,
) -> list[list[list[tuple[BoundingBox, ClassScores]]]]:
    """Per-layer predictions for every live set, standing in for the
    decoder stack.

    Tracking sets are served the object their anchor sits on: each set
    claims the present object its anchor overlaps best (best first, any
    positive overlap, one set per object).  The claimed object's box is
    served with the base score, reduced under occlusion; a set whose
    anchor overlaps nothing has lost its target and scores zero.
    Detection sets are associated to visible objects no tracking set
    claimed: overlapping anchors claim first (IoU >= 0.5, best first),
    then leftover objects fill leftover sets in index order so no
    unclaimed object goes unserved while sets remain.  Unassociated sets
    emit a random low-score box, or a false positive at the configured
    rate.

    Output is indexed [layer][set][shadow]; layer noise shrinks by
    refinement**(layer-1) around a single per-frame draw, and per-shadow
    score corruption is shared across layers.  Every set must have the
    same shadow count.  The draws and each layer are ``[set, shadow]``
    arrays; the boxes and score tuples are built from them here.
    """
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    draws = _frame_draws(scene, frame, *_set_arrays(live_sets), cfg)
    # a set without a target emits one box at every shadow and layer
    served = draws.has_target.tolist()
    fallback = [None if hit else BoundingBox(*row)
                for hit, row in zip(served, draws.fallback.tolist())]
    layers = []
    for l in range(n_layers):
        boxes, scores = _render_layer(draws, cfg.refinement ** l)
        rendered = iter(boxes[draws.has_target].reshape(-1, 4).tolist())
        layers.append([
            [(BoundingBox(*next(rendered)) if hit else miss, (score,)) for score in row]
            for hit, miss, row in zip(served, fallback, scores.tolist())
        ])
    return layers


def _tracked_frames(
    scene: Scene, tracker: ShadowTracker, oracle_cfg: OracleConfig
) -> Iterator[FrameResult]:
    """Step ``tracker`` over ``scene`` from its next frame on, yielding each
    frame's result.  The oracle's arrays go straight into the tracker's
    lifecycle core; only the final layer reaches the tracker, so only it is
    rendered, and boxes are built only for the emitted outputs."""
    scale = oracle_cfg.refinement ** (tracker.config.n_layers - 1)
    ns = tracker.config.shadow.n_shadows
    for frame in range(tracker.frame + 1, scene.n_frames + 1):
        anchors, n_tracks = tracker._live_anchors()
        tracking = [True] * n_tracks + [False] * (len(anchors) - n_tracks)
        draws = _frame_draws(scene, frame, anchors, tracking, ns, oracle_cfg)
        boxes, scores = _render_layer(draws, scale)
        yield tracker._advance(scores, lambda sets: boxes[sets])


def track_scene(
    scene: Scene,
    tracker_cfg: TrackerConfig,
    oracle_cfg: OracleConfig,
) -> Tracklets:
    """Run the oracle-fed tracker over a whole scene.  The oracle seed also
    seeds the tracker's query bank, so one seed pins the entire run."""
    tracker = ShadowTracker(tracker_cfg, seed=oracle_cfg.seed)
    tracklets = Tracklets()
    for result in _tracked_frames(scene, tracker, oracle_cfg):
        for identity, box, score in result.outputs:
            tracklets.add(identity, result.frame, box, score)
    return tracklets
