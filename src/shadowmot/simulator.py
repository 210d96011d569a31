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

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .assignment import FrameGroundTruth, GroundTruthObject
from .geometry import BoundingBox, pairwise
from .matching import ClassScores
from .shadow import ShadowSet
from .tracker import ShadowTracker, Tracklets, TrackerConfig

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
_FALLBACK_LO = (0.2, 0.2, 0.02, 0.02)
_FALLBACK_HI = (0.8, 0.8, 0.1, 0.1)


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
        if self.n_objects < 0:
            raise ValueError(f"n_objects: must be >= 0, got {self.n_objects}")
        if self.schedule not in ("all-at-start", "uniform"):
            raise ValueError(
                f"schedule: must be 'all-at-start' or 'uniform', got {self.schedule!r}"
            )
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValueError(f"jitter: must be finite and >= 0, got {self.jitter!r}")
        for name in ("image_width", "image_height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
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
        wrong type or out of range is a ValueError that names its key, e.g.
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
                if not isinstance(value, str):
                    raise ValueError(f"{path}: expected a string, got {value!r}")
            elif key == "jitter":
                if not _is_number(value):
                    raise ValueError(f"{path}: expected a number, got {value!r}")
            elif key == "occlusions":
                for n, window in enumerate(_list(value, path)):
                    if not (isinstance(window, list) and len(window) == 3
                            and all(_is_integer(v) for v in window)):
                        raise ValueError(
                            f"{path}[{n}]: expected a list of 3 integers, got {window!r}"
                        )
                kwargs[key] = tuple(tuple(w) for w in value)
            else:
                _integer(value, path)
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

    def first_frame(self, identity: int) -> int:
        return self.tracks[identity][0].t

    def states_at(self, frame: int) -> dict[int, SceneFrame]:
        return dict(self._states.get(frame, {}))

    def visible_objects(self, frame: int) -> tuple[GroundTruthObject, ...]:
        return tuple(
            GroundTruthObject(identity=i, box=s.box)
            for i, s in sorted(self.states_at(frame).items())
            if s.visible
        )

    def gt_tracklets(self, include_occluded: bool = False) -> Tracklets:
        """Ground truth as tracklets; occluded frames are skipped unless
        asked for, since an occluded object is not an evaluation target."""
        out = Tracklets()
        for identity in self.identities:
            for s in self.tracks[identity]:
                if s.visible or include_occluded:
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

    @classmethod
    def from_json(cls, doc: dict) -> "Scene":
        """Parse a scene document; any defect is a ValueError that names its
        path, e.g. ``tracks[0].frames[3].box: expected 4 numbers, got 3``."""
        if not isinstance(doc, dict):
            raise ValueError(f"scene document: expected an object, got {type(doc).__name__}")
        version = doc.get("version")
        if version != SCENE_JSON_VERSION:
            raise ValueError(f"unsupported scene document version {version!r}")
        unknown = set(doc) - {"version", "config", "tracks"}
        if unknown:
            raise ValueError(f"unknown scene document keys: {sorted(unknown)}")
        config = SceneConfig.from_json(_key(doc, "config", "scene document"))
        tracks: dict[int, tuple[SceneFrame, ...]] = {}
        for n, entry in enumerate(_list(_key(doc, "tracks", "scene document"), "tracks")):
            path = f"tracks[{n}]"
            identity = _integer(_key(entry, "id", path), f"{path}.id")
            if identity < 1:
                raise ValueError(f"{path}.id: must be >= 1, got {identity}")
            if identity in tracks:
                raise ValueError(f"{path}.id: duplicate id {identity}")
            states = []
            for m, f in enumerate(_list(_key(entry, "frames", path), f"{path}.frames")):
                fpath = f"{path}.frames[{m}]"
                t = _integer(_key(f, "t", fpath), f"{fpath}.t")
                box = _key(f, "box", fpath)
                if not isinstance(box, list) or not all(_is_number(v) for v in box):
                    raise ValueError(f"{fpath}.box: expected a list of 4 numbers, got {box!r}")
                if len(box) != 4:
                    raise ValueError(f"{fpath}.box: expected 4 numbers, got {len(box)}")
                try:
                    bbox = BoundingBox(*(float(v) for v in box))
                except ValueError as exc:
                    raise ValueError(f"{fpath}.box: {exc}") from None
                visible = _key(f, "visible", fpath)
                if not isinstance(visible, bool):
                    raise ValueError(f"{fpath}.visible: expected true or false, got {visible!r}")
                states.append(SceneFrame(t=t, box=bbox, visible=visible))
            tracks[identity] = tuple(states)
        try:
            return cls(config=config, tracks=tracks)
        except ValueError as exc:
            # the check names an identity; the document names its track,
            # the n-th in both
            where, _, problem = str(exc).partition(": ")
            n = list(tracks).index(int(where.removeprefix("identity ")))
            raise ValueError(f"tracks[{n}]: {problem}") from None


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


def _is_integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: object, path: str) -> int:
    if not _is_integer(value):
        raise ValueError(f"{path}: expected an integer, got {value!r}")
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
    if not 1 <= frame <= scene.n_frames:
        raise ValueError(f"frame {frame} outside [1, {scene.n_frames}]")
    return FrameGroundTruth.partition(scene.visible_objects(frame), track_ids)


def _claim(
    sets: Sequence[ShadowSet],
    boxes: Sequence[BoundingBox],
    gate: Callable[[np.ndarray], np.ndarray],
) -> dict[int, int]:
    """Greedy one-to-one claim of ``boxes`` by the anchors of ``sets``, as
    set index -> box index: best overlap first, ties to the lower set and
    then the lower box, among the pairs whose overlap passes ``gate``."""
    overlaps, _, _ = pairwise([s.anchor for s in sets], boxes)
    claims: dict[int, int] = {}
    taken: set[int] = set()
    for _, r, k in sorted(
        (-float(overlaps[r, k]), r, k) for r, k in np.argwhere(gate(overlaps)).tolist()
    ):
        if r not in claims and k not in taken:
            claims[r] = k
            taken.add(k)
    return claims


def _noisy_box(target: BoundingBox, eps: np.ndarray, scale: float) -> BoundingBox:
    return BoundingBox(
        target.cx + float(eps[0]) * scale,
        target.cy + float(eps[1]) * scale,
        max(target.w + float(eps[2]) * scale, 0.0),
        max(target.h + float(eps[3]) * scale, 0.0),
    )


class _SetDraws(NamedTuple):
    """One set's per-frame draws: the box it is served (None when it is
    unassociated), the unscaled per-shadow box noise, the per-shadow
    scores after corruption, and the box an unassociated set emits."""

    target: BoundingBox | None
    eps: np.ndarray
    scores: list[float]
    fallback: BoundingBox | None


def _frame_draws(
    scene: Scene,
    frame: int,
    live_sets: Sequence[ShadowSet],
    cfg: OracleConfig,
) -> list[_SetDraws]:
    """Everything random about one frame, drawn in a fixed order: claims
    and association first (no draws), then every shadow's corruption flag
    from the corruption stream, then per set its box noise and, when it
    has no target, a false-positive coin (detection sets only) and a
    fallback box."""
    if not 1 <= frame <= scene.n_frames:
        raise ValueError(f"frame {frame} outside [1, {scene.n_frames}]")

    frame_rng = np.random.default_rng([cfg.seed, _STREAM_ORACLE, frame])
    corrupt_rng = np.random.default_rng([cfg.seed, _STREAM_CORRUPT, frame])

    states = scene.states_at(frame)
    present = sorted(states.items())

    # tracking sets recognize their target by anchor overlap, not by the
    # tracker's identity counter (identities diverge from scene ids as
    # soon as a track dies or objects enter out of order); the gate is
    # any positive overlap because one frame of motion can drop a small
    # box below IoU 0.5 even without noise
    recognized: dict[int, SceneFrame] = {}
    claimed_ids: set[int] = set()
    trk_indices = [i for i, s in enumerate(live_sets) if s.role == "tracking"]
    if present and trk_indices:
        boxes = [st.box for _, st in present]
        claims = _claim([live_sets[i] for i in trk_indices], boxes, lambda ov: ov > 0.0)
        for r, k in claims.items():
            recognized[trk_indices[r]] = present[k][1]
            claimed_ids.add(present[k][0])

    unclaimed = [st.box for identity, st in present if st.visible and identity not in claimed_ids]

    det_indices = [i for i, s in enumerate(live_sets) if s.role == "detection"]
    association: dict[int, BoundingBox] = {}
    if unclaimed and det_indices:
        claims = _claim([live_sets[i] for i in det_indices], unclaimed, lambda ov: ov >= 0.5)
        for r, k in claims.items():
            association[det_indices[r]] = unclaimed[k]
        taken = set(claims.values())
        free_sets = [i for r, i in enumerate(det_indices) if r not in claims]
        free_objs = [k for k in range(len(unclaimed)) if k not in taken]
        for i, k in zip(free_sets, free_objs):
            association[i] = unclaimed[k]

    # every shadow's corruption flag, in set order, in one call: no other
    # draw reads this stream
    n_total = sum(set_.n_shadows for set_ in live_sets)
    flags = (corrupt_rng.uniform(size=n_total) < cfg.p_corrupt).tolist()

    draws: list[_SetDraws] = []
    start = 0
    for i, set_ in enumerate(live_sets):
        ns = set_.n_shadows
        eps = (
            frame_rng.normal(0.0, cfg.box_noise_std, size=(ns, 4))
            if cfg.box_noise_std > 0
            else np.zeros((ns, 4))
        )
        corrupted = flags[start:start + ns]
        start += ns

        target: BoundingBox | None = None
        fallback: BoundingBox | None = None
        base = 0.0
        if set_.role == "tracking":
            st = recognized.get(i)
            if st is not None:
                target = st.box
                base = cfg.base_score - (0.0 if st.visible else cfg.occ_drop)
                base = max(base, 0.0)
            else:
                # a lost track emits its anchor; the stream still advances
                # past the fallback box it does not use
                frame_rng.random(4)
                fallback = set_.anchor
        elif i in association:
            target = association[i]
            base = cfg.base_score
        else:
            coin, *u = frame_rng.random(5).tolist()
            if coin < cfg.fp_rate:
                base = cfg.fp_score
            fallback = BoundingBox(
                *(lo + (hi - lo) * v for lo, hi, v in zip(_FALLBACK_LO, _FALLBACK_HI, u))
            )

        scores = [0.0 if c else base for c in corrupted]
        draws.append(_SetDraws(target, eps, scores, fallback))
    return draws


def _render_layer(
    draws: Sequence[_SetDraws], scale: float
) -> list[list[tuple[BoundingBox, ClassScores]]]:
    """One decoder layer's [set][shadow] predictions, box noise scaled by
    ``scale``.  Makes no draws."""
    return [
        [
            (_noisy_box(d.target, d.eps[j], scale) if d.target is not None else d.fallback,
             (score,))
            for j, score in enumerate(d.scores)
        ]
        for d in draws
    ]


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
    score corruption is shared across layers.
    """
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    draws = _frame_draws(scene, frame, live_sets, cfg)
    return [_render_layer(draws, cfg.refinement ** l) for l in range(n_layers)]


def track_scene(
    scene: Scene,
    tracker_cfg: TrackerConfig,
    oracle_cfg: OracleConfig,
) -> Tracklets:
    """Run the oracle-fed tracker over a whole scene.  The oracle seed also
    seeds the tracker's query bank, so one seed pins the entire run."""
    tracker = ShadowTracker(tracker_cfg, seed=oracle_cfg.seed)
    # only the final layer reaches the tracker, so only it is rendered
    scale = oracle_cfg.refinement ** (tracker_cfg.n_layers - 1)

    def provider(frame: int, live: list[ShadowSet]):
        return _render_layer(_frame_draws(scene, frame, live, oracle_cfg), scale)

    return tracker.run(scene.n_frames, provider)
