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
from dataclasses import asdict, dataclass, fields
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import _MODULES
from .config import (_MAX_SCALE, _SCHEMA, _check_choice, _check_range, _check_spread, _float,
                     _int, _name_keys, _parse_occlusions)
from .geometry import BoundingBox, _corners, _iou, _rows
from .matching import ClassScores
from .mot_io import MotRows, Tracklets, _tracklets_of
from .shadow import ShadowSet
from .tracker import ShadowTracker, TrackerConfig, _Emitted

if TYPE_CHECKING:
    from .assignment import FrameGroundTruth, GroundTruthObject

__all__ = _MODULES["simulator"]

_SCHEDULES = ("all-at-start", "uniform")

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
    schedule: str = "all-at-start"
    jitter: float = 0.0
    occlusions: tuple[tuple[int, int, int], ...] = ()
    image_width: int = 1920
    image_height: int = 1080
    seed: int = 0

    def __post_init__(self) -> None:
        # each message starts with the field it is about, e.g.
        # "n_frames: must be >= 1, got 0", so that readers of a scene
        # document or a config file can put their own prefix on it
        _check_range("n_frames", self.n_frames, 1, 100000)
        _check_range("n_objects", self.n_objects, 0, 10000)
        _check_choice("schedule", self.schedule, _SCHEDULES)
        _check_spread("jitter", self.jitter)
        _check_range("image_width", self.image_width, 1, 100000)
        _check_range("image_height", self.image_height, 1, 100000)
        _check_range("seed", self.seed, 0)
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
        # the bound on the work of a scene: one box per object and frame
        if self.n_frames * self.n_objects > 1000000:
            raise ValueError(f"n_frames * n_objects: must be <= 1000000, "
                             f"got {self.n_frames} * {self.n_objects}")

    def to_json(self) -> dict:
        return {**asdict(self), "occlusions": [list(o) for o in self.occlusions]}

    @classmethod
    def from_json(cls, doc: dict) -> "SceneConfig":
        """Parse the ``config`` object of a scene document; a value of the
        wrong type (checked exactly, as json.loads makes them) or out of
        range is a ValueError that names its key, e.g.
        ``config.n_frames: expected an integer, got 'x'`` or
        ``config.n_frames: must be >= 1, got 0``."""
        if not isinstance(doc, dict):
            raise ValueError("config: expected an object")
        # each key's JSON type follows its converter in the config schema
        converters = {f.name: (_SCHEMA.get("scene." + f.name) or _SCHEMA[f.name])[0]
                      for f in fields(cls)}
        unknown = set(doc) - converters.keys()
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        for key in ("n_frames", "n_objects"):
            _key(doc, key, "config")
        kwargs = dict(doc)
        for key, value in doc.items():
            path = f"config.{key}"
            convert = converters[key]
            if convert is _parse_occlusions:
                for n, window in enumerate(_list(value, path)):
                    if not (type(window) is list and len(window) == 3
                            and all(type(v) is int for v in window)):
                        raise ValueError(
                            f"{path}[{n}]: expected a list of 3 integers, got {window!r}"
                        )
                kwargs[key] = tuple(tuple(w) for w in value)
            elif type(value) not in _JSON_TYPES[convert][0]:
                raise ValueError(f"{path}: expected {_JSON_TYPES[convert][1]}, got {value!r}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(_name_keys(str(exc), lambda name: "config." + name)) from None


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
        _check_range("seed", self.seed, 0)
        _check_spread("box_noise_std", self.box_noise_std, _MAX_SCALE)
        for name in ("base_score", "occ_drop", "p_corrupt", "fp_rate", "fp_score"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1], got {v!r}")
        if not 0.0 <= self.refinement < 1.0:
            raise ValueError(f"refinement: must lie in [0, 1), got {self.refinement!r}")


class Scene:
    """Ground truth: per-identity frame states plus the generating config,
    made by ``generate_scene`` or ``Scene.from_json``.

    The states are held as rows sorted by (frame, id): each row's frame,
    its identity as an index into the sorted identity list, its box
    ``(cx, cy, w, h)`` as a row of one ``[n, 4]`` array, and its
    visibility.  The identity list also keeps identities with no frames.
    """

    @classmethod
    def _of_rows(cls, config: SceneConfig, identities: list[int], frames: np.ndarray,
                 codes: np.ndarray, boxes: np.ndarray, visible: np.ndarray) -> "Scene":
        """The scene of checked rows in any order, whose ``codes`` index the
        sorted ``identities``."""
        scene = cls.__new__(cls)
        order = np.lexsort((codes, frames))
        scene.config = config
        scene._identities = tuple(identities)
        scene._frames = frames[order]
        scene._codes = codes[order]
        scene._boxes = boxes[order]
        scene._visible = visible[order]
        # frame t's rows are _bounds[t - 1]:_bounds[t]
        scene._bounds = np.searchsorted(scene._frames, np.arange(1, config.n_frames + 2))
        return scene

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scene):
            return NotImplemented
        return (self.config == other.config and self._identities == other._identities
                and np.array_equal(self._frames, other._frames)
                and np.array_equal(self._codes, other._codes)
                and np.array_equal(self._boxes, other._boxes)
                and np.array_equal(self._visible, other._visible))

    @property
    def n_frames(self) -> int:
        return self.config.n_frames

    def _by_identity(self) -> list[tuple[int, list[tuple[int, list[float], bool]]]]:
        """Each identity with its ``(t, box, visible)`` states in frame order."""
        order = np.lexsort((self._frames, self._codes))
        counts = np.bincount(self._codes, minlength=len(self._identities)).tolist()
        states = zip(self._frames[order].tolist(), self._boxes[order].tolist(),
                     self._visible[order].tolist())
        return [(identity, list(islice(states, n))) for identity, n in zip(self._identities, counts)]

    def _span(self, frame: int) -> slice:
        """The rows of ``frame``; none outside [1, n_frames]."""
        if not 1 <= frame <= self.n_frames:
            return slice(0, 0)
        return slice(*self._bounds[frame - 1:frame + 1].tolist())

    def visible_objects(self, frame: int) -> tuple[GroundTruthObject, ...]:
        """The visible objects of ``frame``, in identity order as its rows are."""
        # training targets load the assignment module only when asked for
        from .assignment import GroundTruthObject

        rows = self._span(frame)
        shown = self._visible[rows]
        return tuple(
            GroundTruthObject(identity=self._identities[code], box=BoundingBox(*box))
            for code, box in zip(self._codes[rows][shown].tolist(), self._boxes[rows][shown].tolist())
        )

    def _gt_rows(self) -> MotRows:
        """The visible rows as ground truth, each with score 1.0, which
        ``simulate`` writes and ``ablate`` scores against; occluded rows
        are skipped, since an occluded object is not an evaluation
        target."""
        visible = self._visible
        ids = [self._identities[code] for code in self._codes[visible].tolist()]
        return MotRows(self._frames[visible].tolist(), ids, self._boxes[visible], [1.0] * len(ids))

    def gt_tracklets(self) -> Tracklets:
        """Ground truth as tracklets: the tracklets of ``_gt_rows``."""
        return _tracklets_of(self._gt_rows())

    def to_json(self) -> dict:
        return {
            "version": SCENE_JSON_VERSION,
            "config": self.config.to_json(),
            "tracks": [
                {"id": identity,
                 "frames": [{"t": t, "box": box, "visible": visible} for t, box, visible in states]}
                for identity, states in self._by_identity()
            ],
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2) + "\\n"``, one template per
        frame.  Box components are floats, and ``json`` writes each with
        ``float.__repr__``."""
        r = float.__repr__
        tracks = [
            _TRACK_JSON % (identity, _json_list([
                _FRAME_JSON % (t, r(cx), r(cy), r(w), r(h), "true" if visible else "false")
                for t, (cx, cy, w, h), visible in states
            ], "      "))
            for identity, states in self._by_identity()
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
        or ``tracks[0]: unknown keys ['junk']``.  One pass reads the tracks
        frame by frame into rows, ``_read_tracks``, and builds no box object
        unless a box fails its range test and its defect must be named."""
        if not isinstance(doc, dict):
            raise ValueError(f"scene document: expected an object, got {type(doc).__name__}")
        version = doc.get("version")
        if type(version) is not int or version != SCENE_JSON_VERSION:
            raise ValueError(f"unsupported scene document version {version!r}")
        unknown = set(doc) - {"version", "config", "tracks"}
        if unknown:
            raise ValueError(f"unknown scene document keys: {sorted(unknown)}")
        config = SceneConfig.from_json(_key(doc, "config", "scene document"))
        entries = _list(_key(doc, "tracks", "scene document"), "tracks")
        return cls._of_rows(config, *_read_tracks(entries, config.n_frames))


def _frame_problem(frames: list[int], n_frames: int) -> Optional[str]:
    """What is wrong with one document track's frame indices, their order
    before their range; None when they strictly increase within [1, n_frames]."""
    if frames != sorted(set(frames)):
        return "frame indices must strictly increase"
    if frames and (frames[0] < 1 or frames[-1] > n_frames):
        return f"frames outside [1, {n_frames}]"
    return None


def _read_tracks(entries: list, n_frames: int) -> tuple:
    """The identities and the frame, identity index, box and visibility
    rows of a scene document's ``tracks`` list, read in one pass: the first
    defect raises, with its path and what is wrong.  A track's frame order
    and range raise only once every frame of every track has passed."""
    # each track's identity and its number of frames, in document order
    counts: dict[int, int] = {}
    ts: list[int] = []
    values: list[float] = []
    visible: list[bool] = []
    frame_error = None
    # every frame is checked inline, by exact type: json.loads makes
    # exactly dict, list, str, int, float and bool
    for n, entry in enumerate(entries):
        if type(entry) is not dict or entry.keys() != _TRACK_KEYS:
            _check_keys(entry, ("id", "frames"), f"tracks[{n}]")
        identity, frames = entry["id"], entry["frames"]
        if type(identity) is not int:
            raise ValueError(f"tracks[{n}].id: expected an integer, got {identity!r}")
        _check_range(f"tracks[{n}].id", identity, 1)
        if identity in counts:
            raise ValueError(f"tracks[{n}].id: duplicate id {identity}")
        if type(frames) is not list:
            raise ValueError(f"tracks[{n}].frames: expected a list")
        first = len(ts)
        for m, f in enumerate(frames):
            if type(f) is not dict or f.keys() != _FRAME_KEYS:
                _check_keys(f, ("t", "box", "visible"), f"tracks[{n}].frames[{m}]")
            t, box, shown = f["t"], f["box"], f["visible"]
            if type(t) is not int:
                raise ValueError(f"tracks[{n}].frames[{m}].t: expected an integer, got {t!r}")
            if type(box) is not list or not _NUMBER_TYPES.issuperset(map(type, box)):
                raise ValueError(
                    f"tracks[{n}].frames[{m}].box: expected a list of 4 numbers, got {box!r}"
                )
            if len(box) != 4:
                raise ValueError(f"tracks[{n}].frames[{m}].box: expected 4 numbers, got {len(box)}")
            cx, cy, w, h = box
            # one test of a valid box on the document's numbers, which NaN,
            # infinities, a negative extent and a component past the bound
            # fail; only a failure runs the code that names the defect
            if not (-_MAX_SCALE <= cx <= _MAX_SCALE and -_MAX_SCALE <= cy <= _MAX_SCALE
                    and 0 <= w <= _MAX_SCALE and 0 <= h <= _MAX_SCALE):
                try:
                    BoundingBox(*map(float, box))
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"tracks[{n}].frames[{m}].box: {exc}") from None
                _check_range(f"tracks[{n}].frames[{m}].box", max(box, key=abs),
                             -_MAX_SCALE, _MAX_SCALE)
            if type(shown) is not bool:
                raise ValueError(
                    f"tracks[{n}].frames[{m}].visible: expected true or false, got {shown!r}"
                )
            ts.append(t)
            values.extend(box)
            visible.append(shown)
        counts[identity] = len(frames)
        if frame_error is None:
            problem = _frame_problem(ts[first:], n_frames)
            if problem:
                frame_error = f"tracks[{n}]: {problem}"
    if frame_error:
        raise ValueError(frame_error)
    identities = sorted(counts)
    code = {identity: k for k, identity in enumerate(identities)}
    codes = np.repeat(np.array([code[identity] for identity in counts], dtype=np.intp),
                      list(counts.values()))
    return (identities, np.array(ts, dtype=np.int64), codes,
            np.array(values, dtype=float).reshape(-1, 4), np.array(visible, dtype=bool))


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
# converter of a config key -> the exact types json.loads makes of its
# values, and their name in an error
_JSON_TYPES = {_int: ({int}, "an integer"), _float: (_NUMBER_TYPES, "a number"),
               str: ({str}, "a string")}


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
    """Fold a center coordinate back into [half, 1-half], for ``half <
    0.5``; returns the new coordinate and the velocity sign flip (+1 or -1)."""
    lo, hi = half, 1.0 - half
    flip = 1.0
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

    frames: list[int] = []
    codes: list[int] = []
    boxes: list[float] = []
    visible: list[bool] = []
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
        hidden = occluded.get(identity, ())
        for t in range(first, cfg.n_frames + 1):
            if t > first:
                jx, jy = (rng.normal(0.0, cfg.jitter, size=2) if cfg.jitter > 0 else (0.0, 0.0))
                cx, fx = _reflect(cx + vx + float(jx), w / 2)
                cy, fy = _reflect(cy + vy + float(jy), h / 2)
                vx *= fx
                vy *= fy
            boxes += (cx, cy, w, h)
            visible.append(t not in hidden)
        frames += range(first, cfg.n_frames + 1)
        codes += [identity - 1] * (cfg.n_frames + 1 - first)
    return Scene._of_rows(
        cfg, list(range(1, cfg.n_objects + 1)), np.array(frames, dtype=np.int64),
        np.array(codes, dtype=np.intp), np.array(boxes).reshape(-1, 4), np.array(visible, dtype=bool),
    )


def emit_training_targets(
    scene: Scene, frame: int, track_ids: Sequence[int]
) -> FrameGroundTruth:
    """This frame's visible objects split into tracked vs newborn against
    the live track list."""
    from .assignment import FrameGroundTruth

    _check_range("frame", frame, 1, scene.n_frames)
    return FrameGroundTruth.partition(scene.visible_objects(frame), track_ids)


def _claim(overlaps: np.ndarray, passes: np.ndarray) -> dict[int, int]:
    """Greedy one-to-one claim of the columns of ``overlaps`` by its rows,
    as row -> column: best overlap first, ties to the lower row and then
    the lower column, among the pairs where ``passes``, none of them NaN.
    ``np.nonzero`` lists the pairs row by row and the stable sort keeps
    that order among equal overlaps, which is the order of a sort of
    ``(-overlap, row, column)`` tuples.  It stops once every row or every
    column is claimed."""
    rows, cols = np.nonzero(passes)
    order = np.argsort(-overlaps[rows, cols], kind="stable")
    claims: dict[int, int] = {}
    taken: set[int] = set()
    most = min(overlaps.shape)
    for r, k in zip(rows[order].tolist(), cols[order].tolist()):
        if r not in claims and k not in taken:
            claims[r] = k
            taken.add(k)
            if len(claims) == most:
                break
    return claims


class _FrameDraws(NamedTuple):
    """One frame's draws for ``S`` sets of ``ns`` shadows each.  Per set:
    the box ``[S, 4]`` it is served where ``served`` and else emits.  Per
    shadow: the score ``[S, ns]`` of every layer, its set's base score or
    0.0 where the shadow is corrupted, and the unscaled box noise
    ``eps[S, ns, 4]``.

    Draws that stop at a bound (see ``_frame_draws``) hold for each set
    past it, none of them served: its anchor as its box, scores 0.0 and
    zero noise.  Those scores are what the full draws give it too, and its
    box is one no gate lets the tracker read."""

    box: np.ndarray
    served: np.ndarray
    scores: np.ndarray
    eps: np.ndarray


def _set_arrays(live_sets: Sequence[ShadowSet]) -> tuple[np.ndarray, np.ndarray, int]:
    """The anchors ``[S, 4]``, tracking flags ``[S]`` and shared shadow count of sets."""
    counts = {s.n_shadows for s in live_sets}
    if len(counts) > 1:
        raise ValueError(f"sets disagree on shadow count: {sorted(counts)}")
    return (
        _rows([s.anchor for s in live_sets]),
        np.array([s.role == "tracking" for s in live_sets], dtype=bool),
        counts.pop() if counts else 1,
    )


def _frame_draws(
    scene: Scene,
    frame: int,
    anchors: np.ndarray,
    tracking: np.ndarray,
    ns: int,
    cfg: OracleConfig,
    bounded: bool = False,
) -> _FrameDraws:
    """Everything random about one frame for the sets with ``anchors[S, 4]``,
    ``tracking`` roles and ``ns`` shadows each, drawn in a fixed order:
    claims and association first (no draws), then every shadow's
    corruption flag from the corruption stream, then per set its box noise
    and, when it has no target, a false-positive coin and a fallback box
    (detection sets) or four discarded doubles (tracking sets, which fall
    back to their anchor).  The claims fill one array of served rows,
    ``target[S]``, from which the role masks and the unclaimed objects
    follow as array operations, with no per-set bookkeeping.

    ``bounded`` stops the per-set draws after the last set whose draws a
    score can read: the last served set, or, when ``fp_rate > 0``, the
    later of it and the last free detection set.  Every value drawn is
    the one the full draws give it, since the frame seeds its own streams
    and a set's draws follow only those of the sets before it.  Every set
    past the bound is unserved and scores 0.0 either way: a lost track
    reads none of its draws, and a free detection set's coin
    ``u < fp_rate`` never holds at ``fp_rate == 0``.  A score row of 0.0
    fails ``> tau`` under every reduction, as ``tau >= 0``, so the tracker
    never asks for the box of such a set."""
    _check_range("frame", frame, 1, scene.n_frames)

    frame_rng = np.random.default_rng([cfg.seed, _STREAM_ORACLE, frame])
    corrupt_rng = np.random.default_rng([cfg.seed, _STREAM_CORRUPT, frame])

    rows = scene._span(frame)
    present = scene._boxes[rows]
    visible = scene._visible[rows]
    n_sets = len(tracking)
    # the row of ``present`` each set is served, -1 when it is unserved
    target = np.full(n_sets, -1)
    unclaimed = visible.copy()

    # tracking sets recognize their target by anchor overlap, not by the
    # tracker's identity counter (identities diverge from scene ids as
    # soon as a track dies or objects enter out of order); the gate is
    # any positive overlap because one frame of motion can drop a small
    # box below IoU 0.5 even without noise
    sets = np.flatnonzero(tracking)
    if len(present) and len(sets):
        overlaps, _ = _iou(_corners(anchors[sets]), _corners(present))
        claims = _claim(overlaps, overlaps > 0.0)
        target[sets[list(claims)]] = list(claims.values())
        unclaimed[list(claims.values())] = False

    sets = np.flatnonzero(~tracking)
    objs = np.flatnonzero(unclaimed)
    if len(objs) and len(sets):
        overlaps, _ = _iou(_corners(anchors[sets]), _corners(present[objs]))
        claims = _claim(overlaps, overlaps >= 0.5)
        target[sets[list(claims)]] = objs[list(claims.values())]
        free_sets = sets[target[sets] < 0]
        free_objs = np.delete(objs, list(claims.values()))[:len(free_sets)]
        target[free_sets[:len(free_objs)]] = free_objs

    served = target >= 0
    stop = n_sets
    if bounded:
        read = np.flatnonzero(served | ~tracking if cfg.fp_rate > 0 else served)
        stop = int(read[-1]) + 1 if len(read) else 0
    free = np.flatnonzero(~tracking[:stop] & ~served[:stop])
    base = np.where(served, cfg.base_score, 0.0)
    # a tracking set whose target is occluded scores lower
    recognized = np.flatnonzero(tracking & served)
    base[recognized[~visible[target[recognized]]]] = max(cfg.base_score - cfg.occ_drop, 0.0)

    # every shadow's corruption flag, in set order, in one call: no other
    # draw reads this stream
    corrupted = corrupt_rng.uniform(size=(n_sets, ns)) < cfg.p_corrupt

    # the box noise is one normal call per set, and a set without a target
    # draws right after its noise, so these calls stay one per set; each
    # writes into its row, and the doubles are mapped after the loop
    # (normal(0.0, std) is 0.0 + std * z of the same standard normal z)
    std = cfg.box_noise_std
    eps = np.zeros((n_sets, ns, 4))
    u = np.empty((len(free), 5))
    fallback = iter(u)
    for noise, hit, track in zip(eps[:stop], served[:stop].tolist(), tracking[:stop].tolist()):
        if std > 0:
            frame_rng.standard_normal(out=noise)
        if hit:
            continue
        if track:
            # a lost track emits its anchor; the stream still advances
            # past the fallback box it does not use
            frame_rng.random(4)
        else:
            frame_rng.random(out=next(fallback))
    if std > 0:
        eps = 0.0 + std * eps

    # every set starts from its anchor, which a lost track keeps
    box = anchors.copy()
    box[served] = present[target[served]]
    base[free] = np.where(u[:, 0] < cfg.fp_rate, cfg.fp_score, 0.0)
    box[free] = _FALLBACK_LO + (_FALLBACK_HI - _FALLBACK_LO) * u[:, 1:]
    return _FrameDraws(box, served, np.where(corrupted, 0.0, base[:, np.newaxis]), eps)


def _render_layer(draws: _FrameDraws, scale: float,
                  rows: slice | list[int] | np.ndarray = slice(None)) -> np.ndarray:
    """One decoder layer's per-shadow boxes ``[n, ns, 4]`` of the sets
    ``rows`` selects, every set by default, box noise scaled by ``scale``.
    Makes no draws, and each row's boxes are the bits that rendering every
    set gives that row.  The extent clamp is ``np.where(v < 0.0, 0.0, v)``,
    which keeps ``-0.0`` as ``max(v, 0.0)`` does and ``np.maximum`` does
    not."""
    box = draws.box[rows]
    boxes = box[:, np.newaxis] + draws.eps[rows] * scale
    extent = boxes[..., 2:]
    boxes[..., 2:] = np.where(extent < 0.0, 0.0, extent)
    return np.where(draws.served[rows][:, np.newaxis, np.newaxis], boxes, box[:, np.newaxis])


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
    _check_range("n_layers", n_layers, 1)
    draws = _frame_draws(scene, frame, *_set_arrays(live_sets), cfg)
    # a set without a target emits one box at every shadow and layer
    served = draws.served.tolist()
    fallback = [None if hit else BoundingBox(*row) for hit, row in zip(served, draws.box.tolist())]
    scores = draws.scores.tolist()
    layers = []
    for l in range(n_layers):
        boxes = _render_layer(draws, cfg.refinement ** l, draws.served)
        rendered = iter(boxes.reshape(-1, 4).tolist())
        layers.append([
            [(BoundingBox(*next(rendered)) if hit else miss, (score,)) for score in row]
            for hit, miss, row in zip(served, fallback, scores)
        ])
    return layers


def _live_layer(scene: Scene, tracker: ShadowTracker, frame: int, cfg: OracleConfig,
                layer: int) -> tuple[np.ndarray, np.ndarray]:
    """Decoder layer ``layer`` (1-based) at ``frame`` of the live sets of
    ``tracker``, tracks then bank, on the draws of every set: boxes
    ``[S, ns, 4]``, scores ``[S, ns]``."""
    draws = _frame_draws(scene, frame, *tracker._live_anchors(), tracker.config.shadow.n_shadows, cfg)
    return _render_layer(draws, cfg.refinement ** (layer - 1)), draws.scores


def _tracked_frames(
    scene: Scene, tracker: ShadowTracker, oracle_cfg: OracleConfig
) -> Iterator[_Emitted]:
    """Step ``tracker`` over ``scene`` from its next frame on, yielding what
    each frame emitted.  The final layer's arrays go straight into the
    tracker's lifecycle core: the scores of every set, and the boxes of
    only the sets that pass its gate.  Each frame's draws stop at the
    bound of ``_frame_draws``, which leaves every score and every box the
    gate lets through as the full draws give them, so the run emits what
    it emits on the full draws."""
    ns = tracker.config.shadow.n_shadows
    scale = oracle_cfg.refinement ** (tracker.config.n_layers - 1)
    for frame in range(tracker.frame + 1, scene.n_frames + 1):
        draws = _frame_draws(scene, frame, *tracker._live_anchors(), ns, oracle_cfg, bounded=True)
        yield tracker._advance(draws.scores, lambda sets: _render_layer(draws, scale, sets))


def _track_rows(scene: Scene, tracker_cfg: TrackerConfig, oracle_cfg: OracleConfig) -> MotRows:
    """The rows of a run of the oracle-fed tracker over a whole scene: the
    one run behind ``track_scene``, ``track`` and ``ablate``.  Each frame
    emits in ascending identity order, so the rows come sorted."""
    tracker = ShadowTracker(tracker_cfg, seed=oracle_cfg.seed)
    frames: list[int] = []
    ids: list[int] = []
    boxes = [np.zeros((0, 4))]
    scores = [np.zeros(0)]
    for emitted in _tracked_frames(scene, tracker, oracle_cfg):
        frames += [tracker.frame] * len(emitted.ids)
        ids += emitted.ids
        boxes.append(emitted.boxes)
        scores.append(emitted.scores)
    return MotRows(frames, ids, np.concatenate(boxes), np.concatenate(scores).tolist())


def track_scene(
    scene: Scene,
    tracker_cfg: TrackerConfig,
    oracle_cfg: OracleConfig,
) -> Tracklets:
    """Run the oracle-fed tracker over a whole scene.  The oracle seed also
    seeds the tracker's query bank, so one seed pins the entire run."""
    return _tracklets_of(_track_rows(scene, tracker_cfg, oracle_cfg))
