"""Inference-time track lifecycle over shadow-set predictions.

Each frame the tracker consumes final-layer predictions for every live set,
gates each set on the reduced score of its shadows, emits identity-stamped
boxes from the best shadow, promotes confident detection sets to tracks
(births), and drops tracks that stay below threshold past their patience.
The whole shadow set survives promotion and frame hand-off, not just the
best member.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _MODULES
from .config import _check_choice, _check_range
from .geometry import BoundingBox, _rows
from .matching import ClassScores
from .shadow import ShadowConfig, ShadowSet, init_query_bank, reduce_values

__all__ = _MODULES["tracker"]

_MODES = ("tala", "cola")


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker knobs.  ``assignment_mode`` picks the training-target
    policy (TALA or COLA) that ``assign-debug`` reports.  Tracking never
    reads it: no ``track`` or ``ablate`` output depends on it."""

    shadow: ShadowConfig = field(default_factory=ShadowConfig)
    n_layers: int = 6
    n_detection_sets: int = 60
    patience: int = 0
    assignment_mode: str = "cola"

    def __post_init__(self) -> None:
        _check_range("n_layers", self.n_layers, 1, 64)
        _check_range("n_detection_sets", self.n_detection_sets, 1, 10000)
        _check_range("patience", self.patience, 0)
        # the bound on the live tracks of a run: a track nothing serves dies
        # after patience misses, so false positives born from the bank hold
        # at most n_detection_sets * (patience + 1) tracks alive
        if self.n_detection_sets * self.patience > 1000000:
            raise ValueError(f"n_detection_sets * patience: must be <= 1000000, "
                             f"got {self.n_detection_sets} * {self.patience}")
        _check_choice("assignment_mode", self.assignment_mode, _MODES)

    def run_key(self) -> TrackerConfig:
        """This config with the reductions a tracking run cannot see set to
        one value: the training cost reduction and, with one shadow, the
        gate's (the min, max and fsum mean of one score are that score)."""
        shadow = replace(self.shadow, cost_reduction="max")
        if shadow.n_shadows == 1:
            shadow = replace(shadow, score_reduction="min")
        return replace(self, shadow=shadow)


@dataclass(frozen=True)
class FrameResult:
    """What one step produced: emitted boxes plus lifecycle events."""

    frame: int
    outputs: tuple[tuple[int, BoundingBox, float], ...]
    births: tuple[int, ...] = ()
    deaths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ids = [i for i, _, _ in self.outputs]
        if len(ids) != len(set(ids)):
            raise ValueError("output identities must be unique within a frame")
        if not set(self.births) <= set(ids):
            raise ValueError("every birth must emit an output this frame")


class _Emitted(NamedTuple):
    """What one frame of the lifecycle core emitted: the identities, in
    ascending order, and the best shadow's box ``[n, 4]`` and score
    ``[n]`` of each, with the births and deaths."""

    ids: list[int]
    boxes: np.ndarray
    scores: np.ndarray
    births: tuple[int, ...]
    deaths: tuple[int, ...]


class ShadowTracker:
    """Single-sequence state machine.  Frames are 1-based; identities are
    drawn from a monotone counter and never reused.

    The live tracks are held as arrays: anchors ``[T, 4]``, identities
    and miss counts ``[T]``.  The fixed detection bank is one ``[D, 4]``
    anchor array.  Each frame the lifecycle core reads the final-layer
    shadow scores ``[T + D, ns]`` of the tracks, then the bank, and the
    boxes ``[ns, 4]`` of the sets that pass the gate.  The
    commands feed it arrays through ``simulator``; ``step`` turns object
    predictions into those arrays for library callers, and ``live_sets``
    builds the sets only when asked.
    """

    def __init__(self, config: TrackerConfig, seed: int) -> None:
        self.config = config
        self._detection_bank = init_query_bank(config.n_detection_sets, config.shadow, seed)
        self._bank_anchors = _rows([s.anchor for s in self._detection_bank])
        self._anchors = np.zeros((0, 4))
        self._identities = np.zeros(0, dtype=np.int64)
        self._misses = np.zeros(0, dtype=np.int64)
        self._next_identity = 1
        self._frame = 0

    @property
    def frame(self) -> int:
        return self._frame

    @property
    def track_identities(self) -> tuple[int, ...]:
        return tuple(self._identities.tolist())

    def live_sets(self) -> list[ShadowSet]:
        """Sets expecting predictions this frame: current tracks first,
        then the full detection bank (refreshed every frame boundary)."""
        ns = self.config.shadow.n_shadows
        tracks = [
            ShadowSet(set_id=identity, role="tracking", anchor=BoundingBox(*anchor),
                      n_shadows=ns, identity=identity)
            for identity, anchor in zip(self._identities.tolist(), self._anchors.tolist())
        ]
        return tracks + list(self._detection_bank)

    def _live_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """The anchors ``[T + D, 4]`` of the live sets and their tracking
        flags ``[T + D]``, true for the tracks."""
        anchors = np.concatenate([self._anchors, self._bank_anchors])
        return anchors, np.arange(len(anchors)) < len(self._identities)

    def step(self, predictions: Sequence[Sequence[tuple[BoundingBox, ClassScores]]]) -> FrameResult:
        """One frame over ``[set][shadow]`` predictions of ``(box, class
        scores)`` in ``live_sets()`` order.  A shadow's confidence is its
        maximum class score."""
        n_sets = len(self._identities) + len(self._detection_bank)
        if len(predictions) != n_sets:
            raise ValueError(f"expected predictions for {n_sets} sets, got {len(predictions)}")
        ns = self.config.shadow.n_shadows
        for n, per_shadow in enumerate(predictions):
            if len(per_shadow) != ns:
                raise ValueError(
                    f"set {self.live_sets()[n].set_id}: expected {ns} shadow predictions, "
                    f"got {len(per_shadow)}"
                )
        scores = np.array(
            [max(s) for per_shadow in predictions for _, s in per_shadow], dtype=float
        )
        emitted = self._advance(
            scores.reshape(n_sets, ns),
            lambda sets: _rows([b for i in sets for b, _ in predictions[i]]).reshape(-1, ns, 4),
        )
        return FrameResult(
            frame=self._frame,
            outputs=tuple(zip(emitted.ids, [BoundingBox(*box) for box in emitted.boxes.tolist()],
                              emitted.scores.tolist())),
            births=emitted.births,
            deaths=emitted.deaths,
        )

    def _advance(
        self, scores: np.ndarray, boxes_of: Callable[[list[int]], np.ndarray]
    ) -> _Emitted:
        """The lifecycle core: gate every live set on its reduced shadow
        scores ``[T + D, ns]``, emit the best shadow of each set that
        passes, promote the bank sets that pass, and drop tracks past their
        patience.  ``boxes_of(sets)`` gives the final-layer boxes
        ``[len(sets), ns, 4]`` of the listed live sets; it is asked only for
        the sets that pass.  The tracks' misses, hits, deaths and survivors
        are array operations, with no per-track loop."""
        self._frame += 1
        cfg = self.config
        phi, tau = cfg.shadow.score_reduction, cfg.shadow.tau
        if phi == "mean":
            alive = _mean_gate(scores, tau)
        else:
            alive = (scores.min(axis=1) if phi == "min" else scores.max(axis=1)) > tau

        n_tracks = len(self._identities)
        on = alive[:n_tracks]
        misses = np.where(on, 0, self._misses + 1)
        dead = misses > cfg.patience
        hits = np.flatnonzero(on).tolist()
        newborn = (np.flatnonzero(alive[n_tracks:]) + n_tracks).tolist()
        births = np.arange(self._next_identity, self._next_identity + len(newborn))
        self._next_identity += len(newborn)
        emitted = hits + newborn
        out_ids = self._identities[hits].tolist() + births.tolist()

        boxes = boxes_of(emitted)

        # the oracle serves a set next frame by the box of its first shadow
        anchors = self._anchors.copy()
        anchors[hits] = boxes[:len(hits), 0]
        self._anchors = np.concatenate([anchors[~dead], boxes[len(hits):, 0]])
        deaths = tuple(self._identities[dead].tolist())
        self._identities = np.concatenate([self._identities[~dead], births])
        self._misses = np.concatenate([misses[~dead], np.zeros(len(newborn), dtype=np.int64)])

        # argmax takes the lowest shadow index among equal scores
        best = scores[emitted].argmax(axis=1)
        return _Emitted(out_ids, boxes[np.arange(len(emitted)), best], scores[emitted, best],
                        tuple(births.tolist()), deaths)


# the largest |score| and tau of a row that numpy's mean may gate: a sum of
# at most 64 such values stays far from overflow, in numpy and in fsum
_MEAN_GATE_MAX = 2.0 ** 960


def _mean_gate(scores: np.ndarray, tau: float) -> np.ndarray:
    """``reduce_values(row, "mean") > tau`` for every row of ``scores``
    ``[S, ns]``, raising what it raises.  numpy's mean of at most 64 values
    differs from the fsum mean by less than ``2**-46`` of the row's largest
    ``|score|`` plus ``2**-1074``, whatever order numpy sums in, so a row
    whose numpy mean lies farther than the margin below from ``tau`` takes
    that side of ``tau``.  Every other row, and every row with a non-finite
    score or one above ``_MEAN_GATE_MAX``, goes through ``reduce_values``."""
    with np.errstate(all="ignore"):
        approx = scores.mean(axis=1)
        scale = np.maximum(np.abs(scores).max(axis=1), abs(tau))
        sure = (scale <= _MEAN_GATE_MAX) & (
            np.abs(approx - tau) > 2.0 ** -40 * scale + 2.0 ** -1000)
    alive = approx > tau
    for i in np.flatnonzero(~sure).tolist():
        alive[i] = reduce_values(scores[i].tolist(), "mean") > tau
    return alive
