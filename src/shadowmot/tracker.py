"""Inference-time track lifecycle over shadow-set predictions.

Each frame the tracker consumes final-layer predictions for every live set,
gates each set on the reduced score of its shadows, emits identity-stamped
boxes from the best shadow, promotes confident detection sets to tracks
(births), and drops tracks that stay below threshold past their patience.
The whole shadow set survives promotion and frame hand-off, not just the
best member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .geometry import BoundingBox, _rows
from .matching import ClassScores
from .shadow import ShadowConfig, ShadowSet, init_query_bank, reduce_values

__all__ = [
    "AssignmentMode",
    "TrackerConfig",
    "FrameResult",
    "ShadowTracker",
    "SetPredictions",
]

AssignmentMode = Literal["tala", "cola"]

# Final-layer predictions for one frame: outer index parallels live_sets(),
# inner index runs over the shadows of that set.
SetPredictions = Sequence[Sequence[tuple[BoundingBox, ClassScores]]]


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker knobs.  ``assignment_mode`` picks the training-target
    policy (TALA or COLA) that ``assign-debug`` reports.  Tracking never
    reads it: no ``track`` or ``ablate`` output depends on it."""

    shadow: ShadowConfig = field(default_factory=ShadowConfig)
    n_layers: int = 6
    n_detection_sets: int = 60
    patience: int = 0
    assignment_mode: AssignmentMode = "cola"

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError(f"n_layers: must be >= 1, got {self.n_layers}")
        if self.n_layers > 64:
            raise ValueError(f"n_layers: must be <= 64, got {self.n_layers}")
        if self.n_detection_sets < 1:
            raise ValueError(f"n_detection_sets: must be >= 1, got {self.n_detection_sets}")
        if self.n_detection_sets > 10000:
            raise ValueError(f"n_detection_sets: must be <= 10000, got {self.n_detection_sets}")
        if self.patience < 0:
            raise ValueError(f"patience: must be >= 0, got {self.patience}")
        if self.assignment_mode not in ("tala", "cola"):
            raise ValueError(f"assignment_mode: must be 'tala' or 'cola', got {self.assignment_mode!r}")


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


class ShadowTracker:
    """Single-sequence state machine.  Frames are 1-based; identities are
    drawn from a monotone counter and never reused.

    The live tracks are held as arrays: one anchor row per track in
    ``[T, 4]``, with its identity and miss count.  The fixed detection bank
    is one ``[D, 4]`` anchor array.  Each frame the lifecycle core reads the
    final-layer shadow scores ``[T + D, ns]`` of the tracks, then the bank,
    and the boxes ``[ns, 4]`` of the sets that pass the gate.  The
    commands feed it arrays through ``simulator``; ``step`` turns object
    predictions into those arrays for library callers, and ``live_sets``
    builds the sets only when asked.
    """

    def __init__(self, config: TrackerConfig, seed: int) -> None:
        self.config = config
        self._detection_bank = init_query_bank(config.n_detection_sets, config.shadow, seed)
        self._bank_anchors = _rows([s.anchor for s in self._detection_bank])
        self._anchors = np.zeros((0, 4))
        self._identities: list[int] = []
        self._misses: list[int] = []
        self._next_identity = 1
        self._frame = 0

    @property
    def frame(self) -> int:
        return self._frame

    @property
    def track_identities(self) -> tuple[int, ...]:
        return tuple(self._identities)

    def live_sets(self) -> list[ShadowSet]:
        """Sets expecting predictions this frame: current tracks first,
        then the full detection bank (refreshed every frame boundary)."""
        ns = self.config.shadow.n_shadows
        tracks = [
            ShadowSet(set_id=identity, role="tracking", anchor=BoundingBox(*anchor),
                      n_shadows=ns, identity=identity)
            for identity, anchor in zip(self._identities, self._anchors.tolist())
        ]
        return tracks + list(self._detection_bank)

    def _live_anchors(self) -> tuple[np.ndarray, int]:
        """The anchors ``[T + D, 4]`` of the live sets and the track count."""
        return np.concatenate([self._anchors, self._bank_anchors]), len(self._identities)

    def step(self, predictions: SetPredictions) -> FrameResult:
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
        return self._advance(
            scores.reshape(n_sets, ns),
            lambda sets: _rows([b for i in sets for b, _ in predictions[i]]).reshape(-1, ns, 4),
        )

    def _advance(
        self, scores: np.ndarray, boxes_of: Callable[[list[int]], np.ndarray]
    ) -> FrameResult:
        """The lifecycle core: gate every live set on its reduced shadow
        scores ``[T + D, ns]``, emit the best shadow of each set that
        passes, promote the bank sets that pass, and drop tracks past their
        patience.  ``boxes_of(sets)`` gives the final-layer boxes
        ``[len(sets), ns, 4]`` of the listed live sets; it is asked only for
        the sets that pass."""
        self._frame += 1
        cfg = self.config
        phi, tau = cfg.shadow.score_reduction, cfg.shadow.tau
        if phi == "mean":
            # fsum rounds the sum once where np.mean need not; shadow scores take
            # few values, so each distinct row is reduced once
            rows = [tuple(row) for row in scores.tolist()]
            means = {row: reduce_values(row, phi) for row in set(rows)}
            alive = np.array([means[row] > tau for row in rows], dtype=bool)
        else:
            alive = (scores.min(axis=1) if phi == "min" else scores.max(axis=1)) > tau

        n_tracks = len(self._identities)
        hits: list[int] = []
        kept: list[int] = []
        misses: list[int] = []
        deaths: list[int] = []
        for i, on in enumerate(alive[:n_tracks].tolist()):
            miss = 0 if on else self._misses[i] + 1
            if on:
                hits.append(i)
            if miss > cfg.patience:
                deaths.append(self._identities[i])
            else:
                kept.append(i)
                misses.append(miss)
        newborn = (np.flatnonzero(alive[n_tracks:]) + n_tracks).tolist()
        births = list(range(self._next_identity, self._next_identity + len(newborn)))
        self._next_identity += len(newborn)
        emitted = hits + newborn
        out_ids = [self._identities[i] for i in hits] + births

        boxes = boxes_of(emitted)

        # the oracle serves a set next frame by the box of its first shadow
        anchors = self._anchors.copy()
        anchors[hits] = boxes[:len(hits), 0]
        self._anchors = np.concatenate([anchors[kept], boxes[len(hits):, 0]])
        self._identities = [self._identities[i] for i in kept] + births
        self._misses = misses + [0] * len(newborn)

        # argmax takes the lowest shadow index among equal scores
        best = scores[emitted].argmax(axis=1)
        outputs = tuple(
            (identity, BoundingBox(*box), score)
            for identity, box, score in zip(
                out_ids,
                boxes[np.arange(len(emitted)), best].tolist(),
                scores[emitted, best].tolist(),
            )
        )
        return FrameResult(
            frame=self._frame,
            outputs=outputs,
            births=tuple(births),
            deaths=tuple(deaths),
        )
