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
from typing import Callable, Iterator, Literal, NamedTuple, Sequence

from .geometry import BoundingBox
from .matching import ClassScores
from .shadow import ShadowConfig, ShadowSet, init_query_bank, reduce_values, select_output

__all__ = [
    "AssignmentMode",
    "TrackerConfig",
    "FrameResult",
    "Observation",
    "Tracklets",
    "ShadowTracker",
    "SetPredictions",
]

AssignmentMode = Literal["tala", "cola"]

# Final-layer predictions for one frame: outer index parallels live_sets(),
# inner index runs over the shadows of that set.
SetPredictions = Sequence[Sequence[tuple[BoundingBox, ClassScores]]]


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker knobs.  ``assignment_mode`` only affects which training
    targets are emitted alongside inference; the lifecycle itself is
    identical for both."""

    shadow: ShadowConfig = field(default_factory=ShadowConfig)
    n_layers: int = 6
    n_detection_sets: int = 60
    patience: int = 0
    assignment_mode: AssignmentMode = "cola"

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError(f"n_layers: must be >= 1, got {self.n_layers}")
        if self.n_detection_sets < 1:
            raise ValueError(f"n_detection_sets: must be >= 1, got {self.n_detection_sets}")
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


class Observation(NamedTuple):
    frame: int
    box: BoundingBox
    score: float


class Tracklets:
    """Identity-keyed trajectories: ordered (frame, box, score) triples.

    Frames must be appended in strictly increasing order per identity.
    """

    def __init__(self) -> None:
        self._tracks: dict[int, list[Observation]] = {}

    def add(self, identity: int, frame: int, box: BoundingBox, score: float = 1.0) -> None:
        track = self._tracks.setdefault(identity, [])
        if track and frame <= track[-1].frame:
            raise ValueError(
                f"frame {frame} not after frame {track[-1].frame} for identity {identity}"
            )
        track.append(Observation(frame, box, score))

    @classmethod
    def from_entries(cls, entries: Sequence[tuple[int, int, BoundingBox, float]]) -> "Tracklets":
        """Build from (identity, frame, box, score) rows in any order."""
        out = cls()
        for identity, frame, box, score in sorted(entries, key=lambda e: (e[0], e[1])):
            out.add(identity, frame, box, score)
        return out

    @property
    def identities(self) -> tuple[int, ...]:
        return tuple(sorted(self._tracks))

    def track(self, identity: int) -> tuple[Observation, ...]:
        return tuple(self._tracks[identity])

    def by_frame(self) -> dict[int, dict[int, tuple[BoundingBox, float]]]:
        """Frame-major view, built once for per-frame consumers."""
        out: dict[int, dict[int, tuple[BoundingBox, float]]] = {}
        for identity, track in self._tracks.items():
            for obs in track:
                out.setdefault(obs.frame, {})[identity] = (obs.box, obs.score)
        return out

    def __iter__(self) -> Iterator[tuple[int, tuple[Observation, ...]]]:
        for identity in self.identities:
            yield identity, tuple(self._tracks[identity])

    def __len__(self) -> int:
        return len(self._tracks)

    def __bool__(self) -> bool:
        return bool(self._tracks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tracklets):
            return NotImplemented
        return self._tracks == other._tracks

    def n_boxes(self) -> int:
        return sum(len(t) for t in self._tracks.values())


def _shadow_score(scores: ClassScores) -> float:
    """Confidence of one shadow: its maximum class score."""
    return float(max(scores))


class ShadowTracker:
    """Single-sequence state machine.  Frames are 1-based; identities are
    drawn from a monotone counter and never reused."""

    def __init__(self, config: TrackerConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self._detection_bank = init_query_bank(config.n_detection_sets, config.shadow, seed)
        self._tracks: list[ShadowSet] = []
        self._misses: dict[int, int] = {}
        self._next_identity = 1
        self._frame = 0

    @property
    def frame(self) -> int:
        return self._frame

    @property
    def track_identities(self) -> tuple[int, ...]:
        return tuple(s.identity for s in self._tracks if s.identity is not None)

    def live_sets(self) -> list[ShadowSet]:
        """Sets expecting predictions this frame: current tracks first,
        then the full detection bank (refreshed every frame boundary)."""
        return list(self._tracks) + list(self._detection_bank)

    def step(self, predictions: SetPredictions) -> FrameResult:
        live = self.live_sets()
        if len(predictions) != len(live):
            raise ValueError(
                f"expected predictions for {len(live)} sets, got {len(predictions)}"
            )
        for set_, per_shadow in zip(live, predictions):
            if len(per_shadow) != set_.n_shadows:
                raise ValueError(
                    f"set {set_.set_id}: expected {set_.n_shadows} shadow predictions, "
                    f"got {len(per_shadow)}"
                )
        self._frame += 1
        cfg = self.config
        phi, tau = cfg.shadow.score_reduction, cfg.shadow.tau

        outputs: list[tuple[int, BoundingBox, float]] = []
        births: list[int] = []
        deaths: list[int] = []
        survivors: list[ShadowSet] = []

        for set_, per_shadow in zip(live, predictions):
            shadow_scores = [_shadow_score(scores) for _, scores in per_shadow]
            if reduce_values(shadow_scores, phi) > tau:
                if set_.role == "detection":
                    set_ = set_.promoted(self._next_identity)
                    self._next_identity += 1
                    births.append(set_.identity)
                box, score = select_output(
                    [(b, s) for (b, _), s in zip(per_shadow, shadow_scores)]
                )
                outputs.append((set_.identity, box, score))
                self._misses[set_.identity] = 0
                # the oracle serves the set next frame by this box
                survivors.append(replace(set_, anchor=per_shadow[0][0]))
            elif set_.role == "tracking":
                identity = set_.identity
                misses = self._misses.get(identity, 0) + 1
                if misses > cfg.patience:
                    deaths.append(identity)
                    self._misses.pop(identity, None)
                else:
                    self._misses[identity] = misses
                    survivors.append(set_)

        self._tracks = survivors
        return FrameResult(
            frame=self._frame,
            outputs=tuple(outputs),
            births=tuple(births),
            deaths=tuple(deaths),
        )

    def run(
        self,
        n_frames: int,
        provider: Callable[[int, list[ShadowSet]], SetPredictions],
    ) -> Tracklets:
        """Fold ``step`` over ``n_frames`` frames.

        Predictions depend on which sets are alive, so they are requested
        per frame from ``provider(frame, live_sets)`` rather than taken as a
        precomputed sequence.
        """
        tracklets = Tracklets()
        for _ in range(n_frames):
            frame = self._frame + 1
            result = self.step(provider(frame, self.live_sets()))
            for identity, box, score in result.outputs:
                tracklets.add(identity, result.frame, box, score)
        return tracklets
