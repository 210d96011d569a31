"""Label assignment for tracking and detection query sets.

Two regimes are implemented.  The competition regime binds tracked
identities to their tracking sets and offers only newborn objects to
detection sets, at every decoder layer.  The coopetition regime additionally
offers the tracked objects to detection sets at intermediate layers, while
the final layer reverts to pure competition so that no duplicate
trajectories survive training.

Tracking sets inherit their target by identity, with no cost computation.
Detection sets are matched by Hungarian assignment on a set-level cost
matrix obtained by reducing a (set, shadow, target) cost tensor over the
shadow axis; every shadow of a matched set then shares the representative's
target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _MODULES
from .config import _check_choice, _check_range
from .geometry import BoundingBox, _pairwise_rows, _rows
from .matching import ClassScores, CostMatrix, CostWeights, focal_cost, hungarian
from .shadow import REDUCTIONS, ShadowSet

__all__ = _MODULES["assignment"]

# None is the explicit background target; assignments are total functions.
Target = Optional[int]


@dataclass(frozen=True)
class GroundTruthObject:
    """One annotated object in one frame."""

    identity: int
    box: BoundingBox
    class_index: int = 0

    def __post_init__(self) -> None:
        _check_range("class_index", self.class_index, 0)


@dataclass(frozen=True)
class FrameGroundTruth:
    """This frame's objects, partitioned by whether their identity was
    already being tracked (alive in the previous frame's track list) or is
    newborn."""

    tracked: tuple[GroundTruthObject, ...]
    newborn: tuple[GroundTruthObject, ...]

    def __post_init__(self) -> None:
        ids = [o.identity for o in self.tracked] + [o.identity for o in self.newborn]
        if len(ids) != len(set(ids)):
            raise ValueError("ground-truth identities must be unique within a frame")

    @classmethod
    def partition(cls, objects: Sequence[GroundTruthObject], track_ids: Sequence[int]) -> "FrameGroundTruth":
        """Split ``objects`` against the live track list."""
        alive = set(track_ids)
        return cls(
            tracked=tuple(o for o in objects if o.identity in alive),
            newborn=tuple(o for o in objects if o.identity not in alive),
        )

    @property
    def identities(self) -> frozenset[int]:
        return frozenset(o.identity for o in self.tracked + self.newborn)


def _check_competition(targets: Mapping[int, Target], kind: str) -> None:
    assigned = [t for t in targets.values() if t is not None]
    if len(assigned) != len(set(assigned)):
        raise ValueError(f"duplicate identity among {kind} set targets")


@dataclass(frozen=True)
class LabelAssignment:
    """Per-layer supervision targets, keyed by set id within each role.

    A target of None means background.  Within one layer each identity
    appears at most once among tracking sets and at most once among
    detection sets; the latter slot is only ever occupied at intermediate
    layers under coopetition.
    """

    layer: int
    n_shadows: int
    tracking: Mapping[int, Target] = field(default_factory=dict)
    detection: Mapping[int, Target] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_range("layer", self.layer, 1)
        _check_range("n_shadows", self.n_shadows, 1)
        _check_competition(self.tracking, "tracking")
        _check_competition(self.detection, "detection")

    def shadow_targets(self, role: str, set_id: int) -> tuple[Target, ...]:
        """The per-shadow view: every shadow of a set shares its target."""
        table = {"tracking": self.tracking, "detection": self.detection}[role]
        return (table[set_id],) * self.n_shadows


@dataclass(frozen=True)
class SetCostTensor:
    """Matching costs indexed (detection set, shadow, candidate target)."""

    costs: np.ndarray
    set_ids: tuple[int, ...]
    target_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 3:
            raise ValueError(f"cost tensor must be 3-dimensional, got shape {costs.shape}")
        if costs.shape[0] != len(self.set_ids):
            raise ValueError("set_ids do not match tensor extent")
        if costs.shape[2] != len(self.target_ids):
            raise ValueError("target_ids do not match tensor extent")
        if costs.size and not np.all(np.isfinite(costs)):
            raise ValueError("cost tensor entries must be finite")
        object.__setattr__(self, "costs", costs)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.costs.shape


def _track_targets(track_ids: Sequence[int], gt: FrameGroundTruth) -> dict[int, Target]:
    """The one tracking-target rule, which ``tala_targets`` and
    ``assign_tracking_sets`` read: each track keeps its identity when that
    object is in ``gt``, else background."""
    present = gt.identities
    return {tid: (tid if tid in present else None) for tid in track_ids}


def tala_targets(
    track_ids: Sequence[int],
    gt: FrameGroundTruth,
    layer: int,
    n_layers: int,
) -> tuple[dict[int, Target], tuple[GroundTruthObject, ...]]:
    """Competition assignment: each live track keeps its identity when the
    object is present, otherwise background; detection candidates are the
    newborns only, at every layer.

    The live track list is passed explicitly because a track whose object
    vanished this frame appears nowhere in ``gt`` yet still needs its
    background target.
    """
    _check_range("layer", layer, 1, n_layers)
    if len(set(track_ids)) != len(track_ids):
        raise ValueError("track_ids must be unique")
    return _track_targets(track_ids, gt), gt.newborn


def cola_targets(
    track_ids: Sequence[int],
    gt: FrameGroundTruth,
    layer: int,
    n_layers: int,
) -> tuple[dict[int, Target], tuple[GroundTruthObject, ...]]:
    """Coopetition assignment: identical to the competition rule except that
    at layers below the last, tracked objects are offered to detection sets
    as well (candidates = newborns then tracked, all of this frame's
    objects).  The final layer is pure competition."""
    track_targets, newborn = tala_targets(track_ids, gt, layer, n_layers)
    if layer < n_layers:
        return track_targets, gt.newborn + gt.tracked
    return track_targets, newborn


def reduce_set_costs(tensor: SetCostTensor, reduction: str) -> CostMatrix:
    """Collapse the shadow axis with min/mean/max, yielding the set-level
    cost matrix fed to the Hungarian solver."""
    _check_choice("reduction", reduction, REDUCTIONS)
    op = {"min": np.min, "mean": np.mean, "max": np.max}[reduction]
    reduced = op(tensor.costs, axis=1) if tensor.costs.size else tensor.costs.reshape(
        tensor.costs.shape[0], tensor.costs.shape[2]
    )
    return CostMatrix(reduced, row_labels=tensor.set_ids, col_labels=tensor.target_ids)


def build_set_cost_tensor(
    predictions: Sequence[Sequence[tuple[BoundingBox, ClassScores]]],
    set_ids: Sequence[int],
    candidates: Sequence[GroundTruthObject],
    weights: CostWeights,
) -> SetCostTensor:
    """Pairwise costs of every shadow of every set against every candidate.
    The geometry kernel runs once, on the box rows of all shadows and all
    candidates.  A class score outside [0, 1] is a ValueError that names
    its set and shadow."""
    if len(predictions) != len(set_ids):
        raise ValueError("predictions and set_ids disagree on the number of sets")
    n_shadows = {len(p) for p in predictions}
    if len(n_shadows) > 1:
        raise ValueError(f"sets disagree on shadow count: {sorted(n_shadows)}")
    ns = n_shadows.pop() if n_shadows else 1
    _check_range("n_shadows", ns, 1)
    boxes = [box for per_shadow in predictions for box, _ in per_shadow]
    scores = [s for per_shadow in predictions for _, s in per_shadow]
    _, giou, l1 = _pairwise_rows(_rows(boxes), _rows([c.box for c in candidates]))
    # the scalar focal cost once per distinct scores and class present, as
    # vectorised log/power need not round like math.log and **.  Keyed by value
    # only if all are floats, whose equal values (0.0 and -0.0 too) cost the
    # same; other numbers may round apart.  slot: key -> its row of focal
    plain = {type(p) for s in scores for p in s} <= {float}
    keys = list(map(tuple, scores)) if plain else range(len(scores))
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # key -> its first shadow
    classes = sorted({c.class_index for c in candidates})
    focal, slot = [], {}
    for k in sorted(first.values()):
        try:
            focal.append([focal_cost(scores[k], cls, weights) for cls in classes])
        except ValueError as exc:
            raise ValueError(f"set {set_ids[k // ns]} shadow {k % ns}: {exc}") from None
        slot[keys[k]] = len(slot)
    cols = [classes.index(c.class_index) for c in candidates]
    class_costs = np.array(focal).reshape(len(slot), len(classes))[:, cols].take(
        list(map(slot.__getitem__, keys)), axis=0)
    # w_class * focal + w_l1 * l1 - w_giou * giou, in place
    l1 *= weights.w_l1
    l1 += np.multiply(class_costs, weights.w_class, out=class_costs)
    l1 -= np.multiply(giou, weights.w_giou, out=giou)
    return SetCostTensor(
        l1.reshape(len(predictions), ns, len(candidates)),
        set_ids=tuple(set_ids),
        target_ids=tuple(c.identity for c in candidates),
    )


def assign_detection_sets(
    predictions: Sequence[Sequence[tuple[BoundingBox, ClassScores]]],
    set_ids: Sequence[int],
    candidates: Sequence[GroundTruthObject],
    weights: CostWeights,
    reduction: str,
    layer: int,
) -> LabelAssignment:
    """Match detection sets to candidate targets.

    Builds the set cost tensor, reduces it over shadows, solves the
    rectangular assignment, and broadcasts each matched target to all
    shadows of its set.  Unmatched sets get background.
    """
    tensor = build_set_cost_tensor(predictions, set_ids, candidates, weights)
    n_shadows = tensor.shape[1] if tensor.shape[0] else 1
    targets: dict[int, Target] = {sid: None for sid in set_ids}
    if candidates and predictions:
        matrix = reduce_set_costs(tensor, reduction)
        result = hungarian(matrix)
        for row, col in result.pairs:
            targets[tensor.set_ids[row]] = tensor.target_ids[col]
    return LabelAssignment(layer=layer, n_shadows=n_shadows, detection=targets)


def assign_tracking_sets(
    track_sets: Sequence[ShadowSet],
    gt: FrameGroundTruth,
    layer: int,
) -> LabelAssignment:
    """Bind each tracking set to its stored identity when present in the
    frame's ground truth, else background.  Pure inheritance, no costs."""
    identities = [s.identity for s in track_sets]
    if any(i is None for i in identities):
        raise ValueError("assign_tracking_sets requires tracking-role sets")
    if len(set(identities)) != len(identities):
        raise ValueError("duplicate identities in the track bank")
    n_shadows = track_sets[0].n_shadows if track_sets else 1
    by_identity = _track_targets(identities, gt)
    targets = {s.set_id: by_identity[s.identity] for s in track_sets}
    return LabelAssignment(layer=layer, n_shadows=n_shadows, tracking=targets)
