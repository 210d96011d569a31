"""Tracking metrics: CLEAR accuracy, trajectory identity F1, and the
higher-order score with its detection/association decomposition.

All three take identity-keyed tracklets, turn each side into the rows of
a MOT file once, and read one shared overlap pass over those rows; ``eval``
hands in the rows it read, so it never builds a box object.  Overlap is
IoU, which is invariant under axis-wise rescaling, so normalized and pixel
inputs give identical numbers as long as both sides live in the same space.

When the ground truth contains no boxes the CLEAR ratio divides by zero;
that case is reported as None rather than NaN.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _MODULES
from .geometry import _corners, _iou
from .matching import hungarian
from .mot_io import MotRows, Tracklets, _rows_of

__all__ = _MODULES["metrics"]

# IoU thresholds for the higher-order score: 0.05, 0.10, ..., 0.95.
ALPHA_GRID: tuple[float, ...] = tuple(k / 20 for k in range(1, 20))

# the scores of every metrics output, in the order they are written: the
# report's JSON keys and text rows, and the ablate CSV columns
SCORES: tuple[str, ...] = ("hota", "deta", "assa", "mota", "idf1", "ids", "fp", "fn")

# the IoU at which CLEAR and identity F1 start to match a pair, and CLEAR's cost below it
_IOU_GATE = 0.5
_FORBIDDEN = 1e9


class ClearMotResult(NamedTuple):
    mota: Optional[float]
    ids: int
    fp: int
    fn: int


class AlphaScores(NamedTuple):
    alpha: float
    hota: float
    deta: float
    assa: float


class HotaResult(NamedTuple):
    hota: float
    deta: float
    assa: float
    per_alpha: tuple[AlphaScores, ...]


class _Overlaps(NamedTuple):
    """The one overlap pass every metric reads.  Each side numbers its
    identities 0, 1, ... in sorted order."""

    # how many boxes and how many identities each side has
    gt_boxes: int
    pred_boxes: int
    gt_identities: int
    pred_identities: int
    # per frame in which either side has a box, in frame order: the gt
    # and pred identity numbers there, ascending, and their gt x pred IoU
    frames: list[tuple[list[int], list[int], np.ndarray]]


def _numbers(ids: Sequence[int]) -> tuple[list[int], int]:
    """The number of each row's identity, and how many identities there are."""
    index = {identity: k for k, identity in enumerate(sorted(set(ids)))}
    return [index[identity] for identity in ids], len(index)


def _spans(frames: Sequence[int]) -> dict[int, tuple[int, int]]:
    """Frame -> the (start, stop) slice of its rows in ``frames``, which is sorted."""
    return {f: (bisect_left(frames, f), bisect_right(frames, f)) for f in set(frames)}


def _overlaps(gt: MotRows, pred: MotRows) -> _Overlaps:
    gt_numbers, n_gt = _numbers(gt.ids)
    pred_numbers, n_pred = _numbers(pred.ids)
    gt_spans = _spans(gt.frames)
    pred_spans = _spans(pred.frames)
    gt_corners = _corners(gt.boxes)
    pred_corners = _corners(pred.boxes)
    frames = []
    for frame in sorted(gt_spans.keys() | pred_spans.keys()):
        a, b = gt_spans.get(frame, (0, 0))
        c, d = pred_spans.get(frame, (0, 0))
        iou, _ = _iou(gt_corners[:, a:b], pred_corners[:, c:d])
        frames.append((gt_numbers[a:b], pred_numbers[c:d], iou))
    return _Overlaps(len(gt.ids), len(pred.ids), n_gt, n_pred, frames)


def clear_mot(gt: Tracklets, pred: Tracklets) -> ClearMotResult:
    """CLEAR bookkeeping with match persistence.

    A correspondence from the previous frame is kept while its IoU stays at
    or above the gate; only the remainder is re-matched each frame.  A
    switch is counted when a ground-truth identity's matched prediction
    differs from the last one it ever had.  The accuracy score is
    1 - (FN + FP + IDS) / total ground-truth boxes, None when that total is
    zero.
    """
    return _clear_mot(_overlaps(_rows_of(gt), _rows_of(pred)))


def _clear_mot(overlaps: _Overlaps) -> ClearMotResult:
    total_gt = overlaps.gt_boxes

    fp = fn = ids = 0
    active: dict[int, int] = {}  # gt id -> pred id carried from previous frame
    last_match: dict[int, int] = {}  # gt id -> last pred id ever matched

    for gt_ids, pred_ids, sim in overlaps.frames:
        row = {g: r for r, g in enumerate(gt_ids)}
        col = {p: c for c, p in enumerate(pred_ids)}

        matches: dict[int, int] = {}
        for g, p in active.items():
            if g in row and p in col and sim[row[g], col[p]] >= _IOU_GATE:
                matches[g] = p

        free_gt = [g for g in gt_ids if g not in matches]
        taken_preds = set(matches.values())
        free_pred = [p for p in pred_ids if p not in taken_preds]
        if free_gt and free_pred:
            ious = sim[np.ix_([row[g] for g in free_gt], [col[p] for p in free_pred])]
            cost = np.where(ious >= _IOU_GATE, 1.0 - ious, _FORBIDDEN)
            for r, c in hungarian(cost).pairs:
                if ious[r, c] >= _IOU_GATE:
                    matches[free_gt[r]] = free_pred[c]

        for g, p in matches.items():
            if g in last_match and last_match[g] != p:
                ids += 1
            last_match[g] = p
        fn += len(gt_ids) - len(matches)
        fp += len(pred_ids) - len(matches)
        active = matches

    mota = None if total_gt == 0 else 1.0 - (fn + fp + ids) / total_gt
    return ClearMotResult(mota=mota, ids=ids, fp=fp, fn=fn)


def idf1(gt: Tracklets, pred: Tracklets) -> float:
    """Trajectory-level identity F1.

    One global bipartite matching between ground-truth and predicted
    trajectories maximizes the number of frames where a mapped pair
    overlaps at or above the gate (the identity true positives);
    2*IDTP / (total gt boxes + total pred boxes) follows from the standard
    definition.  Both sides empty scores 1 by convention.
    """
    return _idf1(_overlaps(_rows_of(gt), _rows_of(pred)))


def _idf1(overlaps: _Overlaps) -> float:
    total_gt = overlaps.gt_boxes
    total_pred = overlaps.pred_boxes
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0

    overlap = np.zeros((overlaps.gt_identities, overlaps.pred_identities))
    for rows, cols, sim in overlaps.frames:
        overlap[np.ix_(rows, cols)] += sim >= _IOU_GATE

    # a sum of the matched counts, not a negated total cost, which would
    # make a zero IDTP -0.0
    idtp = sum(overlap[r, c] for r, c in hungarian(-overlap).pairs)
    return 2.0 * float(idtp) / (total_gt + total_pred)


def hota(gt: Tracklets, pred: Tracklets) -> HotaResult:
    """Higher-order score via the standard two-pass procedure.

    Pass one accumulates Jaccard-weighted potential matches and per-identity
    presence counts to form a global alignment score.  Pass two re-matches
    every frame on alignment-weighted similarity, thresholds the matched
    similarities on the alpha grid, and aggregates detection and
    association accuracies per alpha; the headline number is the mean over
    alphas of the geometric mean of the two.
    """
    return _hota(_overlaps(_rows_of(gt), _rows_of(pred)))


def _hota(overlaps: _Overlaps) -> HotaResult:
    """:func:`hota` on the shared overlap pass.

    Pass two solves one matrix per frame.  The matched pairs of all
    frames are then tested against every alpha at once, as TrackEval's
    ``hota.py`` does, and counted into one ``[alpha, gt, pred]`` array.
    Each association sum stays dense over the whole gt x pred matrix,
    because summing only its nonzero entries changes numpy's summation
    tree and so can move the last bit.
    """
    n_gt, n_pred = overlaps.gt_identities, overlaps.pred_identities
    if n_gt == 0 and n_pred == 0:
        per = tuple(AlphaScores(a, 1.0, 1.0, 1.0) for a in ALPHA_GRID)
        return HotaResult(1.0, 1.0, 1.0, per)

    # pass one: global alignment from potential matches and presence counts
    potential = np.zeros((n_gt, n_pred))
    gt_count = np.zeros(n_gt)
    pred_count = np.zeros(n_pred)
    for rows, cols, sim in overlaps.frames:
        if rows and cols:
            denom = sim.sum(axis=0)[np.newaxis, :] + sim.sum(axis=1)[:, np.newaxis] - sim
            weighted = np.zeros_like(sim)
            mask = denom > 1e-12
            weighted[mask] = sim[mask] / denom[mask]
            potential[np.ix_(rows, cols)] += weighted
        gt_count[rows] += 1
        pred_count[cols] += 1

    alignment = potential / (
        gt_count[:, np.newaxis] + pred_count[np.newaxis, :] - potential
    )

    # pass two: per-frame matching on alignment-weighted similarity; the
    # matched pairs of all frames are then counted on the alpha grid at once
    pair_gt: list[int] = []
    pair_pred: list[int] = []
    pair_sim: list[float] = []
    for rows, cols, sim in overlaps.frames:
        if rows and cols:
            score = alignment[np.ix_(rows, cols)] * sim
            for r, c in hungarian(-score).pairs:
                pair_gt.append(rows[r])
                pair_pred.append(cols[c])
                pair_sim.append(sim[r, c])

    n_alpha = len(ALPHA_GRID)
    shape = (n_alpha, n_gt, n_pred)
    hit = np.array(pair_sim) >= np.array(ALPHA_GRID)[:, np.newaxis] - 1e-12
    a_idx, k_idx = hit.nonzero()
    cells = np.ravel_multi_index(
        (a_idx, np.array(pair_gt, dtype=np.intp)[k_idx], np.array(pair_pred, dtype=np.intp)[k_idx]),
        shape,
    )
    # a gt/pred pair recurs across frames, so count with bincount, not +=
    matches = np.bincount(cells, minlength=math.prod(shape)).reshape(shape).astype(float)
    tp = hit.sum(axis=1).astype(float)
    fn = gt_count.sum() - tp
    fp = pred_count.sum() - tp

    presence = gt_count[:, np.newaxis] + pred_count[np.newaxis, :]
    per_alpha = []
    for a, alpha in enumerate(ALPHA_GRID):
        deta_a = tp[a] / max(1.0, tp[a] + fn[a] + fp[a])
        ass_scores = matches[a] / np.maximum(1.0, presence - matches[a])
        assa_a = float((matches[a] * ass_scores).sum() / max(1.0, tp[a]))
        per_alpha.append(AlphaScores(alpha, math.sqrt(deta_a * assa_a), float(deta_a), assa_a))

    return HotaResult(
        hota=float(sum(s.hota for s in per_alpha) / n_alpha),
        deta=float(sum(s.deta for s in per_alpha) / n_alpha),
        assa=float(sum(s.assa for s in per_alpha) / n_alpha),
        per_alpha=tuple(per_alpha),
    )


@dataclass(frozen=True)
class MetricsReport:
    """Combined evaluation result; mota is None when the ground truth has
    no boxes to normalize by."""

    hota: float
    deta: float
    assa: float
    mota: Optional[float]
    idf1: float
    ids: int
    fp: int
    fn: int
    per_alpha: tuple[AlphaScores, ...] = ()

    def to_json_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in SCORES}
        if self.per_alpha:
            doc["per_alpha"] = [s._asdict() for s in self.per_alpha]
        return doc

    def text_table(self) -> str:
        """One row per score: counts as integers, ratios to four places."""
        def fmt(v: Optional[float]) -> str:
            if v is None:
                return "undefined"
            return str(v) if isinstance(v, int) else f"{v:.4f}"

        width = max(map(len, SCORES))
        return "\n".join(f"{name:<{width}}  {fmt(getattr(self, name))}" for name in SCORES)


def evaluate(gt: Tracklets, pred: Tracklets) -> MetricsReport:
    """All metrics in one report, from one per-frame overlap pass that all
    three share; the higher-order score keeps its own alpha grid."""
    return _evaluate(_rows_of(gt), _rows_of(pred))


def _evaluate(gt: MotRows, pred: MotRows) -> MetricsReport:
    """:func:`evaluate` on the rows of each side."""
    overlaps = _overlaps(gt, pred)
    clear = _clear_mot(overlaps)
    h = _hota(overlaps)
    return MetricsReport(
        hota=h.hota,
        deta=h.deta,
        assa=h.assa,
        mota=clear.mota,
        idf1=_idf1(overlaps),
        ids=clear.ids,
        fp=clear.fp,
        fn=clear.fn,
        per_alpha=h.per_alpha,
    )
