"""Tracking metrics: CLEAR accuracy, trajectory identity F1, and the
higher-order score with its detection/association decomposition.

All three run on identity-keyed tracklets.  Overlap is IoU, which is
invariant under axis-wise rescaling, so normalized and pixel inputs give
identical numbers as long as both sides live in the same space.

When the ground truth contains no boxes the CLEAR ratio divides by zero;
that case is reported as None rather than NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import pairwise
from .matching import hungarian
from .tracker import Tracklets

__all__ = [
    "ClearMotResult",
    "AlphaScores",
    "HotaResult",
    "MetricsReport",
    "clear_mot",
    "idf1",
    "hota",
    "evaluate",
]

# IoU thresholds for the higher-order score: 0.05, 0.10, ..., 0.95.
ALPHA_GRID: tuple[float, ...] = tuple(k / 20 for k in range(1, 20))

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


# Per frame in which either side has a box, in frame order:
# (sorted gt ids, sorted pred ids, gt x pred IoU).
_FrameOverlaps = list[tuple[list[int], list[int], np.ndarray]]


def _frame_overlaps(gt: Tracklets, pred: Tracklets) -> _FrameOverlaps:
    """The one overlap pass every metric reads."""
    gt_by_frame = gt.by_frame()
    pred_by_frame = pred.by_frame()
    out: _FrameOverlaps = []
    for frame in sorted(gt_by_frame.keys() | pred_by_frame.keys()):
        gts = gt_by_frame.get(frame, {})
        preds = pred_by_frame.get(frame, {})
        gt_ids = sorted(gts)
        pred_ids = sorted(preds)
        sim, _, _ = pairwise([gts[g][0] for g in gt_ids], [preds[p][0] for p in pred_ids])
        out.append((gt_ids, pred_ids, sim))
    return out


def clear_mot(gt: Tracklets, pred: Tracklets, iou_threshold: float = 0.5) -> ClearMotResult:
    """CLEAR bookkeeping with match persistence.

    A correspondence from the previous frame is kept while its IoU stays at
    or above the gate; only the remainder is re-matched each frame.  A
    switch is counted when a ground-truth identity's matched prediction
    differs from the last one it ever had.  The accuracy score is
    1 - (FN + FP + IDS) / total ground-truth boxes, None when that total is
    zero.
    """
    return _clear_mot(gt, _frame_overlaps(gt, pred), iou_threshold)


def _clear_mot(gt: Tracklets, frames: _FrameOverlaps, iou_threshold: float) -> ClearMotResult:
    total_gt = gt.n_boxes()

    fp = fn = ids = 0
    active: dict[int, int] = {}  # gt id -> pred id carried from previous frame
    last_match: dict[int, int] = {}  # gt id -> last pred id ever matched

    for gt_ids, pred_ids, sim in frames:
        row = {g: r for r, g in enumerate(gt_ids)}
        col = {p: c for c, p in enumerate(pred_ids)}

        matches: dict[int, int] = {}
        for g, p in active.items():
            if g in row and p in col and sim[row[g], col[p]] >= iou_threshold:
                matches[g] = p

        free_gt = [g for g in gt_ids if g not in matches]
        taken_preds = set(matches.values())
        free_pred = [p for p in pred_ids if p not in taken_preds]
        if free_gt and free_pred:
            ious = sim[np.ix_([row[g] for g in free_gt], [col[p] for p in free_pred])]
            cost = np.where(ious >= iou_threshold, 1.0 - ious, _FORBIDDEN)
            for r, c in hungarian(cost).pairs:
                if ious[r, c] >= iou_threshold:
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


def idf1(gt: Tracklets, pred: Tracklets, iou_threshold: float = 0.5) -> float:
    """Trajectory-level identity F1.

    One global bipartite matching between ground-truth and predicted
    trajectories maximizes the number of frames where a mapped pair
    overlaps at or above the gate (the identity true positives);
    2*IDTP / (total gt boxes + total pred boxes) follows from the standard
    definition.  Both sides empty scores 1 by convention.
    """
    return _idf1(gt, pred, _frame_overlaps(gt, pred), iou_threshold)


def _idf1(gt: Tracklets, pred: Tracklets, frames: _FrameOverlaps, iou_threshold: float) -> float:
    total_gt = gt.n_boxes()
    total_pred = pred.n_boxes()
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0

    gt_row = {g: a for a, g in enumerate(gt.identities)}
    pred_col = {p: b for b, p in enumerate(pred.identities)}
    overlap = np.zeros((len(gt_row), len(pred_col)))
    for gt_ids, pred_ids, sim in frames:
        rows = [gt_row[g] for g in gt_ids]
        cols = [pred_col[p] for p in pred_ids]
        overlap[np.ix_(rows, cols)] += sim >= iou_threshold

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
    return _hota(gt, pred, _frame_overlaps(gt, pred))


def _hota(gt: Tracklets, pred: Tracklets, frames: _FrameOverlaps) -> HotaResult:
    """:func:`hota` on the shared overlap pass.

    Pass two solves one matrix per frame.  The matched pairs of all
    frames are then tested against every alpha at once, as TrackEval's
    ``hota.py`` does, and counted into one ``[alpha, gt, pred]`` array.
    Each association sum stays dense over the whole gt x pred matrix,
    because summing only its nonzero entries changes numpy's summation
    tree and so can move the last bit.
    """
    gt_ids = gt.identities
    pred_ids = pred.identities
    n_gt, n_pred = len(gt_ids), len(pred_ids)
    if n_gt == 0 and n_pred == 0:
        per = tuple(AlphaScores(a, 1.0, 1.0, 1.0) for a in ALPHA_GRID)
        return HotaResult(1.0, 1.0, 1.0, per)

    gt_row = {g: a for a, g in enumerate(gt_ids)}
    pred_col = {p: b for b, p in enumerate(pred_ids)}

    # pass one: global alignment from potential matches and presence counts
    potential = np.zeros((n_gt, n_pred))
    gt_count = np.zeros(n_gt)
    pred_count = np.zeros(n_pred)
    per_frame: list[tuple[list[int], list[int], np.ndarray]] = []
    for g_here, p_here, sim in frames:
        rows = [gt_row[g] for g in g_here]
        cols = [pred_col[p] for p in p_here]
        if rows and cols:
            denom = sim.sum(axis=0)[np.newaxis, :] + sim.sum(axis=1)[:, np.newaxis] - sim
            weighted = np.zeros_like(sim)
            mask = denom > 1e-12
            weighted[mask] = sim[mask] / denom[mask]
            potential[np.ix_(rows, cols)] += weighted
        gt_count[rows] += 1
        pred_count[cols] += 1
        per_frame.append((rows, cols, sim))

    alignment = potential / (
        gt_count[:, np.newaxis] + pred_count[np.newaxis, :] - potential
    )

    # pass two: per-frame matching on alignment-weighted similarity; the
    # matched pairs of all frames are then counted on the alpha grid at once
    pair_gt: list[int] = []
    pair_pred: list[int] = []
    pair_sim: list[float] = []
    for rows, cols, sim in per_frame:
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
        doc = {
            "hota": self.hota,
            "deta": self.deta,
            "assa": self.assa,
            "mota": self.mota,
            "idf1": self.idf1,
            "ids": self.ids,
            "fp": self.fp,
            "fn": self.fn,
        }
        if self.per_alpha:
            doc["per_alpha"] = [
                {"alpha": s.alpha, "hota": s.hota, "deta": s.deta, "assa": s.assa}
                for s in self.per_alpha
            ]
        return doc

    def text_table(self) -> str:
        def fmt(v: Optional[float]) -> str:
            return "undefined" if v is None else f"{v:.4f}"

        rows = [
            ("hota", fmt(self.hota)),
            ("deta", fmt(self.deta)),
            ("assa", fmt(self.assa)),
            ("mota", fmt(self.mota)),
            ("idf1", fmt(self.idf1)),
            ("ids", str(self.ids)),
            ("fp", str(self.fp)),
            ("fn", str(self.fn)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def evaluate(gt: Tracklets, pred: Tracklets, iou_threshold: float = 0.5) -> MetricsReport:
    """All metrics in one report; the CLEAR gate applies to the CLEAR and
    identity-F1 scores, the higher-order score keeps its own alpha grid.
    The per-frame overlaps are computed once and shared by all three."""
    frames = _frame_overlaps(gt, pred)
    clear = _clear_mot(gt, frames, iou_threshold)
    h = _hota(gt, pred, frames)
    return MetricsReport(
        hota=h.hota,
        deta=h.deta,
        assa=h.assa,
        mota=clear.mota,
        idf1=_idf1(gt, pred, frames, iou_threshold),
        ids=clear.ids,
        fp=clear.fp,
        fn=clear.fn,
        per_alpha=h.per_alpha,
    )
