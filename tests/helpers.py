"""Shared test utilities: brute-force oracles and scenario builders."""

from __future__ import annotations

import math
import os
from dataclasses import replace
from functools import lru_cache
from itertools import permutations
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

import shadowmot
from shadowmot import (
    BoundingBox,
    ClassScores,
    CostMatrix,
    CostWeights,
    FrameResult,
    MotLine,
    ShadowSet,
    Tracklets,
    focal_cost,
    init_query_bank,
    reduce_values,
)
from shadowmot.geometry import pairwise
from shadowmot.matching import hungarian
from shadowmot.metrics import ALPHA_GRID, AlphaScores, HotaResult
from shadowmot.simulator import _STREAM_CORRUPT, _STREAM_ORACLE

# the matching cost with all three components at weight 1
UNIT_WEIGHTS = CostWeights(w_class=1.0, w_l1=1.0, w_giou=1.0)


def cli_env() -> dict[str, str]:
    """This environment with the absolute directory holding the imported
    ``shadowmot`` package first on PYTHONPATH, so a child
    ``python -m shadowmot.cli`` finds the same package from any cwd."""
    env = dict(os.environ)
    root = str(Path(shadowmot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@lru_cache(maxsize=64)
def _perm_array(m: int, k: int) -> np.ndarray:
    """All ordered selections of k columns out of m, as an index matrix."""
    return np.array(list(permutations(range(m), k)), dtype=np.intp)


def brute_force_min_cost(costs: np.ndarray) -> float:
    """Exhaustive minimum assignment cost over all maximal matchings.

    Feasible only for small matrices; the factorial blowup is the point,
    it shares no code with the solver under test.  Totals are correctly
    rounded (fsum), so the value is independent of summation order:
    vectorized sums only shortlist candidates near the minimum, then the
    shortlist is re-totaled exactly.  Compare against
    ``assignment_total``, never against a sequentially summed float.
    """
    costs = np.asarray(costs, dtype=float)
    n, m = costs.shape
    if n == 0 or m == 0:
        return 0.0
    if n <= m:
        perms = _perm_array(m, n)
        entries = costs[np.arange(n)[None, :], perms]
    else:
        perms = _perm_array(n, m)
        entries = costs[perms, np.arange(m)[None, :]]
    totals = entries.sum(axis=1)
    # absolute slack far above accumulated rounding, far below real gaps
    shortlist = entries[totals <= totals.min() + 1e-9]
    return min(math.fsum(row) for row in shortlist)


def assignment_total(costs: np.ndarray, pairs) -> float:
    """Correctly rounded total of the matched entries, fsum like the oracle."""
    costs = np.asarray(costs, dtype=float)
    return math.fsum(float(costs[r, c]) for r, c in pairs)


# The row-by-row LSAP search, with no greedy prefix: the reference
# oracle for ``matching._shortest_augmenting_path``.


def lsap_reference(costs: np.ndarray) -> tuple[list[int], list[int]]:
    """Row and column indices of a minimum-cost assignment of a non-empty
    matrix with no NaN or -inf entry.

    A port of ``rectangular_lsap.cpp``, the solver behind SciPy's
    ``linear_sum_assignment`` (D. F. Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016).  It makes the same choice at
    every tie, so both return the same pairs.  A tall matrix is solved
    transposed and mapped back through a stable sort, as there.

    The scan over the remaining columns runs over Python lists.  Nearly
    every matrix the commands solve is at most 60 columns wide, where
    numpy's per-call overhead would outweigh the work.  A numpy scan is
    faster only above about 150 columns, and on the one such matrix a
    benchmark ``eval`` solves, IDF1's 40x324, it saved no measurable time.
    Every reduced cost is the same double as in the C++, and SciPy's tie
    rule is one test per column: a strictly lower cost wins, and so does
    an equal one whose column is unassigned.
    """
    transpose = costs.shape[1] < costs.shape[0]
    c = (costs.T if transpose else costs).tolist()
    nr, nc = len(c), len(c[0])
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    all_inf = [inf] * nc
    # filled in reverse, so that a constant matrix gives the identity
    all_cols = list(range(nc - 1, -1, -1))
    # per-row buffers, refilled for each row
    shortest = all_inf[:]
    remaining: list[int] = []
    visited_rows: list[int] = []
    visited_cols: list[int] = []

    for cur_row in range(nr):
        shortest[:] = all_inf
        remaining[:] = all_cols
        visited_rows.clear()
        visited_cols.clear()
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            ci = c[i]
            ui = u[i]
            lowest = inf
            j_low = -1
            for j in remaining:
                s = shortest[j]
                r = min_val + ci[j] - ui - v[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # among the columns at the minimum the last unassigned one
                # wins; if none is unassigned, the first one does
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    j_low = j
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = j_low
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            # a visited column is swap-removed
            index = remaining.index(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in visited_rows[1:]:  # the first one is cur_row
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


# One-pair scalar geometry: the reference oracles for ``pairwise`` and
# the cost tensor.  Plain Python floats, one pair at a time.


def corners(box: BoundingBox) -> tuple[float, float, float, float]:
    """The ``(x1, y1, x2, y2)`` corners of ``box``: the reference for
    ``geometry._corners``."""
    return (
        box.cx - box.w / 2.0,
        box.cy - box.h / 2.0,
        box.cx + box.w / 2.0,
        box.cy + box.h / 2.0,
    )


def to_pixel(box: BoundingBox, img_w: float, img_h: float) -> tuple[float, float, float, float]:
    """A normalized center-format box in pixel top-left format, the
    MOTChallenge file convention ``(left, top, width, height)``: the
    reference for the scaling in ``format_mot``."""
    return (
        (box.cx - box.w / 2.0) * img_w,
        (box.cy - box.h / 2.0) * img_h,
        box.w * img_w,
        box.h * img_h,
    )


def _overlap_terms(a: BoundingBox, b: BoundingBox) -> tuple[float, float, float]:
    """Intersection, union, and enclosing-hull areas, all from the same
    corner coordinates."""
    ax1, ay1, ax2, ay2 = corners(a)
    bx1, by1, bx2, by2 = corners(b)
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
    union = area_a + area_b - inter
    hull = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
    return inter, union, hull


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union, with 0 by convention when the union is empty."""
    inter, union, _ = _overlap_terms(a, b)
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU: ``iou - (hull - union) / hull``, 0 for a degenerate hull."""
    inter, union, hull = _overlap_terms(a, b)
    if hull <= 0.0:
        return 0.0
    iou_val = min(inter / union, 1.0) if union > 0.0 else 0.0
    return iou_val - max(hull - union, 0.0) / hull


def l1_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Sum of absolute differences over the four normalized components."""
    return (
        abs(a.cx - b.cx) + abs(a.cy - b.cy) + abs(a.w - b.w) + abs(a.h - b.h)
    )


def pair_cost(
    pred_box: BoundingBox,
    pred_scores: ClassScores,
    gt_box: BoundingBox,
    gt_class: int,
    w: CostWeights,
) -> float:
    """Weighted matching cost of one prediction against one target; GIoU
    enters negated."""
    return (
        w.w_class * focal_cost(pred_scores, gt_class, w)
        + w.w_l1 * l1_distance(pred_box, gt_box)
        - w.w_giou * giou(pred_box, gt_box)
    )


def build_cost_matrix(preds, gts, w: CostWeights) -> CostMatrix:
    """Pairwise cost matrix of (box, scores) predictions against
    (box, class) targets, one ``pair_cost`` per entry.  The independent
    single-shadow reference that set cost tensors are compared against."""
    costs = np.empty((len(preds), len(gts)), dtype=float)
    for i, (pbox, pscores) in enumerate(preds):
        for j, (gbox, gclass) in enumerate(gts):
            costs[i, j] = pair_cost(pbox, pscores, gbox, gclass, w)
    return CostMatrix(costs)


# The object path of the oracle and the tracker: one box object per shadow,
# one loop over the sets.  The reference that the array path in
# ``simulator`` and ``tracker`` must equal bit for bit.


class _SetDraws(NamedTuple):
    """One set's per-frame draws: the box it is served (None when it is
    unassociated), the unscaled per-shadow box noise, the per-shadow
    scores after corruption, and the box an unassociated set emits."""

    target: BoundingBox | None
    eps: np.ndarray
    scores: list[float]
    fallback: BoundingBox | None


def frame_draws_reference(scene, frame, live_sets, cfg) -> list[_SetDraws]:
    """The oracle's per-frame draws made one numpy call per value group:
    per set its box noise, its corruption flags, then, without a target,
    the false-positive coin (detection sets only) and the fallback box
    through ``uniform(lo, hi)``.  The reference that the batched
    ``simulator._frame_draws`` must equal exactly."""
    if not 1 <= frame <= scene.n_frames:
        raise ValueError(f"frame {frame} outside [1, {scene.n_frames}]")

    frame_rng = np.random.default_rng([cfg.seed, _STREAM_ORACLE, frame])
    corrupt_rng = np.random.default_rng([cfg.seed, _STREAM_CORRUPT, frame])

    states = scene.states_at(frame)
    present = sorted(states.items())

    recognized = {}
    trk_indices = [i for i, s in enumerate(live_sets) if s.role == "tracking"]
    if present and trk_indices:
        overlaps, _, _ = pairwise(
            [live_sets[i].anchor for i in trk_indices], [st.box for _, st in present]
        )
        trk_candidates = [
            (-float(overlaps[r, k]), trk_indices[r], k)
            for r, k in np.argwhere(overlaps > 0.0).tolist()
        ]
        claimed_sets: set[int] = set()
        claimed_objs: set[int] = set()
        for _, i, k in sorted(trk_candidates):
            if i in claimed_sets or k in claimed_objs:
                continue
            recognized[i] = present[k][1]
            claimed_sets.add(i)
            claimed_objs.add(k)
        claimed_ids = {present[k][0] for k in claimed_objs}
    else:
        claimed_ids = set()

    unclaimed = [
        (identity, st.box)
        for identity, st in present
        if st.visible and identity not in claimed_ids
    ]

    det_indices = [i for i, s in enumerate(live_sets) if s.role == "detection"]
    association = {}
    if unclaimed and det_indices:
        overlaps, _, _ = pairwise(
            [live_sets[i].anchor for i in det_indices], [box for _, box in unclaimed]
        )
        candidates = [
            (-float(overlaps[r, k]), det_indices[r], unclaimed[k][0], k)
            for r, k in np.argwhere(overlaps >= 0.5).tolist()
        ]
        taken_sets: set[int] = set()
        taken_objs: set[int] = set()
        for _, i, identity, k in sorted(candidates):
            if i in taken_sets or k in taken_objs:
                continue
            association[i] = unclaimed[k][1]
            taken_sets.add(i)
            taken_objs.add(k)
        free_sets = [i for i in det_indices if i not in taken_sets]
        free_objs = [k for k in range(len(unclaimed)) if k not in taken_objs]
        for i, k in zip(free_sets, free_objs):
            association[i] = unclaimed[k][1]

    draws = []
    for i, set_ in enumerate(live_sets):
        ns = set_.n_shadows
        eps = (
            frame_rng.normal(0.0, cfg.box_noise_std, size=(ns, 4))
            if cfg.box_noise_std > 0
            else np.zeros((ns, 4))
        )
        corrupted = corrupt_rng.uniform(size=ns) < cfg.p_corrupt

        target = None
        fallback = None
        base = 0.0
        if set_.role == "tracking":
            st = recognized.get(i)
            if st is not None:
                target = st.box
                base = cfg.base_score - (0.0 if st.visible else cfg.occ_drop)
                base = max(base, 0.0)
        elif i in association:
            target = association[i]
            base = cfg.base_score

        if target is None:
            if set_.role == "detection" and float(frame_rng.uniform()) < cfg.fp_rate:
                base = cfg.fp_score
            # drawn for tracking sets too, which then emit their anchor
            fp_cx, fp_cy = frame_rng.uniform(0.2, 0.8, size=2)
            fp_w, fp_h = frame_rng.uniform(0.02, 0.1, size=2)
            fallback = BoundingBox(float(fp_cx), float(fp_cy), float(fp_w), float(fp_h))
            if set_.role == "tracking":
                fallback = set_.anchor

        scores = [0.0 if corrupted[j] else base for j in range(ns)]
        draws.append(_SetDraws(target, eps, scores, fallback))
    return draws


def _noisy_box(target: BoundingBox, eps: np.ndarray, scale: float) -> BoundingBox:
    return BoundingBox(
        target.cx + float(eps[0]) * scale,
        target.cy + float(eps[1]) * scale,
        max(target.w + float(eps[2]) * scale, 0.0),
        max(target.h + float(eps[3]) * scale, 0.0),
    )


def render_layer_reference(
    draws: Sequence[_SetDraws], scale: float
) -> list[list[tuple[BoundingBox, ClassScores]]]:
    """One decoder layer's [set][shadow] predictions, box noise scaled by
    ``scale``, one box per shadow."""
    return [
        [
            (_noisy_box(d.target, d.eps[j], scale) if d.target is not None else d.fallback,
             (score,))
            for j, score in enumerate(d.scores)
        ]
        for d in draws
    ]


def select_output(
    predictions: Sequence[tuple[BoundingBox, float]],
) -> tuple[BoundingBox, float]:
    """Box and score of the highest-scoring shadow; ties go to the lowest
    shadow index."""
    if not predictions:
        raise ValueError("select_output needs at least one prediction")
    best = 0
    for j in range(1, len(predictions)):
        if predictions[j][1] > predictions[best][1]:
            best = j
    return predictions[best]


def promoted(set_: ShadowSet, identity: int) -> ShadowSet:
    """The same set re-rooted as a tracking set for ``identity``."""
    return replace(set_, set_id=identity, role="tracking", identity=identity)


class TrackerReference:
    """The tracker lifecycle over ``ShadowSet`` objects: one loop over the
    live sets per frame, the gate through ``reduce_values`` per set and the
    emitted shadow through ``select_output``."""

    def __init__(self, config, seed: int) -> None:
        self.config = config
        self._detection_bank = init_query_bank(config.n_detection_sets, config.shadow, seed)
        self._tracks = []
        self._misses: dict[int, int] = {}
        self._next_identity = 1
        self._frame = 0

    @property
    def track_identities(self) -> tuple[int, ...]:
        return tuple(s.identity for s in self._tracks)

    def live_sets(self) -> list:
        return list(self._tracks) + list(self._detection_bank)

    def step(self, predictions) -> FrameResult:
        live = self.live_sets()
        assert len(predictions) == len(live)
        self._frame += 1
        cfg = self.config
        phi, tau = cfg.shadow.score_reduction, cfg.shadow.tau
        outputs, births, deaths, survivors = [], [], [], []
        for set_, per_shadow in zip(live, predictions):
            assert len(per_shadow) == set_.n_shadows
            shadow_scores = [float(max(scores)) for _, scores in per_shadow]
            if reduce_values(shadow_scores, phi) > tau:
                if set_.role == "detection":
                    set_ = promoted(set_, self._next_identity)
                    self._next_identity += 1
                    births.append(set_.identity)
                box, score = select_output(
                    [(b, s) for (b, _), s in zip(per_shadow, shadow_scores)]
                )
                outputs.append((set_.identity, box, score))
                self._misses[set_.identity] = 0
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
        return FrameResult(self._frame, tuple(outputs), tuple(births), tuple(deaths))


def track_scene_reference(scene, tracker_cfg, oracle_cfg) -> Tracklets:
    """``track_scene`` on the object path: reference draws, one box per
    shadow, and the reference lifecycle."""
    tracker = TrackerReference(tracker_cfg, seed=oracle_cfg.seed)
    scale = oracle_cfg.refinement ** (tracker_cfg.n_layers - 1)
    tracklets = Tracklets()
    for frame in range(1, scene.n_frames + 1):
        draws = frame_draws_reference(scene, frame, tracker.live_sets(), oracle_cfg)
        result = tracker.step(render_layer_reference(draws, scale))
        for identity, box, score in result.outputs:
            tracklets.add(identity, result.frame, box, score)
    return tracklets


def tracklet_bits(tracklets: Tracklets) -> bytes:
    """Every identity, frame, box component and score of ``tracklets`` as
    float64 bytes, so that equal values of different sign (``-0.0`` and
    ``0.0``) differ."""
    return np.array(
        [(identity, obs.frame, obs.box.cx, obs.box.cy, obs.box.w, obs.box.h, obs.score)
         for identity, track in tracklets for obs in track],
        dtype=float,
    ).tobytes()


def format_mot_line(line: MotLine) -> str:
    """One MOT row, field by field: the row-format oracle of ``format_mot``,
    which writes every row with one format string."""
    return ",".join(
        [str(line.frame), str(line.id)] + [repr(float(v)) for v in line[2:]]
    )


def random_box(rng: np.random.Generator) -> BoundingBox:
    return BoundingBox(
        cx=float(rng.uniform(0.1, 0.9)),
        cy=float(rng.uniform(0.1, 0.9)),
        w=float(rng.uniform(0.02, 0.3)),
        h=float(rng.uniform(0.02, 0.3)),
    )


def disjoint_boxes(count: int, width: float = 0.08) -> list[BoundingBox]:
    """Well-separated boxes on a horizontal strip, zero pairwise overlap."""
    if count == 0:
        return []
    if count * 2 * width > 1.0:
        raise ValueError("too many boxes for the strip")
    step = 1.0 / count
    return [
        BoundingBox(cx=(i + 0.5) * step, cy=0.5, w=width, h=width)
        for i in range(count)
    ]


def tracklets_from_rows(rows: list[tuple[int, int, BoundingBox, float]]) -> Tracklets:
    """Build tracklets from (identity, frame, box, score) rows in any order."""
    return Tracklets.from_entries(rows)


def by_frame(tracklets: Tracklets) -> dict[int, dict[int, tuple[BoundingBox, float]]]:
    """Frame-major view of ``tracklets``: frame -> identity -> (box, score)."""
    out: dict[int, dict[int, tuple[BoundingBox, float]]] = {}
    for identity, track in tracklets:
        for obs in track:
            out.setdefault(obs.frame, {})[identity] = (obs.box, obs.score)
    return out


def first_frame(scene, identity: int) -> int:
    """The frame in which ``identity`` enters ``scene``."""
    return scene.tracks[identity][0].t


def run_tracker(tracker, n_frames: int, provider) -> Tracklets:
    """Fold ``tracker.step`` over ``n_frames`` frames.  Predictions depend
    on which sets are alive, so they are asked of ``provider(frame,
    live_sets)`` per frame rather than taken as a precomputed sequence."""
    tracklets = Tracklets()
    for _ in range(n_frames):
        result = tracker.step(provider(tracker.frame + 1, tracker.live_sets()))
        for identity, box, score in result.outputs:
            tracklets.add(identity, result.frame, box, score)
    return tracklets


def longest_run(frames: list[int]) -> int:
    """Length of the longest consecutive-integer run."""
    if not frames:
        return 0
    frames = sorted(frames)
    best = cur = 1
    for prev, this in zip(frames, frames[1:]):
        cur = cur + 1 if this == prev + 1 else 1
        best = max(best, cur)
    return best


# Per frame in which either side has a box, in frame order:
# (sorted gt ids, sorted pred ids, gt x pred IoU).
_FrameOverlaps = list[tuple[list[int], list[int], np.ndarray]]


def _frame_overlaps(gt: Tracklets, pred: Tracklets) -> _FrameOverlaps:
    """The overlap pass on box objects, the reference for the metrics'
    array pass over MOT rows."""
    gt_by_frame = by_frame(gt)
    pred_by_frame = by_frame(pred)
    out: _FrameOverlaps = []
    for frame in sorted(gt_by_frame.keys() | pred_by_frame.keys()):
        gts = gt_by_frame.get(frame, {})
        preds = pred_by_frame.get(frame, {})
        gt_ids = sorted(gts)
        pred_ids = sorted(preds)
        sim, _, _ = pairwise([gts[g][0] for g in gt_ids], [preds[p][0] for p in pred_ids])
        out.append((gt_ids, pred_ids, sim))
    return out


def hota_reference(gt: Tracklets, pred: Tracklets) -> HotaResult:
    """The higher-order score with pass two written per pair and per alpha,
    the differential oracle for ``metrics.hota``."""
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
    for g_here, p_here, sim in _frame_overlaps(gt, pred):
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

    # pass two: per-frame matching on alignment-weighted similarity
    n_alpha = len(ALPHA_GRID)
    tp = np.zeros(n_alpha)
    fn = np.zeros(n_alpha)
    fp = np.zeros(n_alpha)
    matches = [np.zeros((n_gt, n_pred)) for _ in range(n_alpha)]
    for rows, cols, sim in per_frame:
        if rows and cols:
            score = alignment[np.ix_(rows, cols)] * sim
            pairs = hungarian(-score).pairs
            for a, alpha in enumerate(ALPHA_GRID):
                n_matched = 0
                for r, c in pairs:
                    if sim[r, c] >= alpha - 1e-12:
                        matches[a][rows[r], cols[c]] += 1
                        n_matched += 1
                tp[a] += n_matched
                fn[a] += len(rows) - n_matched
                fp[a] += len(cols) - n_matched
        else:
            fn += len(rows)
            fp += len(cols)

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
