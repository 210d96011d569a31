from __future__ import annotations

import hashlib
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shadowmot import (
    ALPHA_GRID,
    BoundingBox,
    MetricsReport,
    OracleConfig,
    SceneConfig,
    ShadowConfig,
    Tracklets,
    TrackerConfig,
    clear_mot,
    evaluate,
    generate_scene,
    hota,
    idf1,
    track_scene,
)

from helpers import disjoint_boxes, hota_reference, iou, tracklets_from_rows


def _shift(box: BoundingBox, dx: float) -> BoundingBox:
    return BoundingBox(cx=box.cx + dx, cy=box.cy, w=box.w, h=box.h)


def _single_object(frames, box=None, identity=1, score=1.0) -> Tracklets:
    box = box or BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
    return tracklets_from_rows([(identity, f, box, score) for f in frames])


def _two_objects(n_frames):
    a, b = disjoint_boxes(2)
    gt = tracklets_from_rows(
        [(1, f, a, 1.0) for f in range(1, n_frames + 1)]
        + [(2, f, b, 1.0) for f in range(1, n_frames + 1)]
    )
    return gt, a, b


def _noisy_case(seed=0):
    """A mid-quality tracking result over a simulated scene."""
    scene = generate_scene(
        SceneConfig(n_frames=25, n_objects=4, occlusions=((2, 8, 12),), seed=seed)
    )
    cfg = TrackerConfig(shadow=ShadowConfig(embed_dim=8), n_detection_sets=8)
    pred = track_scene(
        scene, cfg, OracleConfig(seed=seed, box_noise_std=0.01, p_corrupt=0.1)
    )
    return scene.gt_tracklets(), pred


class TestClearMot:
    def test_perfect(self):
        gt, _, _ = _two_objects(6)
        result = clear_mot(gt, gt)
        assert result == (1.0, 0, 0, 0)

    def test_one_miss_in_ten(self):
        gt = _single_object(range(1, 11))
        pred = _single_object(range(1, 10), identity=50)
        result = clear_mot(gt, pred)
        assert result.mota == pytest.approx(0.9, abs=1e-12)
        assert result.fn == 1
        assert result.fp == 0
        assert result.ids == 0

    def test_identity_swap_counts_two(self):
        gt, a, b = _two_objects(6)
        pred = tracklets_from_rows(
            [(101, f, a, 1.0) for f in range(1, 4)]
            + [(101, f, b, 1.0) for f in range(4, 7)]
            + [(102, f, b, 1.0) for f in range(1, 4)]
            + [(102, f, a, 1.0) for f in range(4, 7)]
        )
        result = clear_mot(gt, pred)
        assert result.ids == 2
        assert result.mota == pytest.approx(1.0 - 2.0 / 12.0, abs=1e-12)
        assert result.fp == 0
        assert result.fn == 0

    def test_false_positives_counted(self):
        gt = _single_object(range(1, 6))
        far = BoundingBox(cx=0.9, cy=0.9, w=0.05, h=0.05)
        pred = tracklets_from_rows(
            [(1, f, gt.track(1)[0].box, 1.0) for f in range(1, 6)]
            + [(2, f, far, 0.8) for f in range(1, 6)]
        )
        result = clear_mot(gt, pred)
        assert result.fp == 5
        assert result.fn == 0
        assert result.mota == pytest.approx(0.0, abs=1e-12)

    def test_empty_gt_marks_undefined(self):
        pred = _single_object(range(1, 4))
        result = clear_mot(Tracklets(), pred)
        assert result.mota is None
        assert result.fp == 3

    def test_empty_pred(self):
        gt = _single_object(range(1, 4))
        result = clear_mot(gt, Tracklets())
        assert result.mota == 0.0
        assert result.fn == 3

    def test_match_persists_through_drift(self):
        # a competing box gets closer, but the established match holds while
        # it stays above the gate
        base = BoundingBox(cx=0.3, cy=0.5, w=0.2, h=0.2)
        gt = _single_object(range(1, 4), box=base)
        pred = tracklets_from_rows(
            [(7, 1, base, 1.0), (7, 2, _shift(base, 0.04), 1.0), (7, 3, base, 1.0),
             (8, 2, _shift(base, 0.02), 0.9), (8, 3, _shift(base, 0.5), 0.9)]
        )
        result = clear_mot(gt, pred)
        assert result.ids == 0


class TestIdf1:
    def test_perfect(self):
        gt, _, _ = _two_objects(5)
        assert idf1(gt, gt) == 1.0

    def test_even_split_is_half(self):
        gt = _single_object(range(1, 11))
        box = gt.track(1)[0].box
        pred = tracklets_from_rows(
            [(100, f, box, 1.0) for f in range(1, 6)]
            + [(200, f, box, 1.0) for f in range(6, 11)]
        )
        assert idf1(gt, pred) == pytest.approx(0.5, abs=1e-12)

    def test_no_overlap_is_zero(self):
        gt = _single_object(range(1, 6), box=BoundingBox(cx=0.2, cy=0.2, w=0.1, h=0.1))
        pred = _single_object(range(1, 6), box=BoundingBox(cx=0.8, cy=0.8, w=0.1, h=0.1))
        assert idf1(gt, pred) == 0.0

    def test_disjoint_tracklets_score_positive_zero(self):
        # no pair ever reaches the gate: IDTP is 0, and the report must
        # read 0.0, not -0.0
        a, b, c, d = disjoint_boxes(4)
        gt = tracklets_from_rows([(1, f, a, 1.0) for f in range(1, 6)]
                                 + [(2, f, b, 1.0) for f in range(1, 6)])
        pred = tracklets_from_rows([(7, f, c, 1.0) for f in range(1, 6)]
                                   + [(8, f, d, 1.0) for f in range(3, 9)])
        score = idf1(gt, pred)
        assert score == 0.0 and math.copysign(1.0, score) == 1.0
        assert '"idf1": 0.0,' in json.dumps(evaluate(gt, pred).to_json_dict())

    def test_both_empty_is_one(self):
        assert idf1(Tracklets(), Tracklets()) == 1.0

    def test_one_empty_is_zero(self):
        gt = _single_object(range(1, 4))
        assert idf1(gt, Tracklets()) == 0.0
        assert idf1(Tracklets(), gt) == 0.0

    def test_matches_brute_force_mapping(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            gt, pred = _random_small_case(rng)
            counts, g_total, p_total = _overlap_counts(gt, pred)
            best = _best_matching_sum(counts)
            want = 1.0 if g_total + p_total == 0 else 2.0 * best / (g_total + p_total)
            assert idf1(gt, pred) == pytest.approx(want, abs=1e-12)


def _random_small_case(rng):
    """Tiny gt plus a mangled prediction: splits, drops, and a stray track."""
    n_objects = int(rng.integers(1, 4))
    n_frames = int(rng.integers(2, 9))
    scene = generate_scene(
        SceneConfig(n_frames=n_frames, n_objects=n_objects, seed=int(rng.integers(1000)))
    )
    gt = scene.gt_tracklets()
    rows = []
    next_id = 100
    for identity in gt.identities:
        track = gt.track(identity)
        if rng.uniform() < 0.15:
            continue
        split = int(rng.integers(1, len(track) + 1))
        for part in (track[:split], track[split:]):
            if not part:
                continue
            for obs in part:
                if rng.uniform() < 0.1:
                    continue
                box = obs.box if rng.uniform() < 0.8 else _shift(obs.box, 0.4)
                rows.append((next_id, obs.frame, box, 1.0))
            next_id += 1
    if rng.uniform() < 0.5:
        stray = BoundingBox(cx=0.05, cy=0.05, w=0.04, h=0.04)
        rows.extend((next_id, f, stray, 0.5) for f in range(1, n_frames + 1))
    return gt, tracklets_from_rows(rows)


def _overlap_counts(gt, pred, threshold=0.5):
    gt_ids = gt.identities
    pred_ids = pred.identities
    counts = np.zeros((len(gt_ids), len(pred_ids)))
    pred_by_frame = pred.by_frame()
    for gi, g in enumerate(gt_ids):
        for obs in gt.track(g):
            frame_preds = pred_by_frame.get(obs.frame, {})
            for pi, p in enumerate(pred_ids):
                if p in frame_preds and iou(obs.box, frame_preds[p][0]) >= threshold:
                    counts[gi, pi] += 1
    return counts, gt.n_boxes(), pred.n_boxes()


def _best_matching_sum(counts) -> float:
    """Maximum-total one-to-one mapping by exhaustive recursion."""
    n, m = counts.shape

    def go(row: int, used: frozenset) -> float:
        if row == n:
            return 0.0
        best = go(row + 1, used)  # leave this gt identity unmapped
        for col in range(m):
            if col not in used:
                best = max(best, counts[row, col] + go(row + 1, used | {col}))
        return best

    return go(0, frozenset())


class TestHota:
    def test_perfect(self):
        gt, _, _ = _two_objects(5)
        result = hota(gt, gt)
        assert result.hota == 1.0
        assert result.deta == 1.0
        assert result.assa == 1.0

    def test_even_split(self):
        gt = _single_object(range(1, 11))
        box = gt.track(1)[0].box
        pred = tracklets_from_rows(
            [(100, f, box, 1.0) for f in range(1, 6)]
            + [(200, f, box, 1.0) for f in range(6, 11)]
        )
        result = hota(gt, pred)
        assert result.hota == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert result.deta == pytest.approx(1.0, abs=1e-12)
        assert result.assa == pytest.approx(0.5, abs=1e-9)
        for row in result.per_alpha:
            assert row.deta == pytest.approx(1.0, abs=1e-12)
            assert row.assa == pytest.approx(0.5, abs=1e-9)

    def test_detector_only_degradation(self):
        gt = _single_object(range(1, 4))
        box = gt.track(1)[0].box
        far = BoundingBox(cx=0.9, cy=0.1, w=0.04, h=0.04)
        pred = tracklets_from_rows(
            [(1, f, box, 1.0) for f in range(1, 4)]
            + [(2, f, far, 0.9) for f in range(1, 4)]
        )
        result = hota(gt, pred)
        assert result.deta == pytest.approx(0.5, abs=1e-12)
        assert result.assa == pytest.approx(1.0, abs=1e-12)
        assert result.hota == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_alpha_grid(self):
        assert len(ALPHA_GRID) == 19
        assert ALPHA_GRID[0] == pytest.approx(0.05)
        assert ALPHA_GRID[-1] == pytest.approx(0.95)
        gt = _single_object(range(1, 4))
        result = hota(gt, gt)
        assert tuple(r.alpha for r in result.per_alpha) == ALPHA_GRID

    def test_headline_is_mean_of_geometric_means(self):
        gt, pred = _noisy_case(seed=3)
        result = hota(gt, pred)
        want = sum(math.sqrt(r.deta * r.assa) for r in result.per_alpha) / len(
            result.per_alpha
        )
        assert result.hota == pytest.approx(want, abs=1e-9)

    def test_empty_cases(self):
        empty = Tracklets()
        assert hota(empty, empty).hota == 1.0
        gt = _single_object(range(1, 4))
        assert hota(gt, empty).hota == 0.0
        assert hota(empty, gt).hota == 0.0


@st.composite
def _fragmented_case(draw):
    """Ground truth and a prediction whose identities fragment, whose frames
    may hold one side only, and whose IoUs often sit on alpha grid points."""
    n_frames = draw(st.integers(1, 8))
    slots = disjoint_boxes(4, width=0.1)
    gt_rows, pred_rows = [], []
    for g, slot in enumerate(slots[: draw(st.integers(0, 4))], start=1):
        for f in sorted(draw(st.sets(st.integers(1, n_frames)))):
            gt_rows.append((g, f, slot, 1.0))
            kind = draw(st.sampled_from(["miss", "same", "grid", "shifted"]))
            if kind == "miss":
                continue
            if kind == "same":
                box = slot
            elif kind == "grid":
                # nested in the gt box: IoU k/20, up to rounding
                box = _resized(slot, draw(st.integers(1, 20)) / 20)
            else:
                box = _shift(slot, draw(st.sampled_from([0.01, 0.03, 0.06, 0.3])))
            # each gt identity is followed by up to three predicted identities
            pred_rows.append((10 * g + draw(st.integers(0, 2)), f, box, 1.0))
    stray = BoundingBox(cx=0.05, cy=0.05, w=0.04, h=0.04)
    for f in draw(st.sets(st.integers(1, n_frames), max_size=3)):
        pred_rows.append((1000, f, stray, 0.5))
    return tracklets_from_rows(gt_rows), tracklets_from_rows(pred_rows)


def _resized(box: BoundingBox, width_share: float) -> BoundingBox:
    return BoundingBox(cx=box.cx, cy=box.cy, w=box.w * width_share, h=box.h)


class TestHotaAgainstReference:
    """The alpha tally counted in one array pass equals the per-pair,
    per-alpha loop, to the bit and at every alpha."""

    @given(case=_fragmented_case())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_reference(self, case):
        gt, pred = case
        assert hota(gt, pred) == hota_reference(gt, pred)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_tracked_scene(self, seed):
        gt, pred = _noisy_case(seed=seed)
        assert hota(gt, pred) == hota_reference(gt, pred)


class TestInvariances:
    def test_identity_relabeling(self):
        gt, pred = _noisy_case(seed=7)
        base = evaluate(gt, pred)
        rng = np.random.default_rng(0)
        ids = pred.identities
        for _ in range(20):
            perm = rng.permutation(len(ids))
            mapping = {old: 1000 + int(new) for old, new in zip(ids, perm)}
            relabeled = tracklets_from_rows(
                [
                    (mapping[identity], obs.frame, obs.box, obs.score)
                    for identity, track in pred
                    for obs in track
                ]
            )
            got = evaluate(gt, relabeled)
            assert got.ids == base.ids
            assert got.fp == base.fp
            assert got.fn == base.fn
            assert got.mota == pytest.approx(base.mota, abs=1e-12)
            assert got.idf1 == pytest.approx(base.idf1, abs=1e-12)
            assert got.hota == pytest.approx(base.hota, abs=1e-12)

    def test_scale_invariance(self):
        gt, pred = _noisy_case(seed=9)

        def scaled(t: Tracklets) -> Tracklets:
            return tracklets_from_rows(
                [
                    (
                        identity,
                        obs.frame,
                        BoundingBox(
                            cx=obs.box.cx * 1920,
                            cy=obs.box.cy * 1080,
                            w=obs.box.w * 1920,
                            h=obs.box.h * 1080,
                        ),
                        obs.score,
                    )
                    for identity, track in t
                    for obs in track
                ]
            )

        a = evaluate(gt, pred)
        b = evaluate(scaled(gt), scaled(pred))
        assert b.hota == pytest.approx(a.hota, abs=1e-12)
        assert b.mota == pytest.approx(a.mota, abs=1e-12)
        assert b.idf1 == pytest.approx(a.idf1, abs=1e-12)
        assert (b.ids, b.fp, b.fn) == (a.ids, a.fp, a.fn)

    def test_monotone_degradation(self):
        # deleting genuine true positives never helps any score.  Tracks
        # must not cross: once trajectories overlap, the trajectory-level
        # matchings may reroute and the F-scores stop being monotone.
        rng = np.random.default_rng(4)
        for _ in range(8):
            n_obj = int(rng.integers(2, 5))
            n_frames = int(rng.integers(8, 15))
            gt = Tracklets()
            for identity, box in enumerate(disjoint_boxes(n_obj), start=1):
                for frame in range(int(rng.integers(1, 4)), n_frames + 1):
                    gt.add(identity, frame, box)
            rows = [
                (identity, obs.frame, obs.box, obs.score)
                for identity in gt.identities
                for obs in gt.track(identity)
            ]
            report = evaluate(gt, tracklets_from_rows(rows))
            assert report.hota == 1.0
            for _ in range(4):
                if not rows:
                    break
                del rows[int(rng.integers(len(rows)))]
                got = evaluate(gt, tracklets_from_rows(rows))
                assert got.hota <= report.hota + 1e-9
                assert got.idf1 <= report.idf1 + 1e-9
                assert got.mota <= report.mota + 1e-9
                report = got


class TestMetricsReport:
    def test_json_field_names(self):
        gt, pred = _noisy_case(seed=2)
        doc = evaluate(gt, pred).to_json_dict()
        assert list(doc)[:8] == ["hota", "deta", "assa", "mota", "idf1", "ids", "fp", "fn"]
        assert isinstance(doc["ids"], int)
        assert "per_alpha" in doc
        assert len(doc["per_alpha"]) == 19
        json.dumps(doc)

    def test_undefined_mota_serializes_as_null(self):
        pred = _single_object(range(1, 3))
        report = evaluate(Tracklets(), pred)
        doc = report.to_json_dict()
        assert doc["mota"] is None
        assert json.loads(json.dumps(doc))["mota"] is None

    def test_text_table(self):
        gt, _, _ = _two_objects(3)
        table = evaluate(gt, gt).text_table()
        lines = table.splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("hota")
        assert "1.0000" in lines[0]
        undefined = evaluate(Tracklets(), Tracklets()).text_table()
        assert "undefined" in undefined

    def test_perfect_end_to_end(self):
        gt, _, _ = _two_objects(4)
        report = evaluate(gt, gt)
        assert report == MetricsReport(
            hota=1.0, deta=1.0, assa=1.0, mota=1.0, idf1=1.0, ids=0, fp=0, fn=0,
            per_alpha=report.per_alpha,
        )


def _report_digest(pairs) -> str:
    h = hashlib.sha256()
    for gt, pred in pairs:
        h.update(json.dumps(evaluate(gt, pred).to_json_dict()).encode())
    return h.hexdigest()


class TestReportDigest:
    """Every metric pinned to the bit: digests of the full report,
    recorded from the per-pair scalar implementation."""

    def test_random_small_cases(self):
        rng = np.random.default_rng(2024)
        pairs = [_random_small_case(rng) for _ in range(20)]
        assert _report_digest(pairs) == (
            "f1c01b36972ee4918fd5e9ccc902c0f4752628fb70bef600e25b37f14a1f60cb"
        )

    def test_tracked_scene(self):
        scene = generate_scene(SceneConfig(n_frames=20, n_objects=40, seed=11))
        cfg = TrackerConfig(
            shadow=ShadowConfig(n_shadows=1, embed_dim=8), n_detection_sets=50
        )
        pred = track_scene(
            scene, cfg, OracleConfig(seed=11, box_noise_std=0.01, p_corrupt=0.1)
        )
        assert _report_digest([(scene.gt_tracklets(), pred)]) == (
            "b1666a305ab3008916c1e71c6f27e8bfe1d5a45194f0549894d50e83ff166dc6"
        )
