from __future__ import annotations

import numpy as np
import pytest

from shadowmot import (
    REDUCTIONS,
    BoundingBox,
    CostWeights,
    FrameGroundTruth,
    GroundTruthObject,
    LabelAssignment,
    SetCostTensor,
    ShadowSet,
    assign_detection_sets,
    assign_tracking_sets,
    build_set_cost_tensor,
    cola_targets,
    hungarian,
    reduce_set_costs,
    tala_targets,
)

from helpers import (
    UNIT_WEIGHTS,
    build_cost_matrix,
    disjoint_boxes,
    random_box,
    set_cost_tensor_reference,
)


def _gt(tracked_ids, newborn_ids, boxes=None):
    all_ids = list(tracked_ids) + list(newborn_ids)
    if boxes is None:
        boxes = disjoint_boxes(max(len(all_ids), 1))
    objs = {i: GroundTruthObject(identity=i, box=b) for i, b in zip(all_ids, boxes)}
    return FrameGroundTruth(
        tracked=tuple(objs[i] for i in tracked_ids),
        newborn=tuple(objs[i] for i in newborn_ids),
    )


def _track_set(identity, box=None, n_shadows=1):
    box = box or BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
    return ShadowSet(
        set_id=identity, role="tracking", anchor=box, n_shadows=n_shadows, identity=identity
    )


class TestFrameGroundTruth:
    def test_partition(self):
        objs = [GroundTruthObject(identity=i, box=b) for i, b in zip((7, 9, 11), disjoint_boxes(3))]
        gt = FrameGroundTruth.partition(objs, track_ids=[7, 9])
        assert [o.identity for o in gt.tracked] == [7, 9]
        assert [o.identity for o in gt.newborn] == [11]
        assert gt.identities == frozenset({7, 9, 11})

    def test_duplicate_identity_rejected(self):
        b = disjoint_boxes(2)
        with pytest.raises(ValueError):
            FrameGroundTruth(
                tracked=(GroundTruthObject(identity=1, box=b[0]),),
                newborn=(GroundTruthObject(identity=1, box=b[1]),),
            )

    def test_counts_add_up(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 7))
            ids = list(rng.choice(100, size=n, replace=False))
            objs = [GroundTruthObject(identity=int(i), box=random_box(rng)) for i in ids]
            tracked = [int(i) for i in ids[: n // 2]]
            gt = FrameGroundTruth.partition(objs, tracked)
            assert len(gt.tracked) + len(gt.newborn) == n


class TestCompetitionTargets:
    def test_all_tracks_alive(self):
        gt = _gt(tracked_ids=[7, 9], newborn_ids=[11])
        targets, candidates = tala_targets([7, 9], gt, layer=1, n_layers=6)
        assert targets == {7: 7, 9: 9}
        assert [c.identity for c in candidates] == [11]

    def test_disappeared_track_gets_background(self):
        gt = _gt(tracked_ids=[9], newborn_ids=[])
        targets, candidates = tala_targets([7, 9], gt, layer=2, n_layers=6)
        assert targets == {7: None, 9: 9}
        assert candidates == ()

    def test_first_frame(self):
        gt = _gt(tracked_ids=[], newborn_ids=[1, 2, 3])
        targets, candidates = tala_targets([], gt, layer=1, n_layers=6)
        assert targets == {}
        assert sorted(c.identity for c in candidates) == [1, 2, 3]

    def test_candidates_layer_independent(self):
        gt = _gt(tracked_ids=[7, 9], newborn_ids=[11])
        per_layer = [tala_targets([7, 9], gt, layer=l, n_layers=6) for l in range(1, 7)]
        assert all(p == per_layer[0] for p in per_layer)

    def test_duplicate_track_ids_rejected(self):
        gt = _gt(tracked_ids=[7], newborn_ids=[])
        with pytest.raises(ValueError):
            tala_targets([7, 7], gt, layer=1, n_layers=6)

    def test_layer_out_of_range_rejected(self):
        gt = _gt(tracked_ids=[], newborn_ids=[1])
        with pytest.raises(ValueError):
            tala_targets([], gt, layer=0, n_layers=6)
        with pytest.raises(ValueError):
            tala_targets([], gt, layer=7, n_layers=6)


class TestCoopetitionTargets:
    def test_intermediate_layer_offers_tracked_objects(self):
        gt = _gt(tracked_ids=[7, 9], newborn_ids=[11])
        targets, candidates = cola_targets([7, 9], gt, layer=3, n_layers=6)
        assert targets == {7: 7, 9: 9}
        assert sorted(c.identity for c in candidates) == [7, 9, 11]

    def test_final_layer_reverts_to_competition(self):
        gt = _gt(tracked_ids=[7, 9], newborn_ids=[11])
        targets, candidates = cola_targets([7, 9], gt, layer=6, n_layers=6)
        assert targets == {7: 7, 9: 9}
        assert [c.identity for c in candidates] == [11]

    def test_equal_to_competition_without_tracks(self):
        gt = _gt(tracked_ids=[], newborn_ids=[1, 2, 3])
        for layer in range(1, 7):
            assert cola_targets([], gt, layer, 6) == tala_targets([], gt, layer, 6)

    def test_track_targets_match_competition_at_every_layer(self):
        gt = _gt(tracked_ids=[4], newborn_ids=[6])
        for layer in range(1, 7):
            co, _ = cola_targets([4, 5], gt, layer, 6)
            comp, _ = tala_targets([4, 5], gt, layer, 6)
            assert co == comp

    def test_union_law_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(0, 7))
            ids = [int(i) for i in rng.choice(50, size=n, replace=False)]
            objs = [GroundTruthObject(identity=i, box=random_box(rng)) for i in ids]
            k = int(rng.integers(0, n + 1))
            track_ids = ids[:k] + [997, 998][: int(rng.integers(0, 3))]
            gt = FrameGroundTruth.partition(objs, track_ids)
            for layer in range(1, 7):
                _, tala_cands = tala_targets(track_ids, gt, layer, 6)
                _, cola_cands = cola_targets(track_ids, gt, layer, 6)
                tala_set = {c.identity for c in tala_cands}
                cola_set = {c.identity for c in cola_cands}
                if layer < 6:
                    assert cola_set == tala_set | {o.identity for o in gt.tracked}
                else:
                    assert cola_set == tala_set


class TestReduceSetCosts:
    def test_examples(self):
        t = SetCostTensor(
            costs=np.array([[[1.0], [2.0], [3.0]]]), set_ids=(0,), target_ids=(5,)
        )
        assert reduce_set_costs(t, "max").costs[0, 0] == 3.0
        assert reduce_set_costs(t, "min").costs[0, 0] == 1.0
        assert reduce_set_costs(t, "mean").costs[0, 0] == 2.0

    def test_single_shadow_is_identity(self):
        rng = np.random.default_rng(1)
        costs = rng.uniform(-5, 5, size=(4, 1, 3))
        t = SetCostTensor(costs=costs, set_ids=(0, 1, 2, 3), target_ids=(10, 11, 12))
        for how in REDUCTIONS:
            assert np.array_equal(reduce_set_costs(t, how).costs, costs[:, 0, :])

    def test_against_independent_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n_sets, ns, m = (int(rng.integers(1, 5)) for _ in range(3))
            costs = rng.uniform(-5, 5, size=(n_sets, ns, m))
            t = SetCostTensor(
                costs=costs,
                set_ids=tuple(range(n_sets)),
                target_ids=tuple(range(m)),
            )
            lo = reduce_set_costs(t, "min").costs
            mid = reduce_set_costs(t, "mean").costs
            hi = reduce_set_costs(t, "max").costs
            for i in range(n_sets):
                for k in range(m):
                    column = [costs[i, j, k] for j in range(ns)]
                    assert hi[i, k] == max(column)
                    assert lo[i, k] == min(column)
                    assert mid[i, k] == pytest.approx(sum(column) / ns, abs=1e-12)
                    assert lo[i, k] <= mid[i, k] <= hi[i, k]

    def test_labels_carried(self):
        t = SetCostTensor(costs=np.zeros((2, 1, 1)), set_ids=(4, 9), target_ids=(3,))
        m = reduce_set_costs(t, "max")
        assert m.row_labels == (4, 9)
        assert m.col_labels == (3,)

    def test_bad_reduction_rejected(self):
        t = SetCostTensor(costs=np.zeros((1, 1, 1)), set_ids=(0,), target_ids=(1,))
        with pytest.raises(ValueError):
            reduce_set_costs(t, "sum")


class TestSetCostTensor:
    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            SetCostTensor(costs=np.zeros((2, 2)), set_ids=(0, 1), target_ids=(0, 1))

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SetCostTensor(costs=np.zeros((2, 1, 1)), set_ids=(0,), target_ids=(1,))
        with pytest.raises(ValueError):
            SetCostTensor(costs=np.zeros((1, 1, 2)), set_ids=(0,), target_ids=(1,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SetCostTensor(
                costs=np.full((1, 1, 1), np.nan), set_ids=(0,), target_ids=(1,)
            )

    def test_build_from_predictions(self):
        rng = np.random.default_rng(5)
        preds = [
            [(random_box(rng), (0.8,)), (random_box(rng), (0.6,))],
            [(random_box(rng), (0.2,)), (random_box(rng), (0.9,))],
        ]
        cands = [GroundTruthObject(identity=3, box=random_box(rng))]
        t = build_set_cost_tensor(preds, [0, 1], cands, UNIT_WEIGHTS)
        assert t.shape == (2, 2, 1)
        assert t.target_ids == (3,)

    def test_mismatched_shadow_counts_rejected(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        preds = [[(b, (0.5,))], [(b, (0.5,)), (b, (0.5,))]]
        with pytest.raises(ValueError):
            build_set_cost_tensor(preds, [0, 1], [], UNIT_WEIGHTS)

    @pytest.mark.parametrize("ns", [1, 2, 3])
    def test_every_shadow_slice_equals_reference(self, ns):
        # exact, not approx: the tensor must reproduce the per-pair
        # reference bit for bit, over candidates of two classes
        rng = np.random.default_rng(40 + ns)
        w = CostWeights()
        preds = [
            [(random_box(rng), tuple(float(p) for p in rng.uniform(0.01, 0.99, size=2)))
             for _ in range(ns)]
            for _ in range(5)
        ]
        cands = [
            GroundTruthObject(identity=k + 1, box=random_box(rng), class_index=k % 2)
            for k in range(4)
        ]
        costs = build_set_cost_tensor(preds, list(range(5)), cands, w).costs
        gts = [(c.box, c.class_index) for c in cands]
        for j in range(ns):
            want = build_cost_matrix([p[j] for p in preds], gts, w).costs
            assert np.array_equal(costs[:, j, :], want)


class TestSetCostTensorBits:
    """One focal cost per distinct scores: the tensor keeps the bytes of
    one focal cost per shadow, whatever type the scores have."""

    @staticmethod
    def _problem(seed: int, score_of):
        rng = np.random.default_rng(seed)
        # three classes, few distinct scores, so that shadows share them
        levels = (0.0, -0.0, 0.9, 0.25, 1.0)
        preds = [
            [(random_box(rng), score_of([levels[k] for k in rng.integers(0, 5, size=3)], rng))
             for _ in range(3)]
            for _ in range(6)
        ]
        cands = [GroundTruthObject(identity=k + 1, box=random_box(rng), class_index=k % 3)
                 for k in range(5)]
        return preds, cands

    @pytest.mark.parametrize("score_of", [
        lambda v, rng: tuple(v),
        lambda v, rng: list(v),
        lambda v, rng: tuple(np.float64(x) for x in v),
        lambda v, rng: np.array(v),
        lambda v, rng: tuple(np.float32(x) for x in v),
        lambda v, rng: [np.float32(x) if rng.random() < 0.5 else x for x in v],
        lambda v, rng: tuple(int(x) if x in (0.0, 1.0) and rng.random() < 0.5 else x for x in v),
    ], ids=["tuple", "list", "numpy-float", "numpy-array", "numpy-float32", "mixed-float32",
            "mixed-int"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_shadow_reference(self, score_of, seed):
        preds, cands = self._problem(seed, score_of)
        for w in (CostWeights(), UNIT_WEIGHTS, CostWeights(w_class=0.3, alpha=0.6, gamma=1.0)):
            got = build_set_cost_tensor(preds, list(range(6)), cands, w).costs
            assert got.tobytes() == set_cost_tensor_reference(preds, cands, w).tobytes()

    def test_equal_values_of_two_types_are_not_shared(self):
        # 0.5 and float32 0.5 are equal keys, but the float32 one rounds
        # its focal cost in float32
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        preds = [[(b, (0.5,))], [(b, (np.float32(0.5),))]]
        cands = [GroundTruthObject(identity=1, box=b)]
        got = build_set_cost_tensor(preds, [0, 1], cands, CostWeights()).costs
        want = set_cost_tensor_reference(preds, cands, CostWeights())
        assert got[0, 0, 0] != got[1, 0, 0]
        assert got.tobytes() == want.tobytes()


class TestAssignDetectionSets:
    def test_overlapping_set_wins(self):
        target_box = BoundingBox(cx=0.3, cy=0.3, w=0.1, h=0.1)
        far_box = BoundingBox(cx=0.8, cy=0.8, w=0.1, h=0.1)
        preds = [[(target_box, (0.9,))], [(far_box, (0.9,))]]
        cands = [GroundTruthObject(identity=5, box=target_box)]
        out = assign_detection_sets(preds, [0, 1], cands, UNIT_WEIGHTS, "mean", layer=1)
        assert out.detection == {0: 5, 1: None}

    def test_no_candidates_all_background(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        preds = [[(b, (0.9,))], [(b, (0.1,))]]
        out = assign_detection_sets(preds, [0, 1], [], UNIT_WEIGHTS, "max", layer=2)
        assert out.detection == {0: None, 1: None}

    def test_broadcast_constant_within_set(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ns = int(rng.integers(1, 4))
            n_sets = int(rng.integers(1, 5))
            m = int(rng.integers(0, 5))
            preds = [
                [(random_box(rng), (float(rng.uniform()),)) for _ in range(ns)]
                for _ in range(n_sets)
            ]
            cands = [
                GroundTruthObject(identity=100 + k, box=random_box(rng))
                for k in range(m)
            ]
            out = assign_detection_sets(
                preds, list(range(n_sets)), cands, UNIT_WEIGHTS, "max", layer=3
            )
            for sid in range(n_sets):
                shadow_view = out.shadow_targets("detection", sid)
                assert len(shadow_view) == ns
                assert len(set(shadow_view)) == 1

    def test_single_shadow_matches_plain_assignment(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n_sets = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            preds = [[(random_box(rng), (float(rng.uniform(0.05, 0.95)),))] for _ in range(n_sets)]
            cands = [
                GroundTruthObject(identity=40 + k, box=random_box(rng)) for k in range(m)
            ]
            for how in REDUCTIONS:
                out = assign_detection_sets(
                    preds, list(range(n_sets)), cands, UNIT_WEIGHTS, how, layer=1
                )
                matrix = build_cost_matrix(
                    [p[0] for p in preds], [(c.box, c.class_index) for c in cands], UNIT_WEIGHTS
                )
                plain = {sid: None for sid in range(n_sets)}
                for row, col in hungarian(matrix).pairs:
                    plain[row] = cands[col].identity
                assert out.detection == plain

    def test_competition_holds(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n_sets = int(rng.integers(1, 7))
            m = int(rng.integers(0, 7))
            preds = [
                [(random_box(rng), (float(rng.uniform()),)) for _ in range(2)]
                for _ in range(n_sets)
            ]
            cands = [
                GroundTruthObject(identity=k, box=random_box(rng)) for k in range(m)
            ]
            out = assign_detection_sets(
                preds, list(range(n_sets)), cands, UNIT_WEIGHTS, "min", layer=1
            )
            assigned = [t for t in out.detection.values() if t is not None]
            assert len(assigned) == len(set(assigned))
            assert len(assigned) == min(n_sets, m)


class TestAssignTrackingSets:
    def test_identity_present(self):
        gt = _gt(tracked_ids=[4], newborn_ids=[])
        out = assign_tracking_sets([_track_set(4, n_shadows=3)], gt, layer=1)
        assert out.tracking == {4: 4}
        assert out.shadow_targets("tracking", 4) == (4, 4, 4)

    def test_identity_absent(self):
        gt = _gt(tracked_ids=[], newborn_ids=[8])
        out = assign_tracking_sets([_track_set(4)], gt, layer=1)
        assert out.tracking == {4: None}

    def test_no_swap_regardless_of_boxes(self):
        # identity binding ignores geometry: give each set the other object's box
        boxes = disjoint_boxes(2)
        gt = _gt(tracked_ids=[4, 5], newborn_ids=[], boxes=boxes)
        sets = [_track_set(4, box=boxes[1]), _track_set(5, box=boxes[0])]
        out = assign_tracking_sets(sets, gt, layer=2)
        assert out.tracking == {4: 4, 5: 5}

    def test_duplicate_identities_rejected(self):
        gt = _gt(tracked_ids=[4], newborn_ids=[])
        with pytest.raises(ValueError):
            assign_tracking_sets([_track_set(4), _track_set(4)], gt, layer=1)

    def test_detection_role_rejected(self):
        anchor = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        det = ShadowSet(set_id=0, role="detection", anchor=anchor, n_shadows=1)
        gt = _gt(tracked_ids=[], newborn_ids=[1])
        with pytest.raises(ValueError):
            assign_tracking_sets([det], gt, layer=1)


class TestLabelAssignment:
    def test_competition_enforced_per_role(self):
        with pytest.raises(ValueError):
            LabelAssignment(layer=1, n_shadows=1, tracking={1: 5, 2: 5})
        with pytest.raises(ValueError):
            LabelAssignment(layer=1, n_shadows=1, detection={1: 5, 2: 5})

    def test_cross_role_duplicate_allowed(self):
        # the coopetition exception: one tracking slot plus one detection slot
        a = LabelAssignment(layer=2, n_shadows=2, tracking={7: 7}, detection={0: 7})
        assert a.tracking[7] == a.detection[0] == 7

    def test_background_never_conflicts(self):
        LabelAssignment(layer=1, n_shadows=1, tracking={1: None, 2: None})

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            LabelAssignment(layer=0, n_shadows=1)
