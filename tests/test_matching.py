from __future__ import annotations

import math
import signal

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linear_sum_assignment

from shadowmot import (
    Assignment,
    BoundingBox,
    CostMatrix,
    CostWeights,
    GroundTruthObject,
    build_set_cost_tensor,
    focal_cost,
    hungarian,
)
from shadowmot.matching import _FOCAL_EPS, _shortest_augmenting_path

from helpers import (
    UNIT_WEIGHTS,
    assignment_total,
    brute_force_min_cost,
    giou,
    lsap_reference,
    pair_cost,
    random_box,
)


class TestCostWeights:
    def test_defaults(self):
        w = CostWeights()
        assert (w.w_class, w.w_l1, w.w_giou) == (2.0, 5.0, 2.0)
        assert (w.alpha, w.gamma, _FOCAL_EPS) == (0.25, 2.0, 1e-8)

    def test_unit_preset(self):
        assert (UNIT_WEIGHTS.w_class, UNIT_WEIGHTS.w_l1, UNIT_WEIGHTS.w_giou) == (1.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostWeights(w_class=-1.0)
        with pytest.raises(ValueError):
            CostWeights(alpha=0.0)
        with pytest.raises(ValueError):
            CostWeights(alpha=1.0)
        with pytest.raises(ValueError):
            CostWeights(gamma=-0.5)
        with pytest.raises(ValueError):
            CostWeights(w_l1=math.nan)


class TestFocalCost:
    def test_half_probability(self):
        assert focal_cost((0.5,), 0, UNIT_WEIGHTS) == pytest.approx(
            -0.08664339506999316, abs=1e-12
        )

    def test_high_probability(self):
        assert focal_cost((0.9,), 0, UNIT_WEIGHTS) == pytest.approx(
            -1.3985569819825194, abs=1e-12
        )

    def test_low_probability(self):
        assert focal_cost((0.1,), 0, UNIT_WEIGHTS) == pytest.approx(
            0.46548325729719486, abs=1e-12
        )

    def test_certain_probability(self):
        assert focal_cost((1.0,), 0, UNIT_WEIGHTS) == pytest.approx(
            -13.815510557964275, abs=1e-12
        )

    def test_monotone_decreasing(self):
        grid = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        costs = [focal_cost((p,), 0, UNIT_WEIGHTS) for p in grid]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_picks_target_class(self):
        scores = (0.1, 0.9, 0.3)
        assert focal_cost(scores, 1, UNIT_WEIGHTS) == focal_cost((0.9,), 0, UNIT_WEIGHTS)

    def test_invalid_class_rejected(self):
        with pytest.raises(IndexError):
            focal_cost((0.5, 0.5), 2, UNIT_WEIGHTS)
        with pytest.raises(IndexError):
            focal_cost((0.5,), -2, UNIT_WEIGHTS)

    # a score outside [0, 1] once failed in math.log ("math domain error"),
    # and a NaN one only in the cost tensor's finiteness check
    @pytest.mark.parametrize("p", [1.0000001, 1.5, -0.5, math.nan],
                             ids=["just-above-one", "above-one", "negative", "nan"])
    def test_score_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError) as info:
            focal_cost((0.2, p), 1, UNIT_WEIGHTS)
        assert str(info.value) == f"scores[1]: must lie in [0, 1], got {p!r}"

    @pytest.mark.parametrize("p", [1.0000001, 1.5, -0.5, math.nan],
                             ids=["just-above-one", "above-one", "negative", "nan"])
    def test_tensor_names_the_set_and_shadow_of_a_bad_score(self, p):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        preds = [[(b, (0.5,)), (b, (0.5,))], [(b, (0.5,)), (b, (p,))], [(b, (p,)), (b, (p,))]]
        cands = [GroundTruthObject(identity=1, box=b)]
        with pytest.raises(ValueError) as info:
            build_set_cost_tensor(preds, [4, 7, 9], cands, UNIT_WEIGHTS)
        assert str(info.value) == f"set 7 shadow 1: scores[0]: must lie in [0, 1], got {p!r}"

    def test_tensor_raises_in_shadow_then_class_order(self):
        # the first shadow's fault is raised, whichever kind it is
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        cands = [GroundTruthObject(identity=k, box=b, class_index=k) for k in (0, 1)]
        with pytest.raises(IndexError, match="target class 1 out of range for 1 class scores"):
            build_set_cost_tensor([[(b, (0.5,))], [(b, (1.5, 0.5))]], [0, 1], cands, UNIT_WEIGHTS)
        with pytest.raises(ValueError, match=r"^set 0 shadow 0: scores\[0\]: "):
            build_set_cost_tensor([[(b, (1.5, 0.5))], [(b, (0.5,))]], [0, 1], cands, UNIT_WEIGHTS)


class TestPairCost:
    def test_perfect_prediction(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.2, h=0.2)
        got = pair_cost(b, (1.0,), b, 0, UNIT_WEIGHTS)
        assert got == pytest.approx(-14.815510557964275, abs=1e-9)

    def test_half_confidence(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.2, h=0.2)
        got = pair_cost(b, (0.5,), b, 0, UNIT_WEIGHTS)
        assert got == pytest.approx(-1.0866433950699932, abs=1e-12)

    def test_overlap_term_only(self):
        w = CostWeights(w_class=0.0, w_l1=0.0, w_giou=1.0)
        a = BoundingBox(cx=0.5, cy=0.5, w=1.0, h=1.0)
        b = BoundingBox(cx=1.5, cy=1.5, w=1.0, h=1.0)
        assert pair_cost(a, (0.5,), b, 0, w) == pytest.approx(0.5, abs=1e-12)

    def test_weighted_composition(self):
        rng = np.random.default_rng(7)
        w = CostWeights()
        for _ in range(50):
            pb, gb = random_box(rng), random_box(rng)
            p = float(rng.uniform(0.05, 0.95))
            got = pair_cost(pb, (p,), gb, 0, w)
            want = (
                w.w_class * focal_cost((p,), 0, w)
                + w.w_l1 * sum(
                    abs(x - y)
                    for x, y in zip((pb.cx, pb.cy, pb.w, pb.h), (gb.cx, gb.cy, gb.w, gb.h))
                )
                - w.w_giou * giou(pb, gb)
            )
            assert got == pytest.approx(want, abs=1e-12)


class TestCostMatrix:
    # pairwise costs come from the set cost tensor's single-shadow case
    def test_shape_and_labels(self):
        rng = np.random.default_rng(3)
        preds = [(random_box(rng), (0.7,)) for _ in range(4)]
        gts = [GroundTruthObject(identity=10 + k, box=random_box(rng)) for k in range(2)]
        t = build_set_cost_tensor([[p] for p in preds], [5, 6, 7, 8], gts, UNIT_WEIGHTS)
        assert t.shape == (4, 1, 2)
        assert t.set_ids == (5, 6, 7, 8)
        assert t.target_ids == (10, 11)
        for i in range(4):
            for j in range(2):
                assert t.costs[i, 0, j] == pytest.approx(
                    pair_cost(preds[i][0], preds[i][1], gts[j].box, gts[j].class_index, UNIT_WEIGHTS),
                    abs=1e-12,
                )

    def test_empty_sides(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.2, h=0.2)
        gts = [GroundTruthObject(identity=k, box=b) for k in range(3)]
        assert build_set_cost_tensor([], [], gts, UNIT_WEIGHTS).shape == (0, 1, 3)
        assert build_set_cost_tensor([[(b, (0.5,))]] * 2, [0, 1], [], UNIT_WEIGHTS).shape == (2, 1, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(costs=np.array([[1.0, math.nan]]))
        with pytest.raises(ValueError):
            CostMatrix(costs=np.array([[math.inf]]))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(costs=np.zeros(3))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(costs=np.zeros((2, 2)), row_labels=("a",))
        with pytest.raises(ValueError):
            CostMatrix(costs=np.zeros((2, 2)), col_labels=("x", "y", "z"))


class TestHungarian:
    def test_known_two_by_two(self):
        a = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert a.pairs == ((0, 0), (1, 1))

    def test_known_anti_diagonal(self):
        a = hungarian(np.array([[10.0, 1.0], [1.0, 10.0]]))
        assert a.pairs == ((0, 1), (1, 0))

    def test_rectangular_rows_exceed_cols(self):
        costs = np.array([[5.0], [1.0], [3.0]])
        a = hungarian(costs)
        # rows 0 and 2 are left over
        assert a.pairs == ((1, 0),)

    def test_rectangular_cols_exceed_rows(self):
        costs = np.array([[5.0, 1.0, 3.0]])
        a = hungarian(costs)
        # cols 0 and 2 are left over
        assert a.pairs == ((0, 1),)

    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 4))).pairs == ()
        assert hungarian(np.zeros((3, 0))).pairs == ()

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[1.0, math.nan], [2.0, 3.0]]))

    def test_accepts_cost_matrix_wrapper(self):
        m = CostMatrix(costs=np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert hungarian(m).pairs == ((0, 0), (1, 1))

    def test_total_cost(self):
        costs = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert assignment_total(costs, hungarian(costs).pairs) == 2.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            costs = rng.uniform(-10.0, 10.0, size=(n, m))
            got = assignment_total(costs, hungarian(costs).pairs)
            assert got == brute_force_min_cost(costs)

    def test_matches_brute_force_on_integer_ties(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            costs = rng.integers(-3, 4, size=(n, m)).astype(float)
            got = assignment_total(costs, hungarian(costs).pairs)
            assert got == brute_force_min_cost(costs)


def _tie_heavy_costs(kind: str, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """A cost matrix of the kind the callers of ``hungarian`` build."""
    if kind == "float":
        # with exact zeros, as in HOTA's negated alignment-weighted scores
        return rng.uniform(-1.0, 1.0, size=shape) * (rng.random(shape) < 0.7)
    if kind == "all-equal":
        return np.full(shape, float(rng.integers(-2, 3)))
    if kind == "small-int":
        return rng.integers(0, 3, size=shape).astype(float)
    if kind == "gated-iou":
        # CLEAR's gate, on quantised overlaps so that equal costs occur
        iou = rng.integers(0, 5, size=shape) / 4.0
        threshold = float(rng.choice([0.25, 0.5, 0.75]))
        return np.where(iou >= threshold, 1.0 - iou, 1e9)
    if kind == "negated-counts":
        # IDF1 maximises frame counts by minimising their negation
        return -rng.integers(0, 4, size=shape).astype(float)
    if kind == "negated-tenths":
        # tenths are not exact doubles, so the order in which a reduced cost
        # is summed decides which of two equal costs is the lower
        return -rng.integers(0, 10, size=shape) / 10.0
    if kind == "signed-zeros":
        # a zero of either sign is a tie that only the order of a sum breaks
        return rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape)
    if kind in ("distinct-minima", "prefix-then-collision", "inf-row"):
        # built as the solver sees it, short side as rows: each row's least
        # entry sits in a column of its own, so the greedy prefix settles
        # every row until the one that the kind then spoils
        short, long = sorted(shape)
        cols = rng.permutation(long)[:short]
        costs = rng.uniform(1.0, 2.0, size=(short, long))
        costs[np.arange(short), cols] = rng.uniform(0.0, 1.0, size=short)
        row = int(rng.integers(1, short)) if short > 1 else 0
        if kind == "prefix-then-collision" and row:
            # this row's least entry sits in an earlier row's column
            costs[row, cols[rng.integers(row)]] = -rng.uniform(0.0, 1.0)
        elif kind == "inf-row":
            costs[row] = np.inf
        return costs if shape[0] <= shape[1] else costs.T
    assert kind == "feasible-inf"
    costs = rng.integers(0, 3, size=shape).astype(float)
    costs[rng.random(shape) < 0.5] = np.inf
    k = min(shape)
    rows = rng.permutation(shape[0])[:k]
    cols = rng.permutation(shape[1])[:k]
    costs[rows, cols] = rng.integers(0, 3, size=k)
    return costs


_SHAPES = {
    "wide": st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 14))),
    "tall": st.integers(2, 9).flatmap(lambda n: st.tuples(st.integers(n + 1, 14), st.just(n))),
    "square": st.integers(1, 10).map(lambda n: (n, n)),
    "1xn": st.integers(1, 16).map(lambda n: (1, n)),
    "nx1": st.integers(1, 16).map(lambda n: (n, 1)),
    # the largest matrices the benchmark workloads solve, and the replay's
    "bench": st.sampled_from([(60, 60), (40, 324), (324, 40), (22, 60), (60, 22)]),
}


class TestSameTiesAsScipy:
    """scipy's ``linear_sum_assignment`` is the oracle: the in-tree solver
    must return its pairs exactly, which pins every tie that a metric digest
    depends on.  ``lsap_reference``, the search without the greedy prefix,
    must return them too."""

    @pytest.mark.parametrize("shape_kind", sorted(_SHAPES))
    @pytest.mark.parametrize("kind", [
        "float", "all-equal", "small-int", "gated-iou", "negated-counts", "negated-tenths",
        "feasible-inf", "distinct-minima", "prefix-then-collision", "signed-zeros", "inf-row",
    ])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_same_pairs(self, kind, shape_kind, data):
        shape = data.draw(_SHAPES[shape_kind], label="shape")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        costs = _tie_heavy_costs(kind, shape, np.random.default_rng(seed))
        if kind == "inf-row":
            for solve in (linear_sum_assignment, hungarian, lsap_reference):
                with pytest.raises(ValueError, match=r"^cost matrix is infeasible$"):
                    solve(costs)
            return
        rows, cols = linear_sum_assignment(costs)
        want = tuple(sorted(zip(rows.tolist(), cols.tolist())))
        assert hungarian(costs).pairs == want
        assert tuple(sorted(zip(*lsap_reference(costs)))) == want

    @pytest.mark.parametrize("costs", [
        [[1.0, math.nan], [2.0, 3.0]],
        [[1.0, -math.inf], [2.0, 3.0]],
        [[math.inf, math.inf], [1.0, 2.0]],
        [[1.0, math.inf], [2.0, math.inf]],
        [[math.inf], [math.inf]],
    ], ids=["nan", "minus-inf", "infeasible-row", "infeasible-col", "infeasible-tall"])
    def test_same_rejections(self, costs):
        with pytest.raises(ValueError):
            linear_sum_assignment(np.array(costs))
        with pytest.raises(ValueError):
            hungarian(np.array(costs))


def _search_outcome(solve, costs: np.ndarray) -> object:
    """The pairs ``solve`` returns, or its error; a search that has not
    ended within 10 s fails rather than hangs the suite."""
    def expire(signum, frame):
        raise TimeoutError("the search did not end")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        rows, cols = solve(costs)
    except ValueError as exc:
        return str(exc)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return list(rows), list(cols)


class TestColumnSlots:
    """The search finds a visited column's slot in its list of remaining
    columns from a table that each swap-removal updates.  It must return
    the pairs of ``lsap_reference``, which searches the list, and of scipy,
    on matrices whose rows need long searches: many ties, forbidden
    entries, and the replay's shapes."""

    @staticmethod
    def _check(costs: np.ndarray) -> None:
        want = _search_outcome(lsap_reference, costs)
        assert _search_outcome(_shortest_augmenting_path, costs) == want
        assert _search_outcome(lambda c: [a.tolist() for a in linear_sum_assignment(c)],
                               costs) == want

    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           forbidden=st.sampled_from([0.0, 0.2, 0.5]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_tie_heavy(self, shape, forbidden, seed):
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 3, size=shape).astype(float)
        costs[rng.random(shape) < forbidden] = np.inf
        self._check(costs)

    @pytest.mark.parametrize("width", [5, 11, 23, 40, 60])
    @pytest.mark.parametrize("seed", range(4))
    def test_replay_shapes(self, width, seed):
        rng = np.random.default_rng(seed)
        self._check(rng.uniform(-3.0, 6.0, size=(60, width)))


class TestAssignment:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            Assignment(pairs=((0, 0), (0, 1)))

    def test_duplicate_cols_rejected(self):
        with pytest.raises(ValueError):
            Assignment(pairs=((0, 1), (1, 1)))
