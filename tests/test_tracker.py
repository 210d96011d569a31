from __future__ import annotations

import math
import statistics

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shadowmot import (
    BoundingBox,
    FrameResult,
    ShadowConfig,
    ShadowTracker,
    Tracklets,
    TrackerConfig,
    reduce_values,
)

from helpers import TrackerReference, by_frame, random_box, run_tracker


def _cfg(n_sets=2, ns=1, phi="min", tau=0.5, patience=0):
    return TrackerConfig(
        shadow=ShadowConfig(
            n_shadows=ns, score_reduction=phi, tau=tau, embed_dim=4, init="copy"
        ),
        n_detection_sets=n_sets,
        patience=patience,
    )


def _preds_for(live, score_by_slot, box=None):
    """One prediction per live set: slot i gets score_by_slot[i] on all shadows."""
    box = box or BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
    return [
        [(box, (float(score_by_slot[i]),))] * s.n_shadows for i, s in enumerate(live)
    ]


class TestTrackerConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert cfg.n_layers == 6
        assert cfg.n_detection_sets == 60
        assert cfg.patience == 0
        assert cfg.assignment_mode == "cola"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(n_layers=0)
        with pytest.raises(ValueError):
            TrackerConfig(n_detection_sets=0)
        with pytest.raises(ValueError):
            TrackerConfig(patience=-1)
        with pytest.raises(ValueError):
            TrackerConfig(assignment_mode="hybrid")
        with pytest.raises(ValueError):
            TrackerConfig(n_detection_sets=300, patience=1000000)


class TestFrameResult:
    def test_duplicate_outputs_rejected(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        with pytest.raises(ValueError):
            FrameResult(frame=1, outputs=((1, b, 0.9), (1, b, 0.8)))

    def test_birth_without_output_rejected(self):
        with pytest.raises(ValueError):
            FrameResult(frame=1, outputs=(), births=(3,))


class TestTracklets:
    def test_add_and_views(self):
        t = Tracklets()
        b1, b2 = random_box(np.random.default_rng(0)), random_box(np.random.default_rng(1))
        t.add(5, 1, b1, 0.9)
        t.add(5, 2, b2, 0.8)
        t.add(7, 2, b1, 0.7)
        assert t.identities == (5, 7)
        assert sorted(by_frame(t)) == [1, 2]
        assert by_frame(t) == {1: {5: (b1, 0.9)}, 2: {5: (b2, 0.8), 7: (b1, 0.7)}}
        assert len(t) == 2
        assert t.n_boxes() == 3

    def test_out_of_order_frames_rejected(self):
        t = Tracklets()
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        t.add(1, 5, b)
        with pytest.raises(ValueError):
            t.add(1, 5, b)
        with pytest.raises(ValueError):
            t.add(1, 4, b)

    def test_from_entries_sorts(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        t = Tracklets.from_entries([(2, 3, b, 0.5), (1, 1, b, 0.9), (2, 1, b, 0.4)])
        assert t.identities == (1, 2)
        assert [o.frame for o in t.track(2)] == [1, 3]

    def test_equality(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        assert Tracklets.from_entries([(1, 1, b, 0.9)]) == Tracklets.from_entries(
            [(1, 1, b, 0.9)]
        )
        assert Tracklets.from_entries([(1, 1, b, 0.9)]) != Tracklets()
        assert not Tracklets()


class TestLifecycle:
    def test_first_frame_births(self):
        tracker = ShadowTracker(_cfg(n_sets=2), seed=0)
        live = tracker.live_sets()
        assert len(live) == 2
        result = tracker.step(_preds_for(live, [0.9, 0.2]))
        assert result.frame == 1
        assert result.births == (1,)
        assert result.deaths == ()
        assert [i for i, _, _ in result.outputs] == [1]
        assert tracker.track_identities == (1,)

    def test_threshold_is_strict(self):
        tracker = ShadowTracker(_cfg(n_sets=1, tau=0.5), seed=0)
        result = tracker.step(_preds_for(tracker.live_sets(), [0.5]))
        assert result.outputs == ()
        assert tracker.track_identities == ()

    def test_death_with_zero_patience(self):
        tracker = ShadowTracker(_cfg(n_sets=1), seed=0)
        tracker.step(_preds_for(tracker.live_sets(), [0.9]))
        result = tracker.step(_preds_for(tracker.live_sets(), [0.4, 0.1]))
        assert result.deaths == (1,)
        assert result.outputs == ()
        assert tracker.track_identities == ()

    def test_patience_bridges_one_miss(self):
        tracker = ShadowTracker(_cfg(n_sets=1, patience=1), seed=0)
        tracker.step(_preds_for(tracker.live_sets(), [0.9]))
        mid = tracker.step(_preds_for(tracker.live_sets(), [0.4, 0.1]))
        assert mid.deaths == ()
        assert mid.outputs == ()
        assert tracker.track_identities == (1,)
        back = tracker.step(_preds_for(tracker.live_sets(), [0.9, 0.1]))
        assert [i for i, _, _ in back.outputs] == [1]
        assert back.births == ()

    def test_patience_exhausted(self):
        tracker = ShadowTracker(_cfg(n_sets=1, patience=1), seed=0)
        tracker.step(_preds_for(tracker.live_sets(), [0.9]))
        tracker.step(_preds_for(tracker.live_sets(), [0.4, 0.1]))
        result = tracker.step(_preds_for(tracker.live_sets(), [0.4, 0.1]))
        assert result.deaths == (1,)

    def test_miss_counter_resets_on_hit(self):
        tracker = ShadowTracker(_cfg(n_sets=1, patience=1), seed=0)
        tracker.step(_preds_for(tracker.live_sets(), [0.9]))
        tracker.step(_preds_for(tracker.live_sets(), [0.4, 0.1]))
        tracker.step(_preds_for(tracker.live_sets(), [0.9, 0.1]))
        tracker.step(_preds_for(tracker.live_sets(), [0.4, 0.1]))
        # one fresh miss after the reset must not kill the track
        assert tracker.track_identities == (1,)

    def test_identities_never_reused(self):
        tracker = ShadowTracker(_cfg(n_sets=1), seed=0)
        tracker.step(_preds_for(tracker.live_sets(), [0.9]))
        tracker.step(_preds_for(tracker.live_sets(), [0.1, 0.1]))
        result = tracker.step(_preds_for(tracker.live_sets(), [0.9]))
        assert result.births == (2,)

    def test_emits_best_shadow(self):
        tracker = ShadowTracker(_cfg(n_sets=1, ns=3, phi="min", tau=0.1), seed=0)
        live = tracker.live_sets()
        boxes = [BoundingBox(cx=c, cy=0.5, w=0.1, h=0.1) for c in (0.2, 0.4, 0.6)]
        preds = [[(boxes[0], (0.3,)), (boxes[1], (0.8,)), (boxes[2], (0.5,))]]
        result = tracker.step(preds)
        ident, box, score = result.outputs[0]
        assert score == 0.8
        assert box.cx == 0.4

    def test_gate_uses_reduction_not_best(self):
        # min over shadows below tau: no birth even though one shadow is hot
        tracker = ShadowTracker(_cfg(n_sets=1, ns=3, phi="min", tau=0.5), seed=0)
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        preds = [[(b, (0.4,)), (b, (0.9,)), (b, (0.9,))]]
        assert tracker.step(preds).outputs == ()
        tracker2 = ShadowTracker(_cfg(n_sets=1, ns=3, phi="max", tau=0.5), seed=0)
        assert len(tracker2.step(preds).outputs) == 1

    def test_cardinality_mismatch_rejected(self):
        tracker = ShadowTracker(_cfg(n_sets=2), seed=0)
        with pytest.raises(ValueError):
            tracker.step(_preds_for(tracker.live_sets()[:1], [0.9]))

    def test_shadow_count_mismatch_rejected(self):
        tracker = ShadowTracker(_cfg(n_sets=1, ns=2), seed=0)
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        with pytest.raises(ValueError):
            tracker.step([[(b, (0.9,))]])

    def test_track_sets_precede_bank(self):
        tracker = ShadowTracker(_cfg(n_sets=2), seed=0)
        tracker.step(_preds_for(tracker.live_sets(), [0.9, 0.2]))
        live = tracker.live_sets()
        assert len(live) == 3
        assert live[0].role == "tracking"
        assert live[1].role == "detection"
        assert live[0].identity == 1

    def test_promoted_set_reanchors_on_predictions(self):
        tracker = ShadowTracker(_cfg(n_sets=1), seed=0)
        box = BoundingBox(cx=0.31, cy=0.62, w=0.05, h=0.08)
        tracker.step(_preds_for(tracker.live_sets(), [0.9], box=box))
        assert tracker.live_sets()[0].anchor == box


class TestRun:
    def test_zero_frames(self):
        tracker = ShadowTracker(_cfg(), seed=0)
        result = run_tracker(tracker, 0, lambda f, live: [])
        assert result == Tracklets()

    def test_steady_object(self):
        tracker = ShadowTracker(_cfg(n_sets=2), seed=0)

        def provider(frame, live):
            return _preds_for(live, [0.9] + [0.2] * (len(live) - 1))

        tracklets = run_tracker(tracker, 10, provider)
        assert tracklets.identities == (1,)
        assert [o.frame for o in tracklets.track(1)] == list(range(1, 11))

    def test_gap_splits_identity(self):
        tracker = ShadowTracker(_cfg(n_sets=1), seed=0)
        scores_by_frame = {3: 0.2, 4: 0.2}

        def provider(frame, live):
            # bank only fires while nothing is tracked, else it would
            # birth a duplicate of the same object every frame
            s = scores_by_frame.get(frame, 0.9)
            has_track = any(v.role == "tracking" for v in live)
            return _preds_for(
                live,
                [s if v.role == "tracking" or not has_track else 0.2 for v in live],
            )

        tracklets = run_tracker(tracker, 6, provider)
        assert tracklets.identities == (1, 2)
        assert [o.frame for o in tracklets.track(1)] == [1, 2]
        assert [o.frame for o in tracklets.track(2)] == [5, 6]


class _SingleQueryReference:
    """Plain one-query-per-track lifecycle, written independently of the
    tracker: same gate, same patience bookkeeping, no set machinery."""

    def __init__(self, n_slots: int, tau: float, patience: int) -> None:
        self.n_slots = n_slots
        self.tau = tau
        self.patience = patience
        self.tracks: list[int] = []
        self.misses: dict[int, int] = {}
        self.next_identity = 1

    def step(self, track_scores: list[float], det_scores: list[float]) -> list[int]:
        emitted = []
        kept = []
        for identity, s in zip(self.tracks, track_scores):
            if s > self.tau:
                emitted.append(identity)
                self.misses[identity] = 0
                kept.append(identity)
            else:
                m = self.misses.get(identity, 0) + 1
                if m <= self.patience:
                    self.misses[identity] = m
                    kept.append(identity)
        for s in det_scores:
            if s > self.tau:
                identity = self.next_identity
                self.next_identity += 1
                emitted.append(identity)
                self.misses[identity] = 0
                kept.append(identity)
        self.tracks = kept
        return emitted


class TestSingleShadowEquivalence:
    @pytest.mark.parametrize("phi", ["min", "mean", "max"])
    @pytest.mark.parametrize("patience", [0, 1])
    def test_matches_reference_on_random_streams(self, phi, patience):
        n_sets = 4
        rng = np.random.default_rng(100 + {"min": 0, "mean": 1, "max": 2}[phi] * 2 + patience)
        tracker = ShadowTracker(
            _cfg(n_sets=n_sets, ns=1, phi=phi, patience=patience), seed=0
        )
        ref = _SingleQueryReference(n_sets, tau=0.5, patience=patience)
        for _ in range(40):
            live = tracker.live_sets()
            n_tracks = len(live) - n_sets
            scores = [float(s) for s in rng.uniform(0, 1, size=len(live))]
            result = tracker.step(_preds_for(live, scores))
            want = ref.step(scores[:n_tracks], scores[n_tracks:])
            assert [i for i, _, _ in result.outputs] == want
            assert list(tracker.track_identities) == ref.tracks


class TestArrayLifecycle:
    """The tracker's array core against the per-set object loop in
    tests/helpers.py, fed the same object predictions."""

    @pytest.mark.parametrize("row", [
        (0.9, 0.1, 0.9), (0.9, 0.9, 0.9, 0.7), (0.9, 0.7, 0.3, 0.2, 0.2),
        (0.1, 0.1, 0.1, 0.1, 0.9, 0.7, 0.9, 0.3, 0.7),
        (0.2, 0.7, 0.7, 0.2, 0.3, 0.9, 0.9, 0.9, 0.2, 0.7, 0.9, 0.7, 0.9, 0.7, 0.7, 0.2, 0.9),
    ])
    def test_mean_gate_is_fmean(self, row):
        # fmean rounds once where np.mean need not; with tau between the
        # two, only fmean gives the reference's decision.  The numpy mean
        # is taken per row, as the gate takes it
        exact, numpy_mean = statistics.fmean(row), float(np.mean([row], axis=1)[0])
        assert exact != numpy_mean
        tau = min(exact, numpy_mean)
        cfg = _cfg(n_sets=1, ns=len(row), phi="mean", tau=tau)
        b = BoundingBox(cx=0.5, cy=0.5, w=0.1, h=0.1)
        preds = [[(b, (s,)) for s in row]]
        got = ShadowTracker(cfg, seed=0).step(preds)
        assert got == TrackerReference(cfg, seed=0).step(preds)
        assert got.births == ((1,) if exact > tau else ())

    @pytest.mark.parametrize("phi", ["min", "mean", "max"])
    def test_equal_scores_emit_shadow_zero(self, phi):
        boxes = [BoundingBox(cx=c, cy=0.5, w=0.1, h=0.1) for c in (0.2, 0.4, 0.6)]
        preds = [[(b, (0.8,)) for b in boxes]]
        cfg = _cfg(n_sets=1, ns=3, phi=phi)
        got = ShadowTracker(cfg, seed=0).step(preds)
        assert got == TrackerReference(cfg, seed=0).step(preds)
        assert got.outputs[0][1] == boxes[0]

    @pytest.mark.parametrize("phi", ["min", "mean", "max"])
    @pytest.mark.parametrize("patience", [0, 2])
    def test_equals_reference_on_random_streams(self, phi, patience):
        # scores on a coarse grid make ties between shadows common
        rng = np.random.default_rng(7 + patience)
        cfg = _cfg(n_sets=4, ns=3, phi=phi, patience=patience)
        tracker = ShadowTracker(cfg, seed=0)
        ref = TrackerReference(cfg, seed=0)
        for _ in range(40):
            live = tracker.live_sets()
            assert live == ref.live_sets()
            preds = [
                [(random_box(rng), (float(rng.integers(0, 5)) / 4,)) for _ in range(3)]
                for _ in live
            ]
            assert tracker.step(preds) == ref.step(preds)
            assert tracker.track_identities == ref.track_identities


def _reduce_outcome(row: list[float], tau: float):
    """``reduce_values(row, "mean") > tau``, or the error it raises."""
    try:
        return reduce_values(row, "mean") > tau
    except (ValueError, OverflowError) as exc:
        return exc


def _assert_gate_is_reduce_values(rows: list[list[float]], tau: float) -> None:
    """The births of one frame of bank sets with shadow scores ``rows``
    under the mean gate are the rows that ``reduce_values`` passes, and
    when it raises on some row the frame raises one of its errors."""
    ns = len(rows[0])
    tracker = ShadowTracker(_cfg(n_sets=len(rows), ns=ns, phi="mean", tau=tau), seed=0)
    want = [_reduce_outcome(row, tau) for row in rows]
    errors = [(type(w), str(w)) for w in want if isinstance(w, Exception)]
    asked: list[int] = []

    def boxes_of(sets: list[int]) -> np.ndarray:
        asked.extend(sets)
        return np.zeros((len(sets), ns, 4))

    try:
        result = tracker._advance(np.array(rows), boxes_of)
    except (ValueError, OverflowError) as exc:
        assert (type(exc), str(exc)) in errors
    else:
        assert not errors
        assert asked == [r for r, w in enumerate(want) if w]
        assert result.births == tuple(range(1, len(asked) + 1))


def _ulps(x: float, n: int) -> list[float]:
    """``x`` and its ``n`` neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return sorted(out)


# shadow scores: a coarse grid whose means round, values near the gate's
# usual tau, huge and tiny magnitudes, and the non-finite
_GATE_SCORES = st.sampled_from(
    [0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 0.9, 1.0, *_ulps(0.5, 3), 1e-300, 5e-324,
     1e308, -1e308, 8.98846567431158e307, math.inf, -math.inf, math.nan]
) | st.floats(0.0, 1.0)


class TestMeanGate:
    """The mean gate decides every row from numpy's mean unless that mean
    lies within a margin of tau, and then through ``reduce_values``; every
    decision, and every error, must be the one ``reduce_values`` gives."""

    @pytest.mark.parametrize("ns", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("tau", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_rows_at_tau_and_its_neighbours(self, ns, tau):
        rows = [[v] * ns for v in _ulps(tau, 4)]
        rows += [[v] + [tau] * (ns - 1) for v in _ulps(tau, 4)]
        _assert_gate_is_reduce_values(rows, tau)

    @pytest.mark.parametrize("row, error", [
        ([math.inf, 0.5], None),
        ([-math.inf, 0.5], None),
        ([math.nan, 0.5], None),
        ([math.inf, math.nan], None),
        ([math.inf, -math.inf], ValueError),
        ([1e308, 1e308, -1e308], OverflowError),
        # numpy sums the 16 values in 8 running sums, which stay finite,
        # and its mean lies far above tau; fsum overflows on the second value
        ([1e308, 1e308] + [0.0] * 6 + [-1e308, -0.9e308] + [0.0] * 6, OverflowError),
    ])
    def test_non_finite_and_overflowing_rows(self, row, error):
        want = _reduce_outcome(row, 0.5)
        assert isinstance(want, error) if error else isinstance(want, bool)
        _assert_gate_is_reduce_values([row], 0.5)
        _assert_gate_is_reduce_values([[0.9] * len(row), row, [0.1] * len(row)], 0.5)

    def test_numpy_mean_of_the_overflow_row_is_finite(self):
        row = [1e308, 1e308] + [0.0] * 6 + [-1e308, -0.9e308] + [0.0] * 6
        assert math.isfinite(float(np.mean(np.array([row]), axis=1)[0]))

    @given(
        ns=st.integers(1, 64),
        data=st.data(),
        tau_from=st.sampled_from(["numpy", "fsum", "grid"]),
        tau_grid=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
        shift=st.integers(-2, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reduce_values(self, ns, data, tau_from, tau_grid, shift):
        rows = data.draw(st.lists(st.lists(_GATE_SCORES, min_size=ns, max_size=ns),
                                  min_size=1, max_size=5))
        tau = tau_grid
        if tau_from != "grid":
            # a tau a few ulps from the first row's numpy or fsum mean
            try:
                with np.errstate(all="ignore"):
                    mean = float(np.mean(rows[:1], axis=1)[0]) if tau_from == "numpy" else statistics.fmean(rows[0])
            except (ValueError, OverflowError):
                mean = 0.5
            tau = min(max(_ulps(mean if 0.0 <= mean <= 1.0 else 0.5, 2)[2 + shift], 0.0), 1.0)
        _assert_gate_is_reduce_values(rows, tau)
