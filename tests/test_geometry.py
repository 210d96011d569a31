from __future__ import annotations

import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from shadowmot import (
    BoundingBox,
    CostWeights,
    GroundTruthObject,
    build_set_cost_tensor,
    format_mot,
)

from helpers import (
    corners,
    giou,
    iou,
    l1_distance,
    pairwise,
    pairwise_reference,
    to_pixel,
    tracklets_from_rows,
)

coords = st.floats(min_value=-0.5, max_value=1.5, allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, cx=coords, cy=coords, w=sizes, h=sizes)


def _kernel(term: int):
    """One entry of ``pairwise`` on 1x1 inputs, as a two-box function."""
    def one_pair(a: BoundingBox, b: BoundingBox) -> float:
        return float(pairwise([a], [b])[term][0, 0])
    return one_pair


# every one-pair case runs on the scalar reference and on the kernel
IOUS = (iou, _kernel(0))
GIOUS = (giou, _kernel(1))
L1S = (l1_distance, _kernel(2))


class TestBoundingBox:
    def test_fields_and_area(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.2, h=0.4)
        assert b.w * b.h == pytest.approx(0.08)
        assert corners(b) == (
            pytest.approx(0.4),
            pytest.approx(0.3),
            pytest.approx(0.6),
            pytest.approx(0.7),
        )

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(cx=0.5, cy=0.5, w=-0.1, h=0.2)
        with pytest.raises(ValueError):
            BoundingBox(cx=0.5, cy=0.5, w=0.1, h=-0.2)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                BoundingBox(cx=bad, cy=0.5, w=0.1, h=0.1)
            with pytest.raises(ValueError):
                BoundingBox(cx=0.5, cy=0.5, w=bad, h=0.1)

    def test_zero_extent_allowed(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.0, h=0.0)
        assert b.w * b.h == 0.0

    def test_out_of_range_centers_allowed(self):
        BoundingBox(cx=-0.2, cy=1.3, w=0.1, h=0.1)


class TestIou:
    def test_identity_is_exactly_one(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.2, h=0.2)
        for f in IOUS:
            assert f(b, b) == 1.0

    def test_identity_exact_for_awkward_floats(self):
        # widths whose corner differences do not round-trip through cx +/- w/2
        for w in (0.2, 0.3, 0.1, 0.7, 1e-3):
            b = BoundingBox(cx=0.4 + w, cy=0.3, w=w, h=w)
            for f in IOUS:
                assert f(b, b) == 1.0

    def test_corner_touching_is_zero(self):
        a = BoundingBox(cx=0.25, cy=0.25, w=0.5, h=0.5)
        b = BoundingBox(cx=0.75, cy=0.75, w=0.5, h=0.5)
        for f in IOUS:
            assert f(a, b) == 0.0

    def test_half_shifted_unit_boxes(self):
        a = BoundingBox(cx=0.5, cy=0.5, w=1.0, h=1.0)
        b = BoundingBox(cx=0.75, cy=0.75, w=1.0, h=1.0)
        for f in IOUS:
            assert f(a, b) == pytest.approx(9.0 / 23.0, abs=1e-12)

    def test_zero_area_degenerate(self):
        a = BoundingBox(cx=0.5, cy=0.5, w=0.0, h=0.0)
        for f in IOUS:
            assert f(a, a) == 0.0

    @given(a=boxes, b=boxes)
    @settings(max_examples=500)
    def test_symmetry_and_range(self, a, b):
        for f in IOUS:
            v = f(a, b)
            assert v == f(b, a)
            assert 0.0 <= v <= 1.0


class TestGiou:
    def test_identity_is_exactly_one(self):
        b = BoundingBox(cx=0.37, cy=0.81, w=0.23, h=0.11)
        for f in GIOUS:
            assert f(b, b) == 1.0

    def test_diagonal_disjoint_unit_boxes(self):
        a = BoundingBox(cx=0.5, cy=0.5, w=1.0, h=1.0)
        b = BoundingBox(cx=1.5, cy=1.5, w=1.0, h=1.0)
        for f in GIOUS:
            assert f(a, b) == pytest.approx(-0.5, abs=1e-12)

    def test_diagonal_overlapping_two_by_two(self):
        a = BoundingBox(cx=1.0, cy=1.0, w=2.0, h=2.0)
        b = BoundingBox(cx=2.0, cy=2.0, w=2.0, h=2.0)
        for f in GIOUS:
            assert f(a, b) == pytest.approx(1.0 / 7.0 - 2.0 / 9.0, abs=1e-12)

    def test_degenerate_hull_is_zero(self):
        a = BoundingBox(cx=0.5, cy=0.5, w=0.0, h=0.0)
        for f in GIOUS:
            assert f(a, a) == 0.0

    @given(a=boxes, b=boxes)
    @settings(max_examples=500)
    def test_symmetry_range_and_iou_bound(self, a, b):
        for f, iou_f in zip(GIOUS, IOUS):
            g = f(a, b)
            assert g == f(b, a)
            assert -1.0 <= g <= 1.0
            assert g <= iou_f(a, b) + 1e-12


class TestL1Distance:
    def test_identity_is_zero(self):
        b = BoundingBox(cx=0.1, cy=0.2, w=0.3, h=0.4)
        for f in L1S:
            assert f(b, b) == 0.0

    def test_single_component_shift(self):
        a = BoundingBox(cx=0.5, cy=0.5, w=0.2, h=0.2)
        b = BoundingBox(cx=0.6, cy=0.5, w=0.2, h=0.2)
        for f in L1S:
            assert f(a, b) == pytest.approx(0.1, abs=1e-12)

    def test_all_components(self):
        a = BoundingBox(cx=0.1, cy=0.2, w=0.3, h=0.4)
        b = BoundingBox(cx=0.2, cy=0.4, w=0.1, h=0.1)
        for f in L1S:
            assert f(a, b) == pytest.approx(0.8, abs=1e-12)

    @given(a=boxes, b=boxes)
    @settings(max_examples=500)
    def test_symmetry_and_nonnegativity(self, a, b):
        for f in L1S:
            d = f(a, b)
            assert d == f(b, a)
            assert d >= 0.0


@st.composite
def box_lists(draw, max_size: int = 6):
    """Box lists rich in the edge cases of the overlap formulas: zero
    width or height, exact repeats, boxes sharing an edge, and centres
    outside the frame."""
    base = draw(st.lists(boxes, max_size=max_size))
    out = []
    for b in base:
        kind = draw(st.sampled_from(["plain", "flat", "repeat", "touch"]))
        if kind == "flat":
            b = (BoundingBox(b.cx, b.cy, 0.0, b.h) if draw(st.booleans())
                 else BoundingBox(b.cx, b.cy, b.w, 0.0))
        elif kind == "repeat" and out:
            b = draw(st.sampled_from(out))
        elif kind == "touch" and out:
            o = draw(st.sampled_from(out))
            b = BoundingBox(o.cx + (o.w + b.w) / 2.0, o.cy, b.w, b.h)
        out.append(b)
    return out


class TestPairwise:
    @given(a=box_lists(), b=box_lists())
    @settings(max_examples=300)
    def test_equals_scalar_reference_exactly(self, a, b):
        got_iou, got_giou, got_l1 = pairwise(a, b + a)
        for terms, ref in ((got_iou, iou), (got_giou, giou), (got_l1, l1_distance)):
            assert terms.shape == (len(a), len(a) + len(b))
            want = np.array([[ref(x, y) for y in b + a] for x in a]).reshape(terms.shape)
            assert np.array_equal(terms, want)

    def test_empty_sides(self):
        some = [BoundingBox(0.5, 0.5, 0.1, 0.1)] * 3
        for a, b in (([], some), (some, []), ([], [])):
            for terms in pairwise(a, b):
                assert terms.shape == (len(a), len(b))
                assert terms.dtype == float


# box components as large as a scene document allows
scene_coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
scene_sizes = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def scene_box_lists(draw, max_size: int = 8):
    """Box lists up to the scene bound of 1e6, rich in zero-area,
    identical, touching, nested and far-apart boxes."""
    base = draw(st.lists(st.builds(BoundingBox, scene_coords, scene_coords,
                                   scene_sizes, scene_sizes), max_size=max_size))
    out = []
    for b in base:
        kind = draw(st.sampled_from(["plain", "flat", "point", "repeat", "touch", "nested", "far"]))
        if kind == "flat":
            b = BoundingBox(b.cx, b.cy, 0.0, b.h)
        elif kind == "point":
            b = BoundingBox(b.cx, b.cy, 0.0, 0.0)
        elif kind == "repeat" and out:
            b = draw(st.sampled_from(out))
        elif kind == "touch" and out:
            o = draw(st.sampled_from(out))
            b = BoundingBox(o.cx, o.cy + (o.h + b.h) / 2.0, b.w, b.h)
        elif kind == "nested" and out:
            o = draw(st.sampled_from(out))
            f = draw(st.floats(0.0, 1.0))
            b = BoundingBox(o.cx, o.cy, o.w * f, o.h * f)
        elif kind == "far":
            b = BoundingBox(-1e6 if b.cx > 0 else 1e6, b.cy, b.w, b.h)
        out.append(b)
    return out


def _bits(f, *args) -> object:
    """The bytes of every array ``f`` returns, or the warning or error it
    raises, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return [np.asarray(t).tobytes() for t in f(*args)]
        except (ArithmeticError, ValueError, RuntimeWarning) as exc:
            return repr(exc)


class TestKernelBits:
    """The GIoU/L1 kernel reuses buffers; each entry keeps the bits of the
    one-expression formula, and any warning it gives."""

    @given(a=scene_box_lists(), b=scene_box_lists())
    @settings(max_examples=300)
    def test_pairwise_equals_reference(self, a, b):
        assert _bits(pairwise, a, b + a) == _bits(pairwise_reference, a, b + a)

    @given(a=scene_box_lists(), b=scene_box_lists())
    @settings(max_examples=200, deadline=None)
    def test_tensor_terms_equal_reference(self, a, b):
        # with the other weights 0, the tensor is l1, or 0.0 - giou
        predictions = [[(box, (0.5,))] for box in a]
        candidates = [GroundTruthObject(k, box) for k, box in enumerate(b + a)]
        _, want_giou, want_l1 = pairwise_reference(a, b + a)
        for w, want in ((CostWeights(0.0, 1.0, 0.0), want_l1),
                        (CostWeights(0.0, 0.0, 1.0), 0.0 - want_giou)):
            got = build_set_cost_tensor(predictions, range(len(a)), candidates, w).costs
            assert got[:, 0, :].tobytes() == want.tobytes()


def _normalized(pixel, img_w, img_h):
    """Center-format normalized (cx, cy, w, h) of a pixel top-left box."""
    left, top, width, height = pixel
    return (
        (left + width / 2.0) / img_w,
        (top + height / 2.0) / img_h,
        width / img_w,
        height / img_h,
    )


class TestPixelConversion:
    def test_full_frame(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=1.0, h=1.0)
        assert to_pixel(b, 1920, 1080) == (0.0, 0.0, 1920.0, 1080.0)

    def test_quarter_box(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.5, h=0.5)
        assert to_pixel(b, 100, 200) == (25.0, 50.0, 50.0, 100.0)

    def test_round_trip(self):
        b = BoundingBox(cx=0.3137, cy=0.7211, w=0.0917, h=0.2203)
        r = _normalized(to_pixel(b, 1920, 1080), 1920, 1080)
        for got, want in zip(r, (b.cx, b.cy, b.w, b.h)):
            assert got == pytest.approx(want, rel=1e-9)

    def test_non_positive_image_rejected(self):
        b = BoundingBox(cx=0.5, cy=0.5, w=0.5, h=0.5)
        for w, h in ((0, 100), (100, 0), (-5, 100)):
            for tracklets in (tracklets_from_rows([(1, 1, b, 1.0)]), tracklets_from_rows([])):
                with pytest.raises(ValueError, match=f"image dimensions must be positive, got {w}x{h}"):
                    format_mot(tracklets, (w, h))

    @given(b=st.builds(
        BoundingBox,
        cx=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        cy=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        w=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        h=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    ))
    @settings(max_examples=300)
    def test_round_trip_property(self, b):
        cx, cy, w, h = _normalized(to_pixel(b, 1920, 1080), 1920, 1080)
        assert cx == pytest.approx(b.cx, rel=1e-9, abs=1e-12)
        assert cy == pytest.approx(b.cy, rel=1e-9, abs=1e-12)
        assert w == pytest.approx(b.w, rel=1e-9, abs=1e-12)
        assert h == pytest.approx(b.h, rel=1e-9, abs=1e-12)
