"""Box representation and the geometric primitives all matching costs build on.

The canonical box format everywhere in this package is normalized
center-format ``(cx, cy, w, h)``; corner format exists only transiently
inside the IoU/GIoU computations.  Boxes are deliberately never clamped to
``[0, 1]``: the oracle decoder may emit slightly out-of-range boxes and all
costs must remain well-defined on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundingBox",
    "iou",
    "giou",
    "l1_distance",
    "to_pixel",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized center format.

    Components are nominally in ``[0, 1]`` but only ``w >= 0``, ``h >= 0``
    and finiteness are enforced; out-of-frame boxes are legal inputs to
    every geometric primitive.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box component {name} must be finite, got {v!r}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box extent must be non-negative, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> tuple[float, float, float, float]:
        """Return ``(x1, y1, x2, y2)`` corner coordinates."""
        return (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )


def _overlap_terms(a: BoundingBox, b: BoundingBox) -> tuple[float, float, float]:
    """Intersection, union, and enclosing-hull areas.

    All three derive from the same corner coordinates so that identical
    boxes yield intersection == union == hull exactly, keeping the identity
    cases of IoU and GIoU at 1.0 with no rounding residue.
    """
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
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
    """Generalized IoU: ``iou - (hull - union) / hull``, in ``[-1, 1]``.

    A degenerate enclosing hull (both boxes zero-area at one point)
    returns 0, mirroring the zero-union IoU convention.
    """
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


def to_pixel(
    box: BoundingBox, img_w: float, img_h: float
) -> tuple[float, float, float, float]:
    """Convert a normalized center-format box to pixel top-left format,
    the MOTChallenge file convention: ``(left, top, width, height)``."""
    if img_w <= 0 or img_h <= 0:
        raise ValueError(f"image dimensions must be positive, got {img_w}x{img_h}")
    return (
        (box.cx - box.w / 2.0) * img_w,
        (box.cy - box.h / 2.0) * img_h,
        box.w * img_w,
        box.h * img_h,
    )
