"""Box representation and the geometric primitives all matching costs build on.

The canonical box format everywhere in this package is normalized
center-format ``(cx, cy, w, h)``; corner format exists only transiently,
made by ``_corners``, the one place that writes the corner formula, which
the MOT reader's corner bound and the MOT writer's pixel left and top use
too.  Boxes are deliberately never clamped to ``[0, 1]``: the oracle
decoder may emit slightly out-of-range boxes and all costs must remain
well-defined on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import _MODULES

__all__ = _MODULES["geometry"]


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
        if (math.isfinite(self.cx) and math.isfinite(self.cy) and math.isfinite(self.w)
                and math.isfinite(self.h) and self.w >= 0 and self.h >= 0):
            return  # one test of a valid box; only a fault runs the loop that names it
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box component {name} must be finite, got {v!r}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box extent must be non-negative, got w={self.w}, h={self.h}")


def _rows(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """``[n, 4]``: the ``(cx, cy, w, h)`` row of each of ``n`` boxes."""
    flat = chain.from_iterable([(x.cx, x.cy, x.w, x.h) for x in boxes])
    return np.fromiter(flat, float, 4 * len(boxes)).reshape(-1, 4)


def _pairwise_rows(rows_a: np.ndarray, rows_b: np.ndarray) -> tuple[np.ndarray, ...]:
    """IoU, GIoU and L1 distance of every box row of ``rows_a`` (``[n, 4]``)
    against every one of ``rows_b`` (``[m, 4]``), each ``[n, m]``.

    Only elementwise ``+ - * /``, ``abs``, ``minimum``/``maximum`` and
    comparisons enter, in one fixed order, so each entry has the bits of
    the one-pair formula.  Intersection, union and hull share one set of
    corners, so identical boxes give IoU and GIoU exactly 1.  IoU is 0
    where the union is empty, GIoU is 0 where the hull is empty.
    """
    corners_a, corners_b = _corners(rows_a), _corners(rows_b)
    iou, union = _iou(corners_a, corners_b)
    ax1, ay1, ax2, ay2 = corners_a[:, :, np.newaxis]
    bx1, by1, bx2, by2 = corners_b[:, np.newaxis, :]
    # the formula's steps in its op order, each writing into a reused buffer
    hull = np.maximum(ax2, bx2)
    scratch = np.minimum(ax1, bx1)
    hull -= scratch
    giou = np.maximum(ay2, by2)
    giou -= np.minimum(ay1, by1, out=scratch)
    hull *= giou
    positive = hull > 0.0
    spill = np.maximum(np.subtract(hull, union, out=giou), 0.0, out=giou)
    spill = np.divide(spill, hull, out=np.zeros_like(hull), where=positive)
    giou = np.subtract(iou, spill, out=spill)
    np.copyto(giou, 0.0, where=~positive)
    l1 = np.zeros_like(hull)
    for a, b in zip(rows_a.T[:, :, np.newaxis], rows_b.T[:, np.newaxis, :]):
        l1 += np.abs(np.subtract(a, b, out=scratch), out=scratch)
    return iou, giou, l1


def _corners(rows: np.ndarray) -> np.ndarray:
    """``[4, n]``: the ``(x1, y1, x2, y2)`` column of each of ``n`` box rows."""
    cx, cy, w, h = rows.T
    return np.array((cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0))


def _iou(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and union of every corner column of ``a`` (``[4, n]``) against
    every one of ``b`` (``[4, m]``), each ``[n, m]``: the part of
    ``_pairwise_rows`` that the metrics and the oracle read."""
    ax1, ay1, ax2, ay2 = a[:, :, np.newaxis]
    bx1, by1, bx2, by2 = b[:, np.newaxis, :]
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = area_a + area_b - inter
    iou = np.minimum(np.divide(inter, union, out=np.zeros_like(union), where=union > 0.0), 1.0)
    return iou, union

