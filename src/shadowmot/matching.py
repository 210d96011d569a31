"""Matching cost construction and the rectangular linear-assignment solver.

The matching cost between a prediction and a ground-truth target is the
weighted sum of a focal classification cost, an L1 box cost, and a negated
GIoU overlap cost.  Costs are assembled into a rectangular matrix and solved
optimally; the surplus side of a rectangular problem is simply left
unmatched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _MODULES
from .config import _MAX_SCALE, _check_spread

__all__ = _MODULES["matching"]

# Per-class post-activation scores in [0, 1], as focal_cost checks; need not sum to 1.
ClassScores = Sequence[float]

# keeps the focal cost's logarithms finite at scores of exactly 0 and 1
_FOCAL_EPS = 1e-8


@dataclass(frozen=True)
class CostWeights:
    """Coefficients of the matching cost and focal-cost parameters.

    Defaults follow the DETR/MOTR-family convention (2, 5, 2).
    """

    w_class: float = 2.0
    w_l1: float = 5.0
    w_giou: float = 2.0
    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self) -> None:
        for name in ("w_class", "w_l1", "w_giou"):
            _check_spread(name, getattr(self, name), _MAX_SCALE)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha: must lie in (0, 1), got {self.alpha!r}")
        _check_spread("gamma", self.gamma)


@dataclass(frozen=True)
class CostMatrix:
    """Rectangular cost matrix with its row/column labels.

    Rows are candidate queries (or query sets), columns are ground-truth
    targets; labels identify them for downstream assignment bookkeeping.
    """

    costs: np.ndarray
    row_labels: tuple = ()
    col_labels: tuple = ()

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2:
            raise ValueError(f"cost matrix must be 2-dimensional, got shape {costs.shape}")
        object.__setattr__(self, "costs", costs)
        if self.row_labels and len(self.row_labels) != costs.shape[0]:
            raise ValueError("row labels do not match matrix height")
        if self.col_labels and len(self.col_labels) != costs.shape[1]:
            raise ValueError("col labels do not match matrix width")
        if costs.size and not np.all(np.isfinite(costs)):
            raise ValueError("cost matrix entries must be finite")


@dataclass(frozen=True)
class Assignment:
    """Result of a rectangular assignment: the matched (row, col) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        rows = [r for r, _ in self.pairs]
        cols = [c for _, c in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("pairs must form a matching: no repeated row or col")


def focal_cost(scores: ClassScores, target_class: int, w: CostWeights) -> float:
    """Focal classification cost of predicting ``target_class``.

    With ``p`` the predicted score of the target class this is
    ``alpha * (1-p)**gamma * (-log(p+eps)) - (1-alpha) * p**gamma * (-log(1-p+eps))``
    with ``eps`` the constant ``_FOCAL_EPS``, strictly decreasing in ``p`` on (0, 1).
    """
    if not 0 <= target_class < len(scores):
        raise IndexError(
            f"target class {target_class} out of range for {len(scores)} class scores"
        )
    p = scores[target_class]
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"scores[{target_class}]: must lie in [0, 1], got {p!r}")
    pos = w.alpha * (1.0 - p) ** w.gamma * (-math.log(p + _FOCAL_EPS))
    neg = (1.0 - w.alpha) * p**w.gamma * (-math.log(1.0 - p + _FOCAL_EPS))
    return pos - neg


def _shortest_augmenting_path(costs: np.ndarray) -> tuple[list[int], list[int]]:
    """Row and column indices of a minimum-cost assignment of a non-empty
    matrix with no NaN or -inf entry.

    A port of ``rectangular_lsap.cpp``, the solver behind SciPy's
    ``linear_sum_assignment`` (D. F. Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016).  It makes the same choice at
    every tie, so both return the same pairs.  A tall matrix is solved
    transposed and mapped back through a stable sort, as there.

    A greedy prefix settles the leading rows first, from whole-matrix numpy
    minima: each row in order takes the lowest-index unassigned column among
    its least entries, and the first row with no such column, or with only
    ``+inf`` entries, ends the prefix.  The search then goes on from that
    row.  This is exact.  While every dual ``v`` is zero, the first scan of
    a fresh row computes ``((0.0 + c) - 0.0) - 0.0``, which is ``c`` but for
    the sign of a zero, which no comparison sees.  SciPy's tie rule takes
    the lowest-index unassigned column among the minima, and when that
    column is free the path ends there: ``u[i]`` becomes ``0.0 + low``,
    ``v`` loses ``low - low`` and stays zero, and the ``path`` entries the
    scan would have written are set again by any later search before it
    reads them.  On the metric matrices a benchmark ``eval`` solves, the
    prefix settles every row.  The tests keep the search without the prefix
    as their oracle, ``lsap_reference``.

    The search's scan over the remaining columns runs over Python lists.
    Nearly every matrix the commands solve is at most 60 columns wide,
    where numpy's per-call overhead would outweigh the work.  A numpy scan
    is faster only above about 150 columns, and on the one such matrix a
    benchmark ``eval`` solves, IDF1's 40x324, it saved no measurable time.
    Every reduced cost is the same double as in the C++, and SciPy's tie
    rule is one test per column: a strictly lower cost wins, and so does
    an equal one whose column is unassigned.  A table of each column's
    slot in the list finds a visited column without a search.
    """
    transpose = costs.shape[1] < costs.shape[0]
    m = costs.T if transpose else costs
    nr, nc = m.shape
    inf = math.inf
    u = [0.0] * nr
    col4row = [-1] * nr
    row4col = [-1] * nc

    first = 0
    for low, j in zip(m.min(axis=1).tolist(), m.argmin(axis=1).tolist()):
        if low == inf:
            break
        if row4col[j] != -1:
            # argmin is the first minimum; a later one may still be free
            free = [k for k in np.flatnonzero(m[first] == low).tolist() if row4col[k] == -1]
            if not free:
                break
            j = free[0]
        u[first] = 0.0 + low
        col4row[first] = j
        row4col[j] = first
        first += 1

    c = m.tolist() if first < nr else []
    v = [0.0] * nc
    path = [-1] * nc
    all_inf = [inf] * nc
    # filled in reverse, so that a constant matrix gives the identity
    all_cols = list(range(nc - 1, -1, -1))
    # per-row buffers, refilled for each row
    shortest = all_inf[:]
    remaining: list[int] = []
    slot: list[int] = []
    visited_rows: list[int] = []
    visited_cols: list[int] = []

    for cur_row in range(first, nr):
        shortest[:] = all_inf
        remaining[:] = all_cols
        slot[:] = all_cols  # a reversal is its own inverse: j sits at all_cols[j]
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
            # a visited column is swap-removed: the last one takes its slot
            moved = remaining[slot[j]] = remaining[-1]
            slot[moved] = slot[j]
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


def hungarian(cost: CostMatrix | np.ndarray) -> Assignment:
    """Minimum-total-cost assignment of size ``min(rows, cols)``.

    Rectangular matrices are handled by leaving the surplus side unmatched.
    ``+inf`` marks a forbidden pair; NaN, ``-inf`` and a matrix with no
    finite assignment of full size are a ValueError.  Ties among equally
    optimal assignments are broken exactly as by SciPy's
    ``linear_sum_assignment``: a tall matrix is solved transposed; rows
    are added one at a time, in order; each row's search keeps the columns
    still to visit in a list filled from the last column to the first,
    from which a visited column is swap-removed; and among the listed
    columns at the least reduced cost the last unassigned one is taken,
    or the first one if all of them are assigned.  The leading rows whose
    least entry lies in a column no earlier row took are settled first,
    without a search, on the lowest-index such column: that is the column
    the search would take for them, so the pairs, the ties and the
    ``infeasible`` error stay the same.
    """
    checked = isinstance(cost, CostMatrix)  # whose constructor rejected NaN and -inf
    costs = cost.costs if checked else np.asarray(cost, dtype=float)
    if costs.ndim != 2:
        raise ValueError(f"cost matrix must be 2-dimensional, got shape {costs.shape}")
    if costs.shape[0] == 0 or costs.shape[1] == 0:
        return Assignment(pairs=())
    if not checked and np.isnan(costs).any():
        raise ValueError("cost matrix contains NaN entries")
    if not checked and (costs == -np.inf).any():
        raise ValueError("cost matrix contains -inf entries")
    rows, cols = _shortest_augmenting_path(costs)
    return Assignment(pairs=tuple(sorted(zip(rows, cols))))
