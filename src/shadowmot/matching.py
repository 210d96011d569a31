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

__all__ = [
    "ClassScores",
    "CostWeights",
    "CostMatrix",
    "Assignment",
    "focal_cost",
    "hungarian",
]

# Per-class post-activation scores in [0, 1]; not required to sum to 1.
ClassScores = Sequence[float]


@dataclass(frozen=True)
class CostWeights:
    """Coefficients of the matching cost and focal-cost parameters.

    Defaults follow the DETR/MOTR-family convention (2, 5, 2).  The
    unweighted preset is available as :meth:`unit`.
    """

    w_class: float = 2.0
    w_l1: float = 5.0
    w_giou: float = 2.0
    alpha: float = 0.25
    gamma: float = 2.0
    eps: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("w_class", "w_l1", "w_giou"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma!r}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")

    @classmethod
    def unit(cls) -> "CostWeights":
        """Unweighted preset: all three components enter with weight 1."""
        return cls(w_class=1.0, w_l1=1.0, w_giou=1.0)


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

    @property
    def shape(self) -> tuple[int, int]:
        return self.costs.shape


@dataclass(frozen=True)
class Assignment:
    """Result of a rectangular assignment: matched pairs plus the leftovers."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...] = ()
    unmatched_cols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rows = [r for r, _ in self.pairs]
        cols = [c for _, c in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("pairs must form a matching: no repeated row or col")

    def total_cost(self, cost: CostMatrix | np.ndarray) -> float:
        costs = cost.costs if isinstance(cost, CostMatrix) else np.asarray(cost)
        return float(sum(costs[r, c] for r, c in self.pairs))


def focal_cost(scores: ClassScores, target_class: int, w: CostWeights) -> float:
    """Focal classification cost of predicting ``target_class``.

    With ``p`` the predicted score of the target class this is
    ``alpha * (1-p)**gamma * (-log(p+eps)) - (1-alpha) * p**gamma * (-log(1-p+eps))``,
    strictly decreasing in ``p`` on (0, 1).
    """
    if not 0 <= target_class < len(scores):
        raise IndexError(
            f"target class {target_class} out of range for {len(scores)} class scores"
        )
    p = scores[target_class]
    pos = w.alpha * (1.0 - p) ** w.gamma * (-math.log(p + w.eps))
    neg = (1.0 - w.alpha) * p**w.gamma * (-math.log(1.0 - p + w.eps))
    return pos - neg


def _shortest_augmenting_path(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a minimum-cost assignment of a non-empty
    matrix with no NaN or -inf entry.

    A port of ``rectangular_lsap.cpp``, the solver behind SciPy's
    ``linear_sum_assignment`` (D. F. Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016).  It makes the same choice at
    every tie, so both return the same pairs.
    Only the scan over the remaining columns is vectorised; its arithmetic
    keeps the C++ evaluation order, so every reduced cost is the same double.
    """
    transpose = costs.shape[1] < costs.shape[0]
    if transpose:
        costs = costs.T
    costs = np.ascontiguousarray(costs)
    nr, nc = costs.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    path = np.full(nc, -1)
    col4row = np.full(nr, -1)
    row4col = np.full(nc, -1)

    for cur_row in range(nr):
        shortest = np.full(nc, np.inf)
        in_sr = np.zeros(nr, dtype=bool)
        in_sc = np.zeros(nc, dtype=bool)
        # filled in reverse, so that a constant matrix gives the identity;
        # a visited column is swap-removed
        remaining = np.arange(nc - 1, -1, -1)
        n_remaining = nc
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            in_sr[i] = True
            cols = remaining[:n_remaining]
            reduced = min_val + costs[i, cols] - u[i] - v[cols]
            dist = shortest[cols]
            better = reduced < dist
            path[cols[better]] = i
            np.copyto(dist, reduced, where=better)
            shortest[cols] = dist
            # among the columns at the minimum the last unassigned one
            # wins; if none is unassigned, the first one does
            index = int(dist.argmin())
            min_val = dist[index]
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            free = ((dist == min_val) & (row4col[cols] == -1)).nonzero()[0]
            if free.size:
                index = int(free[-1])
            j = int(cols[index])
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
            in_sc[j] = True
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]

        u[cur_row] += min_val
        in_sr[cur_row] = False
        u[in_sr] += min_val - shortest[col4row[in_sr]]
        v[in_sc] -= min_val - shortest[in_sc]

        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur_row:
                break

    if transpose:
        order = np.argsort(col4row, kind="stable")
        return col4row[order], order
    return np.arange(nr), col4row


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
    or the first one if all of them are assigned.
    """
    costs = cost.costs if isinstance(cost, CostMatrix) else np.asarray(cost, dtype=float)
    if costs.ndim != 2:
        raise ValueError(f"cost matrix must be 2-dimensional, got shape {costs.shape}")
    if costs.shape[0] == 0 or costs.shape[1] == 0:
        return Assignment(
            pairs=(),
            unmatched_rows=tuple(range(costs.shape[0])),
            unmatched_cols=tuple(range(costs.shape[1])),
        )
    if np.isnan(costs).any():
        raise ValueError("cost matrix contains NaN entries")
    if (costs == -np.inf).any():
        raise ValueError("cost matrix contains -inf entries")
    rows, cols = _shortest_augmenting_path(costs)
    pairs = tuple(sorted(zip(rows.tolist(), cols.tolist())))
    matched_rows = {r for r, _ in pairs}
    matched_cols = {c for _, c in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_rows=tuple(r for r in range(costs.shape[0]) if r not in matched_rows),
        unmatched_cols=tuple(c for c in range(costs.shape[1]) if c not in matched_cols),
    )
