"""Shared test utilities: brute-force oracles and scenario builders."""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np

import shadowmot
from shadowmot import BoundingBox, CostMatrix, CostWeights, Tracklets, pair_cost


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


def build_cost_matrix(preds, gts, w: CostWeights) -> CostMatrix:
    """Pairwise cost matrix of (box, scores) predictions against
    (box, class) targets, one ``pair_cost`` per entry.  The independent
    single-shadow reference that set cost tensors are compared against."""
    costs = np.empty((len(preds), len(gts)), dtype=float)
    for i, (pbox, pscores) in enumerate(preds):
        for j, (gbox, gclass) in enumerate(gts):
            costs[i, j] = pair_cost(pbox, pscores, gbox, gclass, w)
    return CostMatrix(costs)


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
