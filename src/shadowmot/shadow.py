"""Shadow-set query state and its reductions.

A shadow set is a group of queries standing in for one logical query: all
members share one label assignment during training and one identity at
inference.  This module owns set construction (three initialization
schemes), the score reduction used for alive/dead gating, and the
best-shadow output selection.  Gating and output selection are deliberately
separate operations: the gate applies a configurable reduction over the
whole set, while the emitted box always comes from the single
highest-scoring shadow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from .geometry import BoundingBox

__all__ = [
    "REDUCTIONS",
    "INIT_METHODS",
    "Reduction",
    "InitMethod",
    "Role",
    "QueryState",
    "ShadowSet",
    "ShadowConfig",
    "reduce_values",
    "init_query_bank",
    "select_output",
]

Reduction = Literal["min", "mean", "max"]
InitMethod = Literal["rand", "copy", "noise"]
Role = Literal["detection", "tracking"]

REDUCTIONS: tuple[str, ...] = ("min", "mean", "max")
INIT_METHODS: tuple[str, ...] = ("rand", "copy", "noise")


def reduce_values(values: Iterable[float], how: str) -> float:
    """Scalar min/mean/max reduction, the shared primitive behind both
    the training-cost reduction and the inference gate."""
    vals = list(values)
    if not vals:
        raise ValueError("cannot reduce an empty value list")
    if how == "min":
        return float(min(vals))
    if how == "max":
        return float(max(vals))
    if how == "mean":
        return float(fmean(vals))
    raise ValueError(f"unknown reduction {how!r}, expected one of {REDUCTIONS}")


@dataclass(frozen=True)
class QueryState:
    """One query: a 4-vector position with box semantics.  Components must
    be finite; positions are not clamped to the unit box because they are
    anchors, not outputs."""

    position: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.position) != 4:
            raise ValueError(f"position must have 4 components, got {len(self.position)}")
        if not all(math.isfinite(v) for v in self.position):
            raise ValueError("position components must be finite")


@dataclass(frozen=True)
class ShadowSet:
    """A set of queries acting as one.  ``identity`` is the track id and
    is present exactly when the set has tracking role."""

    set_id: int
    role: Role
    shadows: tuple[QueryState, ...]
    identity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.role not in ("detection", "tracking"):
            raise ValueError(f"role must be 'detection' or 'tracking', got {self.role!r}")
        if len(self.shadows) < 1:
            raise ValueError("a shadow set needs at least one shadow")
        if self.role == "tracking" and self.identity is None:
            raise ValueError("tracking sets carry an identity")
        if self.role == "detection" and self.identity is not None:
            raise ValueError("detection sets carry no identity")

    @property
    def n_shadows(self) -> int:
        return len(self.shadows)

    def promoted(self, identity: int) -> "ShadowSet":
        """The same shadows re-rooted as a tracking set for ``identity``."""
        return ShadowSet(set_id=identity, role="tracking", shadows=self.shadows, identity=identity)


@dataclass(frozen=True)
class ShadowConfig:
    """Knobs of the shadow mechanism.

    ``cost_reduction`` picks the representative during training-cost
    reduction, ``score_reduction`` during inference gating; max/min is the
    strongest pairing.  ``sigma_pos`` applies to the noisy initialization
    only.  Queries carry no embedding: ``embed_dim`` sizes a discarded draw
    that precedes the position noise, and ``sigma_emb`` is validated and
    reported but read by nothing.
    ``tau`` has no principled value; 0.5 is the usual convention for
    query-based trackers.
    """

    n_shadows: int = 3
    init: InitMethod = "noise"
    sigma_pos: float = 1e-6
    sigma_emb: float = 1e-6
    cost_reduction: Reduction = "max"
    score_reduction: Reduction = "min"
    tau: float = 0.5
    embed_dim: int = 256

    def __post_init__(self) -> None:
        if self.n_shadows < 1:
            raise ValueError(f"n_shadows: must be >= 1, got {self.n_shadows}")
        if self.init not in INIT_METHODS:
            raise ValueError(f"init: must be one of {INIT_METHODS}, got {self.init!r}")
        if not (math.isfinite(self.sigma_pos) and self.sigma_pos >= 0):
            raise ValueError(f"sigma_pos: must be finite and >= 0, got {self.sigma_pos!r}")
        if not (math.isfinite(self.sigma_emb) and self.sigma_emb >= 0):
            raise ValueError(f"sigma_emb: must be finite and >= 0, got {self.sigma_emb!r}")
        if self.cost_reduction not in REDUCTIONS:
            raise ValueError(f"cost_reduction: must be one of {REDUCTIONS}, got {self.cost_reduction!r}")
        if self.score_reduction not in REDUCTIONS:
            raise ValueError(f"score_reduction: must be one of {REDUCTIONS}, got {self.score_reduction!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau: must lie in [0, 1], got {self.tau!r}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim: must be >= 1, got {self.embed_dim}")


def _as_state(pos: np.ndarray) -> QueryState:
    p = tuple(float(v) for v in pos)
    return QueryState(position=(p[0], p[1], p[2], p[3]))


def init_query_bank(n_sets: int, cfg: ShadowConfig, seed: int) -> list[ShadowSet]:
    """Seeded detection-set bank.

    rand: every shadow position drawn independently, uniform on [0,1]^4.
    copy: all shadows of a set equal one per-set base draw.  noise: copy
    plus per-shadow Gaussian position noise with ``sigma_pos``.  Each set
    uses its own generator derived from (seed, set_id), so banks are
    reproducible and order-independent.
    """
    if n_sets < 1:
        raise ValueError(f"n_sets must be >= 1, got {n_sets}")
    n = cfg.n_shadows
    bank: list[ShadowSet] = []
    for set_id in range(n_sets):
        rng = np.random.default_rng([seed, set_id])
        if cfg.init == "rand":
            pos = rng.uniform(size=(n, 4))
        else:
            pos = np.tile(rng.uniform(size=4), (n, 1))
            # discarded, but noise positions come after it in the stream
            rng.standard_normal(cfg.embed_dim)
            if cfg.init == "noise" and cfg.sigma_pos > 0:
                pos = pos + rng.normal(0.0, cfg.sigma_pos, size=(n, 4))
        shadows = tuple(_as_state(pos[j]) for j in range(n))
        bank.append(ShadowSet(set_id=set_id, role="detection", shadows=shadows))
    return bank


def select_output(
    predictions: Sequence[tuple[BoundingBox, float]],
) -> tuple[BoundingBox, float]:
    """Box and score of the highest-scoring shadow; ties go to the lowest
    shadow index."""
    if not predictions:
        raise ValueError("select_output needs at least one prediction")
    best = 0
    for j in range(1, len(predictions)):
        if predictions[j][1] > predictions[best][1]:
            best = j
    return predictions[best]
