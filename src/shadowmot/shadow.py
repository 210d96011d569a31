"""Shadow-set query state and its reductions.

A shadow set is a group of queries standing in for one logical query: all
members share one label assignment during training and one identity at
inference.  This module owns set construction (three initialization
schemes) and the score reduction used for alive/dead gating.  The tracker
keeps gating and output selection apart: the gate applies a configurable
reduction over the whole set, while the emitted box always comes from the
single highest-scoring shadow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import _MODULES
from .config import _MAX_SCALE, REDUCTIONS, _check_choice, _check_range, _check_spread
from .geometry import BoundingBox

__all__ = _MODULES["shadow"]

INIT_METHODS: tuple[str, ...] = ("rand", "copy", "noise")


def reduce_values(values: Iterable[float], how: str) -> float:
    """Scalar min/mean/max reduction of one value list; ``mean`` is the
    correctly rounded sum over the count, which is what
    ``statistics.fmean`` computes for a list.  The tracker's ``mean`` gate
    decides as it does, and reduces with it each score row whose numpy mean
    lies near the threshold."""
    vals = list(values)
    if not vals:
        raise ValueError("cannot reduce an empty value list")
    _check_choice("how", how, REDUCTIONS)
    if how == "min":
        return float(min(vals))
    if how == "max":
        return float(max(vals))
    return math.fsum(vals) / len(vals)


@dataclass(frozen=True)
class ShadowSet:
    """A set of ``n_shadows`` queries acting as one, placed at one anchor
    box.  Every shadow of a set is served by the set's anchor, so shadows
    carry no position of their own.  ``identity`` is the track id and is
    present exactly when the set has tracking role."""

    set_id: int
    role: str
    anchor: BoundingBox
    n_shadows: int
    identity: Optional[int] = None

    def __post_init__(self) -> None:
        _check_choice("role", self.role, ("detection", "tracking"))
        _check_range("n_shadows", self.n_shadows, 1)
        if self.role == "tracking" and self.identity is None:
            raise ValueError("tracking sets carry an identity")
        if self.role == "detection" and self.identity is not None:
            raise ValueError("detection sets carry no identity")


@dataclass(frozen=True)
class ShadowConfig:
    """Knobs of the shadow mechanism.

    ``cost_reduction`` picks the representative during training-cost
    reduction, ``score_reduction`` during inference gating; max/min is the
    strongest pairing.  ``init`` draws each set's anchor, which is where
    the first shadow would sit; ``rand`` and ``copy`` place that shadow
    alike, so they give the same anchors and byte-identical runs.
    ``sigma_pos`` applies to the noisy initialization only.  Queries carry
    no embedding: ``embed_dim`` sizes a discarded draw that precedes the
    position noise, and ``sigma_emb`` is validated and reported but read by
    nothing.
    ``tau`` has no principled value; 0.5 is the usual convention for
    query-based trackers.
    """

    n_shadows: int = 3
    init: str = "noise"
    sigma_pos: float = 1e-6
    sigma_emb: float = 1e-6
    cost_reduction: str = "max"
    score_reduction: str = "min"
    tau: float = 0.5
    embed_dim: int = 256

    def __post_init__(self) -> None:
        # the upper bounds keep every accepted size's arrays small
        _check_range("n_shadows", self.n_shadows, 1, 64)
        _check_choice("init", self.init, INIT_METHODS)
        _check_spread("sigma_pos", self.sigma_pos, _MAX_SCALE)
        _check_spread("sigma_emb", self.sigma_emb)
        _check_choice("cost_reduction", self.cost_reduction, REDUCTIONS)
        _check_choice("score_reduction", self.score_reduction, REDUCTIONS)
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau: must lie in [0, 1], got {self.tau!r}")
        _check_range("embed_dim", self.embed_dim, 1, 4096)


def init_query_bank(n_sets: int, cfg: ShadowConfig, seed: int) -> list[ShadowSet]:
    """Seeded detection-set bank.

    Each set's anchor is a uniform draw on [0,1]^4, the first shadow's
    position under both rand (every shadow drawn independently) and copy
    (every shadow at one draw).  noise moves it by Gaussian noise with
    ``sigma_pos``, drawn after a discarded draw of ``embed_dim`` values.
    Each set uses its own generator derived from (seed, set_id), so banks
    are reproducible and order-independent.
    """
    _check_range("n_sets", n_sets, 1)
    bank: list[ShadowSet] = []
    for set_id in range(n_sets):
        rng = np.random.default_rng([seed, set_id])
        pos = rng.uniform(size=4)
        if cfg.init == "noise" and cfg.sigma_pos > 0:
            # discarded, but the noise comes after it in the stream
            rng.standard_normal(cfg.embed_dim)
            pos = pos + rng.normal(0.0, cfg.sigma_pos, size=4)
        cx, cy, w, h = pos.tolist()
        anchor = BoundingBox(cx, cy, max(w, 0.0), max(h, 0.0))
        bank.append(
            ShadowSet(set_id=set_id, role="detection", anchor=anchor, n_shadows=cfg.n_shadows)
        )
    return bank
