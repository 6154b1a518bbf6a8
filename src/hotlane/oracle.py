"""Brute-force equilibrium oracle, independent of the closed-form solver.

A dense grid of agent types (cell midpoints of the type rectangle) is
labeled with the same best-response rule individual agents use, and the
oracle looks for a grid labeling that reproduces itself. Nothing here
touches the closed-form region areas or the regime equations, so agreement
with :func:`hotlane.equilibrium.solve` is a genuine cross-check of both.

Labeling the full ``grid_n x grid_n`` grid is done by counting: for a fixed
value-of-time column the pool condition ``beta*gap >= gamma and gamma <= tau``
selects exactly the gamma midpoints up to ``min(beta*gap, tau)``, and the
toll condition selects the midpoints strictly above ``tau`` whenever
``beta*gap >= tau`` (ties on ``gamma == tau`` belong to pool by the fixed
priority). Counts via ``searchsorted`` reproduce the per-agent comparisons
bit for bit while keeping the oracle fast enough to sweep a design grid.

The search is a scalar root find in the latency gap. Write ``L(g)`` for the
grid labeling (toll and pool counts) at gap ``g`` and ``gap(s)`` for the
lane-latency gap when the grid plays labeling ``s``; a self-consistent grid
state is an ``s`` with ``L(gap(s)) == s``. Both counts are non-decreasing in
``g``, and more HOT users (tolling or pooling) slow the HOT lanes and relieve
the ordinary ones, so ``H(g) = gap(L(g)) - g`` is strictly decreasing on
``[0, gap(everyone ordinary)]``. A self-consistent state is therefore unique
when it exists, and a bracket on ``H`` closes on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ValidationError
from .latency import BprParams, DesignParams, StrategyShares, latency_gap
from .population import PopulationParams

__all__ = ["OracleConfig", "empirical_shares", "oracle_equilibrium"]


@dataclass(frozen=True)
class OracleConfig:
    """Grid resolution (agent types per axis) and the cap on grid labelings."""

    grid_n: int = 2000
    max_iters: int = 10000

    def __post_init__(self):
        if not self.grid_n >= 10:
            raise ValidationError(f"grid_n must be >= 10, got {self.grid_n}")
        if not self.max_iters >= 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")


def _midpoints(upper: float, n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) * (upper / n)


def _label_counts(
    gap: float, tau: float, beta_mid: np.ndarray, gamma_mid: np.ndarray
) -> tuple[int, int]:
    """(toll, pool) agent counts over the midpoint grid at the given gap."""
    n = beta_mid.size
    weighted = beta_mid * gap
    # Pool: gamma midpoints up to min(beta*gap, tau), per column.
    pool = int(np.searchsorted(gamma_mid, np.minimum(weighted, tau), side="right").sum())
    # Toll: columns with beta*gap >= tau take every gamma midpoint strictly
    # above tau (gamma == tau ties go to pool).
    above_tau = n - int(np.searchsorted(gamma_mid, tau, side="right"))
    toll = above_tau * int(np.count_nonzero(weighted >= tau))
    return toll, pool


def empirical_shares(
    sigma: StrategyShares,
    design: DesignParams,
    pop: PopulationParams,
    bpr: BprParams,
    cfg: OracleConfig,
) -> StrategyShares:
    """Best-response label fractions of the midpoint agent grid against ``sigma``."""
    beta_mid = _midpoints(pop.beta_max, cfg.grid_n)
    gamma_mid = _midpoints(pop.gamma_max, cfg.grid_n)
    gap = latency_gap(sigma, design, pop.demand, bpr)
    toll, pool = _label_counts(gap, design.tau, beta_mid, gamma_mid)
    total = cfg.grid_n * cfg.grid_n
    return StrategyShares(toll / total, pool / total, (total - toll - pool) / total)


def oracle_equilibrium(
    design: DesignParams,
    pop: PopulationParams,
    bpr: BprParams,
    cfg: OracleConfig = OracleConfig(),
) -> tuple[StrategyShares, int]:
    """Self-consistent grid state, plus the number of grid labelings it took.

    ``H(g) = gap(L(g)) - g`` (see the module docstring) is bracketed by
    ``[0, gap(everyone ordinary)]`` and narrowed by Illinois secant steps
    with a midpoint fallback, keeping ``H(lo) >= 0 >= H(hi)``. The search
    stops in one of three ways:

    * Both bracket ends carry the same labeling ``s``. Labels are monotone
      in ``g``, so ``s`` is the labeling on the whole bracket, and
      ``gap(s)`` lies in the bracket: ``s`` is exactly self-consistent and
      is returned.
    * The bracket reaches float resolution with two different labelings, a
      straddle: the exact equilibrium falls between two adjacent grid
      states and neither reproduces itself. The self-residual of a state is
      the largest count change when it is labeled against itself. The end
      with the smaller self-residual (the lower end on a tie) is returned
      if that residual is within the discretization floor ``2/grid_n`` in
      share units. Otherwise :class:`NoConvergence` says "straddle", with
      that end's shares as ``last_value`` and its self-residual, in share
      units, as ``residual``.
    * ``max_iters`` labelings are spent. :class:`NoConvergence` says "cap".
      Its ``last_value`` is the lower end's labeling, and its ``residual``
      is the max-norm share distance between the two ends' labelings, which
      bounds the distance to a self-consistent state if one exists.
    """
    beta_mid = _midpoints(pop.beta_max, cfg.grid_n)
    gamma_mid = _midpoints(pop.gamma_max, cfg.grid_n)
    total = cfg.grid_n * cfg.grid_n
    labelings = 0

    def as_shares(state: tuple[int, int]) -> StrategyShares:
        toll, pool = state
        return StrategyShares(toll / total, pool / total, (total - toll - pool) / total)

    def gap_at(state: tuple[int, int]) -> float:
        return latency_gap(as_shares(state), design, pop.demand, bpr)

    def distance(a: tuple[int, int], b: tuple[int, int]) -> int:
        """Max-norm count distance over the toll, pool and ordinary counts."""
        d_toll, d_pool = b[0] - a[0], b[1] - a[1]
        return max(abs(d_toll), abs(d_pool), abs(d_toll + d_pool))

    def label(g: float) -> tuple[int, int]:
        nonlocal labelings
        if labelings == cfg.max_iters:
            raise NoConvergence(
                f"oracle bracket still open after the cap of {cfg.max_iters} labelings",
                last_value=as_shares(s_lo),
                residual=distance(s_lo, s_hi) / total,
            )
        labelings += 1
        return _label_counts(g, design.tau, beta_mid, gamma_mid)

    # Nobody tolls or pools at zero gap (every gamma midpoint and tau are
    # positive), so the lower end is everyone ordinary without a labeling.
    lo, s_lo = 0.0, (0, 0)
    f_lo = hi = gap_at(s_lo)
    s_hi = label(hi)
    f_hi = gap_at(s_hi) - hi
    moved_lo = moved_hi = False  # ends the last step replaced
    while s_lo != s_hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            residual, best = min((distance(s, label(gap_at(s))), s) for s in (s_lo, s_hi))
            if residual <= 2 * cfg.grid_n:  # 2/grid_n in count units
                return as_shares(best), labelings
            raise NoConvergence(
                f"oracle straddle: the nearest grid state relabels {residual} agents, "
                f"above the 2/grid_n floor of {2 * cfg.grid_n}",
                last_value=as_shares(best),
                residual=residual / total,
            )
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < x < hi:
            x = mid
        s_x = label(x)
        fx = gap_at(s_x) - x
        # H(x) == 0 replaces both ends: s_x is then exactly self-consistent.
        to_lo, to_hi = fx >= 0.0, fx <= 0.0
        # Illinois: an end kept twice running has its stored value halved.
        if to_lo and moved_lo:
            f_hi *= 0.5
        if to_hi and moved_hi:
            f_lo *= 0.5
        if to_lo:
            lo, s_lo, f_lo = x, s_x, fx
        if to_hi:
            hi, s_hi, f_hi = x, s_x, fx
        moved_lo, moved_hi = to_lo, to_hi
    return as_shares(s_lo), labelings
