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

A column's state (its pool count, and whether it tolls) changes only where
the float product ``fl(beta*gap)`` crosses one threshold: the next gamma
midpoint, or ``tau``. So each labeling holds on a float interval of gaps
``[start, end)``, and the kernel returns that interval with the counts:
``start`` is the latest gap at which some column reaches its current state,
``end`` the earliest at which some column leaves it. Both are exact floats.

The search is a scalar root find in the latency gap. Write ``L(g)`` for the
grid labeling (toll and pool counts) at gap ``g`` and ``gap(s)`` for the
lane-latency gap when the grid plays labeling ``s``; a self-consistent grid
state is an ``s`` with ``L(gap(s)) == s``, i.e. ``gap(s)`` inside ``s``'s
own interval. Both counts are non-decreasing in ``g``, and more HOT users
(tolling or pooling) slow the HOT lanes and relieve the ordinary ones, so
``H(g) = gap(L(g)) - g`` is strictly decreasing on
``[0, gap(everyone ordinary)]``. A self-consistent state is therefore unique
when it exists; when it does not, the sign change of ``H`` falls between
two adjacent labelings, and that pair is unique too. The intervals let the
search stop at either without narrowing the bracket to float resolution:
exactly when a labeling's own gap lies in its interval, as a straddle when
the two bracket ends are adjacent labelings, or at the labeling cap (see
:func:`oracle_equilibrium`).
"""

from __future__ import annotations

import math
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


def _solve_tolerance(grid_n: int) -> float:
    """Largest max-norm share distance at which the oracle at ``grid_n`` agrees with ``solve``."""
    return max(5e-3, 4.0 / grid_n)


def _midpoints(upper: float, n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) * (upper / n)


def _grid(tau: float, pop: PopulationParams, grid_n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-design constants of the labeling.

    The beta midpoints, the gamma midpoints a column can pool on (those
    ``<= tau``, so a column's pool count is capped at their number), and the
    count of gamma midpoints strictly above ``tau``, which every tolling
    column adds to the toll count.
    """
    gamma_mid = _midpoints(pop.gamma_max, grid_n)
    gamma_pool = gamma_mid[: np.searchsorted(gamma_mid, tau, side="right")]
    return _midpoints(pop.beta_max, grid_n), gamma_pool, grid_n - gamma_pool.size


def _first_reaching(beta: float, threshold: float) -> float:
    """Smallest float ``g`` with ``fl(beta*g) >= threshold``, for positive arguments."""
    g = threshold / beta
    while beta * g >= threshold:
        g = math.nextafter(g, -math.inf)
    while beta * g < threshold:
        g = math.nextafter(g, math.inf)
    return g


def _first_reaching_all(beta: np.ndarray, threshold: np.ndarray) -> float:
    """Smallest float ``g`` with ``fl(beta*g) >= threshold`` in every entry.

    The entry with the largest ``threshold/beta`` gives a first answer, which
    is exact unless other entries tie with it to within a few ulps; those
    still fall short there and are searched again.
    """
    while True:
        i = (threshold / beta).argmax()
        g = _first_reaching(float(beta[i]), float(threshold[i]))
        short = beta * g < threshold
        if not short.any():
            return g
        beta, threshold = beta[short], threshold[short]


def _first_reaching_any(beta: np.ndarray, threshold: np.ndarray) -> float:
    """Smallest float ``g`` with ``fl(beta*g) >= threshold`` in some entry.

    The mirror of :func:`_first_reaching_all`: entries that already reach
    their threshold one float below the first answer are searched again.
    """
    while True:
        i = (threshold / beta).argmin()
        g = _first_reaching(float(beta[i]), float(threshold[i]))
        early = beta * math.nextafter(g, -math.inf) >= threshold
        if not early.any():
            return g
        beta, threshold = beta[early], threshold[early]


def _label_counts(
    gap: float, tau: float, beta_mid: np.ndarray, gamma_pool: np.ndarray, above_tau: int
) -> tuple[tuple[int, int], float, float]:
    """(toll, pool) agent counts over the midpoint grid at the given gap, and
    the float interval ``[start, end)`` of gaps on which they hold.

    ``start`` is ``-inf`` when no agent tolls or pools, and ``end`` is
    ``inf`` when every column is saturated.
    """
    n = beta_mid.size
    weighted = beta_mid * gap
    # Pool: per column, the gamma midpoints up to min(beta*gap, tau).
    counts = np.searchsorted(gamma_pool, weighted, side="right")
    pool = int(counts.sum())
    # Toll: columns with beta*gap >= tau take every gamma midpoint strictly
    # above tau (gamma == tau ties go to pool). beta_mid is ascending, so the
    # tolling columns are a suffix and so are the pooling ones.
    tolling = int(np.count_nonzero(weighted >= tau))
    first_toll = n - tolling

    start, end = -math.inf, math.inf
    if above_tau:  # otherwise tolling changes no count
        if tolling:
            start = _first_reaching(float(beta_mid[first_toll]), tau)
        if first_toll:
            end = _first_reaching(float(beta_mid[first_toll - 1]), tau)
    # A column reaches its pool count at the last gamma midpoint it covers
    # and leaves it at the next one, unless it covers all of gamma_pool.
    first_pool = int(np.searchsorted(counts, 0, side="right"))
    first_full = int(np.searchsorted(counts, gamma_pool.size, side="left"))
    if first_pool < n:
        start = max(start, _first_reaching_all(beta_mid[first_pool:], gamma_pool[counts[first_pool:] - 1]))
    if first_full:
        end = min(end, _first_reaching_any(beta_mid[:first_full], gamma_pool[counts[:first_full]]))
    return (above_tau * tolling, pool), start, end


def empirical_shares(
    sigma: StrategyShares,
    design: DesignParams,
    pop: PopulationParams,
    bpr: BprParams,
    cfg: OracleConfig,
) -> StrategyShares:
    """Best-response label fractions of the midpoint agent grid against ``sigma``."""
    beta_mid, gamma_pool, above_tau = _grid(design.tau, pop, cfg.grid_n)
    gap = latency_gap(sigma, design, pop.demand, bpr)
    (toll, pool), _, _ = _label_counts(gap, design.tau, beta_mid, gamma_pool, above_tau)
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
    with a midpoint fallback, keeping ``H(lo) > 0 > H(hi)``. On a
    labeling's interval ``H`` is ``gap(s) - g``, so once a labeling is known
    not to be self-consistent its whole interval has one sign of ``H``: the
    lower end moves to the last float of its labeling's interval, the upper
    end to the first. The search stops in one of three ways:

    * Exact: a labeling ``s`` has ``gap(s)`` inside its own interval. ``s``
      is exactly self-consistent and is returned.
    * Straddle: the two ends' labelings are adjacent (the lower one's
      interval ends where the upper one's starts), so no grid state is
      self-consistent: the exact equilibrium falls between them. The
      self-residual of a state is the largest count change when it is
      labeled against itself. The end with the smaller self-residual (the
      lower end on a tie) is returned if that residual is within the
      discretization floor ``2/grid_n`` in share units. Otherwise
      :class:`NoConvergence` says "straddle", with that end's shares as
      ``last_value`` and its self-residual, in share units, as
      ``residual``.
    * Cap: ``max_iters`` labelings are spent. :class:`NoConvergence` says
      "cap". Its ``last_value`` is the lower end's labeling, and its
      ``residual`` is the max-norm share distance between the two ends'
      labelings, which bounds the distance to a self-consistent state if one
      exists.

    Labels are monotone in ``g``, so the state returned (or named by a
    straddle) does not depend on the path the bracket takes.
    """
    beta_mid, gamma_pool, above_tau = _grid(design.tau, pop, cfg.grid_n)
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

    def label(g: float) -> tuple[tuple[int, int], float, float]:
        nonlocal labelings
        if labelings == cfg.max_iters:
            raise NoConvergence(
                f"oracle bracket still open after the cap of {cfg.max_iters} labelings",
                last_value=as_shares(s_lo),
                residual=distance(s_lo, s_hi) / total,
            )
        labelings += 1
        return _label_counts(g, design.tau, beta_mid, gamma_pool, above_tau)

    # Nobody tolls or pools at zero gap (every gamma midpoint and tau are
    # positive), and that lasts until the largest beta midpoint reaches the
    # first gamma midpoint or, if that lies above tau, tau itself: the lower
    # end needs no labeling.
    s_lo = (0, 0)
    first = _first_reaching(float(beta_mid[-1]), float(gamma_pool[0]) if gamma_pool.size else design.tau)
    lo, x = math.nextafter(first, -math.inf), gap_at(s_lo)
    if x <= lo:
        return as_shares(s_lo), labelings
    f_lo = x - lo
    # The first labeling is at gap(everyone ordinary), where H <= 0.
    moved_lo = moved_hi = False  # ends the last step replaced
    while True:
        s_x, start, end = label(x)
        gap_x = gap_at(s_x)
        if start <= gap_x < end:
            return as_shares(s_x), labelings
        # Illinois: an end kept twice running has its stored value halved.
        if gap_x > x:  # H > 0 on the whole interval: the lower end takes its last float
            if moved_lo:
                f_hi *= 0.5
            lo, s_lo = math.nextafter(end, -math.inf), s_x
            f_lo = gap_x - lo
        else:  # H < 0 on the whole interval: the upper end takes its first float
            if moved_hi:
                f_lo *= 0.5
            hi, s_hi = start, s_x
            f_hi = gap_x - hi
        moved_lo = gap_x > x
        moved_hi = not moved_lo
        if math.nextafter(lo, math.inf) == hi:  # adjacent labelings: a straddle
            break
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)

    residual, best = min((distance(s, label(gap_at(s))[0]), s) for s in (s_lo, s_hi))
    if residual <= 2 * cfg.grid_n:  # 2/grid_n in count units
        return as_shares(best), labelings
    raise NoConvergence(
        f"oracle straddle: the nearest grid state relabels {residual} agents, "
        f"above the 2/grid_n floor of {2 * cfg.grid_n}",
        last_value=as_shares(best),
        residual=residual / total,
    )
