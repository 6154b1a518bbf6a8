"""The paper's regime checks and per-agent rule, as references for the tests.

The solver finds one root in the latency gap; these are the paper's own
formulations of the same equilibrium, which the tests run at the solved
points. :func:`regime_bracket` is the range of the regime's share variable,
split at the probe share ``tau/(2*gamma_max)`` (clamped to 1 once
``tau >= 2*gamma_max``), and :func:`positive_gap_bracket` cuts it at the zero
of the latency gap, in closed form. There each regime's auxiliary function is
strictly monotone, so its printed equation has exactly one root: share/gap
for A1 (:func:`a1_auxiliary`), gap*(1-share) for A2 (:func:`a2_auxiliary`),
and for B the linearly damped gap (:func:`b_auxiliary`) along the closure
:func:`b_companion_shares`. An agent of type ``(beta, gamma)`` pays
:func:`action_cost` for an action and picks :func:`best_response_at_gap`;
:func:`empirical_shares` labels the oracle's midpoint grid with its kernel,
and :func:`column_label_counts` is that kernel's column-wise form.
:func:`bisection_gap` finds the solver's own root by halving alone, and
:func:`brute_force_front` the Pareto front by comparing every pair of points.
"""

import enum
import math

import numpy as np

from hotlane import oracle
from hotlane.equilibrium import MAX_BISECT, RegimeLabel, _excess
from hotlane.errors import GapNonPositive, ValidationError
from hotlane.latency import (
    BprParams,
    DesignParams,
    StrategyShares,
    _capacities,
    bpr_time,
    lane_flows,
    lane_gap,
    latency_gap,
)
from hotlane.oracle import OracleConfig
from hotlane.population import PopulationParams, _toll_levels, region_fractions


def _probe_share(design: DesignParams, pop: PopulationParams) -> float:
    return min(design.tau / (2.0 * pop.gamma_max), 1.0)


def _gap_no_toll(pool_share: float, design: DesignParams, pop: PopulationParams, bpr: BprParams) -> float:
    sigma = StrategyShares(0.0, pool_share, 1.0 - pool_share)
    return latency_gap(sigma, design, pop.demand, bpr)


def a1_auxiliary(pool_share: float, design: DesignParams, pop: PopulationParams, bpr: BprParams) -> float:
    """Pool share divided by the no-toll latency gap.

    Strictly increasing wherever the gap is positive; returns +inf at and
    beyond the zero-gap share, matching its one-sided limit.
    """
    gap = _gap_no_toll(pool_share, design, pop, bpr)
    if gap <= 0.0:
        return math.inf
    return pool_share / gap


def a2_auxiliary(pool_share: float, design: DesignParams, pop: PopulationParams, bpr: BprParams) -> float:
    """No-toll latency gap times the ordinary share; strictly decreasing
    wherever the gap is positive."""
    return _gap_no_toll(pool_share, design, pop, bpr) * (1.0 - pool_share)


def b_companion_shares(toll_share: float, design: DesignParams, pop: PopulationParams) -> StrategyShares:
    """Full share vector implied by a candidate toll share in Regime B."""
    tau, gamma_max = design.tau, pop.gamma_max
    if not tau < gamma_max:
        raise ValidationError(f"Regime B requires tau < gamma_max, got tau={tau}, gamma_max={gamma_max}")
    pool = 0.5 * tau * (toll_share / (gamma_max - tau) + 1.0 / gamma_max)
    ordinary = 1.0 - toll_share - pool
    if -1e-12 <= ordinary < 0.0:
        ordinary = 0.0
    return StrategyShares(toll_share, pool, ordinary)  # a ValidationError off the simplex: outside Regime B


def b_auxiliary(toll_share: float, design: DesignParams, pop: PopulationParams, bpr: BprParams) -> float:
    """Linearly damped latency gap along the Regime-B closure.

    Strictly decreasing wherever the gap is positive; its root against
    ``tau/beta_max`` is the equilibrium toll share.
    """
    sigma = b_companion_shares(toll_share, design, pop)
    linear = 1.0 - (pop.gamma_max / (pop.gamma_max - design.tau)) * toll_share
    return linear * latency_gap(sigma, design, pop.demand, bpr)


def regime_bracket(regime: RegimeLabel, design: DesignParams, pop: PopulationParams) -> tuple[float, float]:
    """Search interval for the regime's share variable."""
    probe = _probe_share(design, pop)
    if regime is RegimeLabel.A1:
        return 0.0, probe
    if regime is RegimeLabel.A2:
        return probe, 1.0
    return 0.0, (pop.gamma_max - design.tau) / pop.gamma_max


def positive_gap_bracket(
    regime: RegimeLabel, design: DesignParams, pop: PopulationParams, bpr: BprParams
) -> tuple[float, float]:
    """Portion of the regime bracket where the latency gap is positive, closed at its zero.

    The auxiliary functions are strictly monotone exactly here; past the
    zero-gap point they sit strictly on the far side of their targets, so
    nothing relies on their shape there. Both lanes share one volume-delay
    curve, so the gap is zero exactly where their flow/capacity ratios are
    equal. Along either parametrization the difference of those ratios is
    affine in the share, so one secant step through the bracket ends is its
    exact zero.
    """
    lo, hi = regime_bracket(regime, design, pop)

    def ratio_gap(x: float) -> float:
        """Ordinary minus HOT flow/capacity ratio: the sign of the latency gap."""
        shares = b_companion_shares(x, design, pop) if regime is RegimeLabel.B else StrategyShares(0.0, x, 1.0 - x)
        flow_ordinary, flow_hot = lane_flows(*shares.as_tuple(), pop.demand, design.occupancy)
        return flow_ordinary / (1.0 - design.rho) - flow_hot / design.rho

    at_lo, at_hi = ratio_gap(lo), ratio_gap(hi)
    if at_hi > 0.0:
        return lo, hi
    if at_lo <= 0.0:
        raise GapNonPositive(f"the latency gap is non-positive on the whole bracket ({lo}, {hi})")
    return lo, lo + (hi - lo) * at_lo / (at_lo - at_hi)


class ActionLabel(enum.Enum):
    TOLL = "toll"
    POOL = "pool"
    ORDINARY = "ordinary"


def action_cost(
    beta: float,
    gamma: float,
    action: ActionLabel,
    sigma: StrategyShares,
    design: DesignParams,
    pop: PopulationParams,
    bpr: BprParams,
) -> float:
    """Dollar cost an agent of type ``(beta, gamma)`` incurs by playing ``action`` against ``sigma``.

    Time is priced at the agent's value of time; paying the toll adds
    ``tau`` and carpooling adds the agent's ``gamma``. The payoff that
    :func:`best_response_at_gap` minimizes.
    """
    flows = lane_flows(*sigma.as_tuple(), pop.demand, design.occupancy)
    time_ordinary, time_hot = (bpr_time(f, c, bpr) for f, c in zip(flows, _capacities(design.rho, bpr)))
    if action is ActionLabel.ORDINARY:
        return beta * time_ordinary
    if action is ActionLabel.TOLL:
        return beta * time_hot + design.tau
    return beta * time_hot + gamma


def best_response_at_gap(beta: float, gamma: float, gap: float, tau: float) -> ActionLabel:
    """Best-response label for an agent given the latency gap directly.

    Encodes the region inequalities with the pool > toll > ordinary
    tie-break. The same rule, applied pointwise, drives the brute-force
    oracle.
    """
    weighted = beta * gap
    if weighted >= gamma and gamma <= tau:
        return ActionLabel.POOL
    if weighted >= tau and gamma >= tau:
        return ActionLabel.TOLL
    return ActionLabel.ORDINARY


def _first_reaching_each(beta: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Per entry, the smallest float ``g`` with ``fl(beta*g) >= threshold``, for positive arguments.

    Each entry starts at ``threshold/beta``, steps down one float while it
    reaches its threshold, then up one float while it falls short.
    """
    g = threshold / beta
    while (down := beta * g >= threshold).any():
        g = np.where(down, np.nextafter(g, -np.inf), g)
    while (up := beta * g < threshold).any():
        g = np.where(up, np.nextafter(g, np.inf), g)
    return g


def column_label_counts(
    gap: float, beta_mid: np.ndarray, row: np.ndarray, above_tau: int
) -> tuple[tuple[int, int], float, float]:
    """(toll, pool) agent counts over the midpoint grid at the given gap, and
    the float interval ``[start, end)`` of gaps on which they hold.

    The column-wise form of ``oracle._label_counts``: one ``searchsorted`` of
    every column's ``beta*gap`` into the threshold row, then the gap interval
    by definition: each column's own first gap reaching its last threshold
    and its next one, the latest of the former and the earliest of the latter.

    ``row`` and ``above_tau`` come from :func:`hotlane.oracle._grid`.
    ``start`` is ``-inf`` when no agent tolls or pools, and ``end`` is
    ``inf`` when every column reaches the whole row.
    """
    n = beta_mid.size
    # Per column, the thresholds up to beta*gap. beta_mid is ascending, so
    # the columns reaching any threshold are a suffix, as are those reaching
    # all of them; when the row closes with tau, those are the tolling ones.
    # A nan gap (both lane times overflow) reaches nothing, as per agent; searchsorted puts nan last.
    reached = np.zeros(n, int) if math.isnan(gap) else np.searchsorted(row, beta_mid * gap, side="right")
    first_any = int(np.searchsorted(reached, 0, side="right"))
    first_full = int(np.searchsorted(reached, row.size, side="left"))
    tolling = n - first_full if above_tau else 0
    pool = int(reached.sum()) - tolling

    # A column reaches its state at the last threshold it covers and leaves
    # it at the next one, unless it covers the whole row.
    start, end = -math.inf, math.inf
    if first_any < n:
        start = float(_first_reaching_each(beta_mid[first_any:], row[reached[first_any:] - 1]).max())
    if first_full:
        end = float(_first_reaching_each(beta_mid[:first_full], row[reached[:first_full]]).min())
    return (above_tau * tolling, pool), start, end


def empirical_shares(
    sigma: StrategyShares,
    design: DesignParams,
    pop: PopulationParams,
    bpr: BprParams,
    cfg: OracleConfig,
) -> StrategyShares:
    """Best-response label fractions of the midpoint agent grid against ``sigma``."""
    beta_mid, gamma_pool, above_tau = oracle._grid(design.tau, pop, cfg.grid_n)
    gap = latency_gap(sigma, design, pop.demand, bpr)
    (toll, pool), _, _ = oracle._label_counts(gap, beta_mid, gamma_pool, above_tau)
    total = cfg.grid_n * cfg.grid_n
    return StrategyShares(toll / total, pool / total, (total - toll - pool) / total)


def bisection_gap(tau, rho, occupancy, pop: PopulationParams, bpr: BprParams) -> np.ndarray:
    """The latency gap of each design point at the root of the solver's ``F``, found by halving alone.

    Each bracket starts as ``[0, gap(everyone ordinary)]`` and is halved at
    its midpoint with ``equilibrium._excess`` until the midpoint equals an
    end, the solver's stop rule; that midpoint is the root (``F == 0`` there
    closes both ends on it). The gap is then taken at the root's region
    fractions, as ``solve_batch`` reports it. A bracket still open after
    ``MAX_BISECT`` halvings has no root, and its gap means nothing.
    """
    tau, rho, occupancy = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (tau, rho, occupancy)))
    with np.errstate(all="ignore"):
        levels, capacities = _toll_levels(tau, pop), _capacities(rho, bpr)
        lo = np.zeros_like(tau)
        hi = lane_gap((lo, lo, 1.0), pop.demand, occupancy, capacities, bpr)
        root = np.full(tau.shape, np.nan)
        for _ in range(MAX_BISECT):
            mid = 0.5 * (lo + hi)
            closed = np.isnan(root) & ((mid == lo) | (mid == hi))
            root[closed] = mid[closed]
            if not np.isnan(root).any():
                break
            f_mid = _excess(mid, pop, bpr, *levels, occupancy, *capacities)
            lo, hi = np.where(f_mid >= 0.0, mid, lo), np.where(f_mid <= 0.0, mid, hi)
        shares = region_fractions(np.where(root > 0.0, root, 1.0), levels, pop)
        return lane_gap(shares, pop.demand, occupancy, capacities, bpr)


def brute_force_front(results):
    """The Pareto front of ``results`` (lowest ``avg_time``, highest ``revenue``) by comparing every pair.

    A point is kept unless another point is at least as good in both
    objectives and better in one, or is an earlier exact copy of it. The kept
    points are returned sorted by ``avg_time``.
    """
    kept = []
    for i, candidate in enumerate(results):
        dominated = False
        for j, other in enumerate(results):
            better_or_equal = other.avg_time <= candidate.avg_time and other.revenue >= candidate.revenue
            strictly_better = other.avg_time < candidate.avg_time or other.revenue > candidate.revenue
            duplicate_later_copy = (
                other.avg_time == candidate.avg_time and other.revenue == candidate.revenue and j < i
            )
            if (better_or_equal and strictly_better) or duplicate_later_copy:
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    kept.sort(key=lambda r: r.avg_time)
    return kept
