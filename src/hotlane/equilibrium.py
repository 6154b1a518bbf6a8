"""Population equilibrium: one root in the latency gap, solved in batches.

Against a latency gap ``g`` (ordinary minus HOT latency, minutes) the
closed-form region measures give the share of travelers best-responding
with each action, and those shares produce a latency gap of their own. An
equilibrium is a fixed point of that map, the root of

    F(g) = latency_gap(region_measures_at_gap(g)) - g.

The region measures grow with ``g`` and moving travelers onto the HOT lanes
closes the gap, so ``F`` falls strictly from ``F(0) = gap(everyone
ordinary) > 0`` and has exactly one root on ``[0, gap(everyone ordinary)]``.
:func:`solve_batch` brackets that root for every design point at once, in
elementwise numpy: each step is a secant step with the Illinois weighting
that falls back to the midpoint whenever it would leave the bracket, and a
point stops when its bracket reaches float resolution. The batch is numpy
columns end to end: the points come in as ``tau``, ``rho`` and
``occupancy`` arrays, checked against the parameter domain once, and go out
as one :class:`EquilibriumBatch` whose invariants are checked once,
vectorised; a failed point keeps its typed error by index. The batch also
carries the authority's two objectives as columns: the demand-weighted
average travel time ``avg_time = (toll + pool) * hot_latency + ordinary *
ordinary_latency`` (minutes, to minimize) and the toll revenue ``revenue =
demand * toll * tau`` ($/min, to maximize). :func:`solve` is row 0 of a
batch of one. There is no other solver.

The regime is read off the solution: B if a positive mass pays the toll,
A2 if ``beta_max * g > gamma_max`` (which forces ``tau > gamma_max``),
otherwise A1. A design on the boundary, where nobody pays at the root, is
Regime A. The residual reported is that of the regime's printed equation at
the solved shares, in share units:

* A1: ``(beta_max/(2*gamma_max)) * gap = pool``;
* A2: ``(gamma_max/(2*beta_max)) / gap = ordinary``;
* B: ``(1 - tau/(beta_max*gap)) * (gamma_max-tau)/gamma_max = toll``.

The rest of the module holds the paper's checks on those equations, which
the tests run at the solved points. :func:`regime_bracket` is the range of
the regime's share variable, split at the probe share ``tau/(2*gamma_max)``
(clamped to 1 once ``tau >= 2*gamma_max``), and :func:`positive_gap_bracket`
cuts it at the zero of the latency gap, in closed form. There each regime's
auxiliary function is strictly monotone, so its printed equation has exactly
one root: share/gap for A1 (:func:`a1_auxiliary`), gap*(1-share) for A2
(:func:`a2_auxiliary`), and for B the linearly damped gap
(:func:`b_auxiliary`) along the closure :func:`b_companion_shares`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GapNonPositive, HotLaneError, NoConvergence, ValidationError
from .latency import (
    SIMPLEX_TOL, BprParams, DesignParams, StrategyShares, check_design, lane_flows, lane_times, latency_gap
)
from .population import PopulationParams, region_fractions

__all__ = [
    "RegimeLabel",
    "EquilibriumOutcome",
    "EquilibriumBatch",
    "solve",
    "solve_batch",
    "a1_auxiliary",
    "a2_auxiliary",
    "b_auxiliary",
    "b_companion_shares",
    "regime_bracket",
    "positive_gap_bracket",
    "RESIDUAL_TOL",
    "MAX_BISECT",
]

RESIDUAL_TOL = 1e-10
MAX_BISECT = 200


class RegimeLabel(enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B = "B"

    @property
    def is_regime_a(self) -> bool:
        return self in (RegimeLabel.A1, RegimeLabel.A2)


_LABELS = tuple(RegimeLabel)  # the batch's regime codes index this


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Solved equilibrium of one design point: shares, diagnostics and objectives.

    ``gap`` is the ordinary-minus-HOT latency difference at the solved
    shares (minutes), ``flows`` the (ordinary, HOT) vehicle flows,
    ``residual`` the absolute fixed-point residual of the solved equation in
    its printed units, ``iterations`` the root-finding step count,
    ``latencies`` the (ordinary, HOT) lane travel times in minutes at the
    solved flows, and ``avg_time`` (minutes) and ``revenue`` ($/min) the two
    objectives. It is one row of an :class:`EquilibriumBatch` (see :func:`_failures`).
    """

    design: DesignParams
    shares: StrategyShares
    regime: RegimeLabel
    gap: float
    flows: tuple[float, float]
    residual: float
    iterations: int
    latencies: tuple[float, float]
    avg_time: float
    revenue: float


# ---------------------------------------------------------------------------
# The paper's checks: auxiliary functions and brackets
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Batched gap-space solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EquilibriumBatch:
    """Equilibria of many design points as numpy columns, in input order.

    ``tau``, ``rho`` and ``occupancy`` hold the design points. The other
    columns mirror :class:`EquilibriumOutcome`: ``shares`` is the ``(3, n)``
    array of (toll, pool, ordinary) shares, ``flows`` and ``latencies`` are
    the ``(2, n)`` arrays of (ordinary, HOT) flows and lane times,
    ``regime`` holds codes into ``tuple(RegimeLabel)`` (0 A1, 1 A2, 2 B), and
    ``avg_time`` and ``revenue`` are the objectives.
    ``errors`` maps the index of every point without a valid equilibrium to
    its typed error; the columns hold no meaningful value at those indices.
    """

    tau: np.ndarray
    rho: np.ndarray
    occupancy: np.ndarray
    shares: np.ndarray
    regime: np.ndarray
    gap: np.ndarray
    flows: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    latencies: np.ndarray
    avg_time: np.ndarray
    revenue: np.ndarray
    errors: dict[int, HotLaneError]

    def __len__(self) -> int:
        return self.tau.size

    @property
    def solved(self) -> np.ndarray:
        """Boolean mask of the points that have an equilibrium."""
        mask = np.ones(len(self), dtype=bool)
        mask[list(self.errors)] = False
        return mask

    def take(self, index):
        """The points at the numpy index ``index`` (a slice, mask or positions), errors renumbered."""
        positions = np.arange(len(self))[index].tolist() if self.errors else []
        errors = {new: self.errors[old] for new, old in enumerate(positions) if old in self.errors}
        columns = {name: value[..., index] for name, value in vars(self).items() if name != "errors"}
        return type(self)(**columns, errors=errors)

    def outcome(self, i: int) -> EquilibriumOutcome:
        """Point ``i`` as an :class:`EquilibriumOutcome`; raises the point's typed error if it failed."""
        if i in self.errors:
            raise self.errors[i]
        shares, flows, times = (tuple(a[:, i].tolist()) for a in (self.shares, self.flows, self.latencies))
        scalars = (self.regime, self.gap, self.residual, self.iterations, self.avg_time, self.revenue)
        regime, gap, residual, steps, avg_time, revenue = (a[i].item() for a in scalars)
        design = DesignParams(*(a[i].item() for a in (self.rho, self.tau, self.occupancy)))
        return EquilibriumOutcome(
            design, StrategyShares(*shares), _LABELS[regime], gap, flows, residual, steps, times, avg_time, revenue
        )


def _check_designs(tau, rho, occupancy) -> list[np.ndarray]:
    """The design points as equal-length float arrays, checked once against the
    :class:`DesignParams` domain; the first bad index of a column raises ``ValidationError``."""
    try:
        columns = [np.asarray(x, dtype=float).ravel() for x in (tau, rho, occupancy)]
        shape = np.broadcast(*columns).shape
    except ValueError as exc:
        raise ValidationError(f"tau, rho and occupancy must be numbers that broadcast to one length: {exc}") from None
    tau, rho, occupancy = (x if x.shape == shape else np.full(shape, x) for x in columns)
    check_design(rho=rho, tau=tau, occupancy=occupancy)
    return [tau, rho, occupancy]


def _excess(g, pop: PopulationParams, bpr: BprParams, tau, rho, occupancy):
    """``F(g)`` at a positive gap, elementwise over the design points' (tau, rho, occupancy) arrays."""
    _, (time_ordinary, time_hot) = lane_times(region_fractions(g, tau, pop), pop.demand, occupancy, rho, bpr)
    return time_ordinary - time_hot - g


def _gap_root(lo, hi, f_lo, pop: PopulationParams, bpr: BprParams, points: list[np.ndarray]):
    """Root of ``F`` on the bracket ``[lo, hi]`` of each point, and its step count.

    ``points`` are the points' (tau, rho, occupancy) arrays. ``F(lo) > 0`` is
    passed in because ``F`` cannot be evaluated at a zero gap, and
    ``F(hi) < 0`` must hold. A root is NaN where the bracket is still open
    after ``MAX_BISECT`` steps.
    """
    root = np.full(lo.shape, np.nan)
    iterations = np.zeros(lo.shape, dtype=int)
    # Working arrays hold the points still open; ``index`` maps them back.
    index = np.arange(lo.size)
    f_hi = _excess(hi, pop, bpr, *points)
    moved_lo = moved_hi = np.zeros(lo.size, dtype=bool)  # ends the last step replaced
    mid = 0.5 * (lo + hi)
    for step in range(1, MAX_BISECT + 1):
        if not index.size:
            break
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        x = np.where((lo < x) & (x < hi), x, mid)
        fx = _excess(x, pop, bpr, *points)
        # F(x) == 0 replaces both ends, closing the bracket on the root.
        to_lo, to_hi = fx >= 0.0, fx <= 0.0
        # Illinois: an end kept twice running has its stored value halved.
        f_hi = np.where(to_lo & moved_lo, 0.5 * f_hi, f_hi)
        f_lo = np.where(to_hi & moved_hi, 0.5 * f_lo, f_lo)
        lo, f_lo = np.where(to_lo, x, lo), np.where(to_lo, fx, f_lo)
        hi, f_hi = np.where(to_hi, x, hi), np.where(to_hi, fx, f_hi)
        moved_lo, moved_hi = to_lo, to_hi
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        if done.any():
            root[index[done]] = mid[done]
            iterations[index[done]] = step
            keep = ~done
            index, lo, hi, f_lo, f_hi, moved_lo, moved_hi, mid = (
                a[keep] for a in (index, lo, hi, f_lo, f_hi, moved_lo, moved_hi, mid)
            )
            points = [a[keep] for a in points]
    return root, iterations


def _failures(top, root, shares, regime, residual) -> dict[int, HotLaneError]:
    """The typed error of every point without a valid equilibrium, by index.

    The one definition of the outcome invariants, checked at all points at
    once; a point gets the error of the first check it fails. A valid
    equilibrium has a root, a printed residual of at most ``RESIDUAL_TOL``,
    shares on the simplex with positive pool and ordinary shares, and a toll
    share that is positive exactly in Regime B.
    """
    toll, pool, ordinary = shares
    valid = (
        ((0.0 <= shares) & (shares <= 1.0)).all(axis=0)
        & (abs(toll + pool + ordinary - 1.0) <= SIMPLEX_TOL)
        & (pool > 0.0)
        & (ordinary > 0.0)
        & ((regime == _LABELS.index(RegimeLabel.B)) == (toll > 0.0))
    )
    checks = (
        (~(top > 0.0), lambda i: GapNonPositive(f"the HOT lane is never faster: all-ordinary latency gap {top[i]}")),
        (np.isnan(root), lambda i: NoConvergence(f"the gap bracket is still open after {MAX_BISECT} steps")),
        (~(residual <= RESIDUAL_TOL), lambda i: NoConvergence(
            f"fixed-point residual {residual[i]} exceeds {RESIDUAL_TOL}",
            last_value=tuple(shares[:, i].tolist()),
            residual=residual[i].item(),
        )),
        (~valid, lambda i: ValidationError(
            f"equilibrium shares {tuple(shares[:, i].tolist())} are not valid in regime {_LABELS[regime[i]].value}"
        )),
    )
    bad = np.flatnonzero(np.logical_or.reduce([failed for failed, _ in checks])).tolist()
    return {i: next(error(i) for failed, error in checks if failed[i]) for i in bad}


def solve_batch(tau, rho, occupancy, pop: PopulationParams, bpr: BprParams) -> EquilibriumBatch:
    """Equilibria of many design points at once, as numpy columns in input order.

    ``tau``, ``rho`` and ``occupancy`` are array-likes that broadcast to one
    length (a scalar occupancy serves every point); a point outside the
    :class:`DesignParams` domain raises ``ValidationError``. A point that
    cannot be solved gets its typed error in ``errors`` (``GapNonPositive``
    when the HOT lane is never faster, ``NoConvergence`` when the bracket is
    still open after ``MAX_BISECT`` steps or the printed residual exceeds
    ``RESIDUAL_TOL``), so one bad point never aborts the batch. Every step is
    elementwise, so a point's result does not depend on the rest of the batch.
    """
    points = tau, rho, occupancy = _check_designs(tau, rho, occupancy)

    # F(0) is the gap with everyone on the ordinary lanes, the upper bracket end.
    zeros = np.zeros_like(tau)
    _, (time_ordinary, time_hot) = lane_times((zeros, zeros, 1.0), pop.demand, occupancy, rho, bpr)
    top = time_ordinary - time_hot
    open_ = np.flatnonzero(top > 0.0)
    root = np.full(tau.shape, np.nan)
    iterations = np.zeros(tau.shape, dtype=int)
    root[open_], iterations[open_] = _gap_root(
        np.zeros(open_.size), top[open_], top[open_], pop, bpr, [a[open_] for a in points]
    )

    shares = np.array(region_fractions(np.where(root > 0.0, root, 1.0), tau, pop))
    flows, latencies = (np.array(pair) for pair in lane_times(shares, pop.demand, occupancy, rho, bpr))
    toll, pool, ordinary = shares
    time_ordinary, time_hot = latencies
    gap = time_ordinary - time_hot
    regime = np.where(toll > 0.0, 2, np.where(pop.beta_max * root > pop.gamma_max, 1, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        printed = np.choose(
            regime,
            [
                0.5 * pop.beta_max / pop.gamma_max * gap - pool,
                0.5 * pop.gamma_max / pop.beta_max / gap - ordinary,
                (1.0 - tau / (pop.beta_max * gap)) * (pop.gamma_max - tau) / pop.gamma_max - toll,
            ],
        )
    residual = np.abs(printed)
    errors = _failures(top, root, shares, regime, residual)
    avg_time = (toll + pool) * time_hot + ordinary * time_ordinary
    revenue = pop.demand * toll * tau
    return EquilibriumBatch(
        tau, rho, occupancy, shares, regime, gap, flows, residual, iterations, latencies, avg_time, revenue, errors
    )


def solve(design: DesignParams, pop: PopulationParams, bpr: BprParams) -> EquilibriumOutcome:
    """Equilibrium of one design point: row 0 of :func:`solve_batch` on a batch of one.

    Raises the point's typed error instead of returning it.
    """
    return solve_batch([design.tau], [design.rho], [design.occupancy], pop, bpr).outcome(0)
