"""Design-space evaluation: objectives, sweeps, Pareto fronts, statics.

The authority weighs two objectives at equilibrium: the demand-weighted
average travel time ``T = (toll + pool) * hot_latency + ordinary * ordinary_latency``
(to minimize) and the toll revenue ``R = demand * toll_share * tau`` (to
maximize). A sweep solves a whole grid in one batch and adds both objectives
as numpy columns (a :class:`DesignBatch`); a point that fails keeps its typed
error in the batch instead of aborting the run. The Pareto front keeps the
non-dominated points under (minimize T, maximize R): a stable lexsort by
``(T, -R)`` and a running maximum of ``R``. :func:`evaluate_design` is a
sweep of one point, returned as a :class:`DesignPointResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumBatch, EquilibriumOutcome, RegimeLabel, solve_batch
from .errors import EmptyInput, HotLaneError, ValidationError
from .latency import BprParams, DesignParams
from .population import PopulationParams

__all__ = [
    "DesignPointResult",
    "DesignBatch",
    "ParetoFront",
    "evaluate_design",
    "sweep",
    "pareto_front",
    "comparative_statics_scan",
    "StaticsTable",
]


@dataclass(frozen=True)
class DesignPointResult:
    """Equilibrium outcome of one design point plus its two objectives: one row of a :class:`DesignBatch`."""

    design: DesignParams
    outcome: EquilibriumOutcome
    avg_time: float
    revenue: float


@dataclass(frozen=True, eq=False)
class DesignBatch(EquilibriumBatch):
    """An :class:`EquilibriumBatch` plus the objective columns ``avg_time`` (min) and ``revenue`` ($/min).

    ``errors`` also holds the points whose objectives break the result
    invariants (see :func:`sweep`).
    """

    avg_time: np.ndarray
    revenue: np.ndarray

    def result(self, i: int) -> DesignPointResult:
        """Point ``i`` as a :class:`DesignPointResult`; raises the point's typed error if it failed."""
        design = DesignParams(rho=self.rho[i].item(), tau=self.tau[i].item(), occupancy=self.occupancy[i].item())
        return DesignPointResult(design, self.outcome(i), self.avg_time[i].item(), self.revenue[i].item())


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated design points, sorted by average time ascending.

    ``points`` holds them as :func:`pareto_front` was given them: a tuple of
    :class:`DesignPointResult` or a :class:`DesignBatch`. Along the front
    both coordinates strictly increase: shaving travel time always costs
    revenue and vice versa.
    """

    points: tuple[DesignPointResult, ...] | DesignBatch

    def __post_init__(self):
        avg_time, revenue = _objective_columns(self.points)
        if not ((np.diff(avg_time) > 0.0) & (np.diff(revenue) > 0.0)).all():
            raise ValidationError("front points must strictly increase in both avg_time and revenue")


def _objective_columns(points) -> tuple[np.ndarray, np.ndarray]:
    """(avg_time, revenue) arrays of a :class:`DesignBatch` or of a sequence of results."""
    if isinstance(points, DesignBatch):
        return points.avg_time, points.revenue
    return np.array([p.avg_time for p in points], dtype=float), np.array([p.revenue for p in points], dtype=float)


_REGIME_B = tuple(RegimeLabel).index(RegimeLabel.B)


def evaluate_design(design: DesignParams, pop: PopulationParams, bpr: BprParams) -> DesignPointResult:
    """Both objectives at the design point's equilibrium: row 0 of a sweep of one, or its typed error raised."""
    return sweep([design.tau], [design.rho], [design.occupancy], pop, bpr).result(0)


def sweep(tau, rho, occupancy, pop: PopulationParams, bpr: BprParams) -> DesignBatch:
    """Evaluate every design point in one batched solve, as columns in input order.

    The design points are given as in :func:`~hotlane.equilibrium.solve_batch`.
    A point that fails keeps its typed error in ``errors``, so a single bad
    point cannot abort a grid run.
    """
    batch = solve_batch(tau, rho, occupancy, pop, bpr)
    toll, pool, ordinary = batch.shares
    time_ordinary, time_hot = batch.latencies
    avg_time = (toll + pool) * time_hot + ordinary * time_ordinary
    revenue = pop.demand * toll * batch.tau
    # The result invariants, checked at all points at once: revenue is >= 0, and 0 in Regime A.
    failed = np.flatnonzero(~(revenue >= 0.0) | ((batch.regime != _REGIME_B) & (revenue != 0.0))).tolist()
    errors = {i: ValidationError(f"revenue must be >= 0, and 0 in Regime A; got {revenue[i]}") for i in failed}
    errors.update(batch.errors)
    return DesignBatch(**{**vars(batch), "errors": errors}, avg_time=avg_time, revenue=revenue)


def _front(avg_time: np.ndarray, revenue: np.ndarray) -> np.ndarray:
    """Positions of the non-dominated points, in front order.

    A stable lexsort by (avg_time, -revenue) puts each point after every
    point that dominates it, and exact ties in input order; a point is kept
    when its revenue beats the running maximum of the points before it.
    """
    if not avg_time.size:
        raise EmptyInput("pareto_front requires at least one result")
    order = np.lexsort((np.arange(avg_time.size), -revenue, avg_time))
    revenue = revenue[order]
    best = np.maximum.accumulate(revenue)
    return order[np.concatenate(([True], revenue[1:] > best[:-1]))]


def pareto_front(results: list[DesignPointResult] | DesignBatch) -> ParetoFront:
    """Maximal non-dominated subset under (minimize avg_time, maximize revenue).

    A point dominates another when it is no slower and no less profitable,
    strictly better in at least one coordinate. Exact ties on both
    coordinates keep the first-seen point. ``results`` is a list of
    :class:`DesignPointResult` or a :class:`DesignBatch`, whose failed points
    are skipped; the front holds its points in the same form.
    """
    if isinstance(results, DesignBatch):
        if results.errors:
            results = results.take(results.solved)
        return ParetoFront(results.take(_front(results.avg_time, results.revenue)))
    front = _front(*_objective_columns(results))
    return ParetoFront(tuple(results[i] for i in front.tolist()))


@dataclass(frozen=True, eq=False)
class StaticsTable:
    """Per-rho sweep rows at a fixed toll plus observed column directions.

    ``rows`` is the :func:`sweep` of the rho grid, in grid order. ``flags``
    maps each numeric column (``sigma_toll``, ``sigma_pool``, ``sigma_o``,
    ``c_delta``) to ``"non-decreasing"``, ``"non-increasing"`` or
    ``"neither"`` over the solved rows. Directions are reported, not
    asserted: the published directional claims conflict with each other, so
    observation is the honest output.
    """

    tau: float
    rows: DesignBatch
    flags: dict[str, str]


def comparative_statics_scan(
    tau: float,
    rho_grid: list[float],
    occupancy: float,
    pop: PopulationParams,
    bpr: BprParams,
) -> StaticsTable:
    """:func:`sweep` along a strictly increasing capacity-fraction grid at a fixed toll."""
    if not rho_grid:
        raise EmptyInput("rho_grid must be non-empty")
    if any(b <= a for a, b in zip(rho_grid, rho_grid[1:])):
        raise ValidationError(f"rho_grid must be strictly increasing, got {rho_grid}")

    rows = sweep(tau, rho_grid, occupancy, pop, bpr)
    steps = np.diff(np.vstack((rows.shares, rows.gap))[:, rows.solved], axis=1)
    up, down = (steps >= 0.0).all(axis=1).tolist(), (steps <= 0.0).all(axis=1).tolist()
    names = ("sigma_toll", "sigma_pool", "sigma_o", "c_delta")
    flags = {n: "non-decreasing" if u else "non-increasing" if d else "neither" for n, u, d in zip(names, up, down)}
    return StaticsTable(tau, rows, flags)
