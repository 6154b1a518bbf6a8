"""Design-space evaluation: Pareto fronts and capacity statics.

The authority weighs two objectives at equilibrium: the average travel time
``avg_time`` (to minimize) and the toll revenue ``revenue`` (to maximize),
both columns of the :class:`~hotlane.equilibrium.EquilibriumBatch` that
:func:`~hotlane.equilibrium.solve_batch` returns for a design grid. The
Pareto front keeps the non-dominated points under (minimize ``avg_time``,
maximize ``revenue``): a stable lexsort by ``(avg_time, -revenue)`` and a
running maximum of ``revenue``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumBatch, EquilibriumOutcome, solve, solve_batch
from .errors import EmptyInput, ValidationError
from .latency import BprParams, DesignParams
from .population import PopulationParams

__all__ = [
    "ParetoFront",
    "pareto_front",
    "comparative_statics_scan",
    "StaticsTable",
]


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated design points, sorted by average time ascending.

    ``points`` holds them as :func:`pareto_front` was given them: a tuple of
    :class:`EquilibriumOutcome` or an :class:`EquilibriumBatch`. Along the
    front both coordinates strictly increase: shaving travel time always
    costs revenue and vice versa.
    """

    points: tuple[EquilibriumOutcome, ...] | EquilibriumBatch

    def __post_init__(self):
        avg_time, revenue = _objective_columns(self.points)
        if not ((np.diff(avg_time) > 0.0) & (np.diff(revenue) > 0.0)).all():
            raise ValidationError("front points must strictly increase in both avg_time and revenue")


def _objective_columns(points) -> tuple[np.ndarray, np.ndarray]:
    """(avg_time, revenue) arrays of an :class:`EquilibriumBatch` or of a sequence of outcomes."""
    if isinstance(points, EquilibriumBatch):
        return points.avg_time, points.revenue
    return np.array([p.avg_time for p in points], dtype=float), np.array([p.revenue for p in points], dtype=float)


def evaluate_design(design: DesignParams, pop: PopulationParams, bpr: BprParams) -> EquilibriumOutcome:
    """The equilibrium of one design point with its objectives: the same as :func:`~hotlane.equilibrium.solve`."""
    return solve(design, pop, bpr)


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


def pareto_front(results: list[EquilibriumOutcome] | EquilibriumBatch) -> ParetoFront:
    """Maximal non-dominated subset under (minimize avg_time, maximize revenue).

    A point dominates another when it is no slower and no less profitable,
    strictly better in at least one coordinate. Exact ties on both
    coordinates keep the first-seen point. ``results`` is a list of
    :class:`EquilibriumOutcome` or an :class:`EquilibriumBatch`, whose failed
    points are skipped; the front holds its points in the same form.
    """
    if isinstance(results, EquilibriumBatch):
        if results.errors:
            results = results.take(results.solved)
        return ParetoFront(results.take(_front(results.avg_time, results.revenue)))
    front = _front(*_objective_columns(results))
    return ParetoFront(tuple(results[i] for i in front.tolist()))


@dataclass(frozen=True, eq=False)
class StaticsTable:
    """Per-rho equilibrium rows at a fixed toll plus observed column directions.

    ``rows`` is the :func:`~hotlane.equilibrium.solve_batch` of the rho
    grid, in grid order. ``flags`` maps each numeric column (``sigma_toll``,
    ``sigma_pool``, ``sigma_o``, ``c_delta``) to ``"non-decreasing"``,
    ``"non-increasing"`` or ``"neither"`` over the solved rows. Directions
    are reported, not asserted: the published directional claims conflict
    with each other, so observation is the honest output.
    """

    tau: float
    rows: EquilibriumBatch
    flags: dict[str, str]


def comparative_statics_scan(
    tau: float,
    rho_grid: list[float],
    occupancy: float,
    pop: PopulationParams,
    bpr: BprParams,
) -> StaticsTable:
    """The equilibria along a strictly increasing capacity-fraction grid at a fixed toll."""
    if not rho_grid:
        raise EmptyInput("rho_grid must be non-empty")
    if any(b <= a for a, b in zip(rho_grid, rho_grid[1:])):
        raise ValidationError(f"rho_grid must be strictly increasing, got {rho_grid}")

    rows = solve_batch(tau, rho_grid, occupancy, pop, bpr)
    steps = np.diff(np.vstack((rows.shares, rows.gap))[:, rows.solved], axis=1)
    up, down = (steps >= 0.0).all(axis=1).tolist(), (steps <= 0.0).all(axis=1).tolist()
    names = ("sigma_toll", "sigma_pool", "sigma_o", "c_delta")
    flags = {n: "non-decreasing" if u else "non-increasing" if d else "neither" for n, u, d in zip(names, up, down)}
    return StaticsTable(tau, rows, flags)
