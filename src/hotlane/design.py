"""Design-space evaluation: Pareto fronts and capacity statics.

The authority weighs two objectives at equilibrium: the average travel time
``avg_time`` (to minimize) and the toll revenue ``revenue`` (to maximize),
both columns of the :class:`~hotlane.equilibrium.EquilibriumBatch` that
:func:`~hotlane.equilibrium.solve_batch` returns for a design grid. The
functions here return what they compute: a Pareto front is an int array of
positions into the results it was extracted from, in front order, and a
statics scan is the batch of the rho grid plus its direction flags.
"""

from __future__ import annotations

import numpy as np

from .equilibrium import EquilibriumBatch, EquilibriumOutcome, solve, solve_batch
from .errors import ValidationError, check
from .latency import BprParams, DesignParams
from .population import PopulationParams

__all__ = [
    "pareto_front",
    "comparative_statics_scan",
]


def evaluate_design(design: DesignParams, pop: PopulationParams, bpr: BprParams) -> EquilibriumOutcome:
    """The equilibrium of one design point with its objectives: the same as :func:`~hotlane.equilibrium.solve`."""
    return solve(design, pop, bpr)


def pareto_front(results: list[EquilibriumOutcome] | EquilibriumBatch, groups=None) -> np.ndarray:
    """Positions in ``results`` of its non-dominated points under (minimize avg_time, maximize revenue).

    A point dominates another when it is no slower and no less profitable,
    strictly better in at least one coordinate. Exact ties on both
    coordinates keep the first-seen point. ``results`` is a list of
    :class:`EquilibriumOutcome` or an :class:`EquilibriumBatch`, whose failed
    points are skipped: a batch with no solved point has an empty front, and
    an empty list raises ``ValidationError``. The int array is in front order,
    by ascending ``avg_time``; ``batch.take(front)`` or ``results[i]`` gives the points.

    ``groups``, an int label per result, asks for one front per label in one
    pass: the fronts of the labels in ascending order, one after another, each
    the positions ``pareto_front`` gives on that label's results alone. A label
    whose every point failed has no front. ``None`` is one group.

    A stable lexsort by (group, avg_time, -revenue, position) puts each point
    after every point of its group that dominates it, and exact ties in input
    order; a point is kept when its revenue beats the running maximum of the
    points before it in its group, so both coordinates strictly increase along
    each front. The running maximum is over exact integer keys, the group's
    rank times ``n + 1`` plus the revenue's rank, so no group's key reaches the
    next one's.
    """
    if isinstance(results, EquilibriumBatch):
        positions = np.flatnonzero(results.solved)
        avg_time, revenue = results.avg_time[positions], results.revenue[positions]
    elif len(results):
        positions = np.arange(len(results))
        avg_time = np.array([p.avg_time for p in results], dtype=float)
        revenue = np.array([p.revenue for p in results], dtype=float)
    else:
        raise ValidationError("pareto_front requires at least one result")
    if groups is None:
        group = np.zeros(positions.size, dtype=np.intp)
    else:
        groups = np.asarray(groups)
        if groups.shape != (len(results),) or not np.issubdtype(groups.dtype, np.integer):
            raise ValidationError(f"groups must be {len(results)} int labels, one per result")
        group = groups[positions]
    order = np.lexsort((positions, -revenue, avg_time, group))
    group = group[order]
    rank = np.cumsum(np.diff(group, prepend=group[:1]) != 0)
    key = rank * (positions.size + 1) + np.unique(revenue, return_inverse=True)[1][order]
    return positions[order[key > np.maximum.accumulate(np.concatenate(([-1], key)))[:-1]]]


def comparative_statics_scan(
    tau: float,
    rho_grid: list[float],
    occupancy: float,
    pop: PopulationParams,
    bpr: BprParams,
) -> tuple[EquilibriumBatch, dict[str, str]]:
    """The equilibria along a strictly increasing capacity-fraction grid at a fixed toll.

    Returns ``(rows, flags)``. ``rows`` is the :func:`solve_batch` of the
    grid, in grid order. ``flags`` maps each numeric column (``sigma_toll``,
    ``sigma_pool``, ``sigma_o``, ``c_delta``) to ``"non-decreasing"``,
    ``"non-increasing"`` or ``"neither"`` over the solved rows. Directions
    are reported, not asserted: the published directional claims conflict
    with each other, so observation is the honest output.
    """
    check(rho_values=tuple(map(float, rho_grid)))
    rows = solve_batch(tau, rho_grid, occupancy, pop, bpr)
    steps = np.diff(np.vstack((rows.shares, rows.gap))[:, rows.solved], axis=1)
    up, down = (steps >= 0.0).all(axis=1).tolist(), (steps <= 0.0).all(axis=1).tolist()
    names = ("sigma_toll", "sigma_pool", "sigma_o", "c_delta")
    flags = {n: "non-decreasing" if u else "non-increasing" if d else "neither" for n, u, d in zip(names, up, down)}
    return rows, flags
