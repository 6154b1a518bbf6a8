"""Design-space evaluation: objectives, sweeps, Pareto fronts, statics.

The authority weighs two objectives at equilibrium: the demand-weighted
average travel time ``T = (toll + pool) * hot_latency + ordinary * ordinary_latency``
(to minimize) and the toll revenue ``R = demand * toll_share * tau`` (to
maximize). A sweep evaluates a list of design points, recording per-point
failures instead of aborting, and the Pareto front keeps the non-dominated
subset under (minimize T, maximize R).
"""

from __future__ import annotations

from dataclasses import dataclass

from .equilibrium import EquilibriumOutcome, solve, solve_batch
from .errors import EmptyInput, HotLaneError, ValidationError
from .latency import BprParams, DesignParams
from .population import PopulationParams

__all__ = [
    "DesignPointResult",
    "FailedDesignPoint",
    "ParetoFront",
    "evaluate_design",
    "sweep",
    "pareto_front",
    "comparative_statics_scan",
    "StaticsTable",
]


@dataclass(frozen=True)
class DesignPointResult:
    """Equilibrium outcome of one design point plus its two objectives."""

    design: DesignParams
    outcome: EquilibriumOutcome
    avg_time: float
    revenue: float

    def __post_init__(self):
        if self.revenue < 0:
            raise ValidationError(f"revenue must be >= 0, got {self.revenue}")
        if self.outcome.regime.is_regime_a and self.revenue != 0.0:
            raise ValidationError(f"Regime-A points collect no revenue, got {self.revenue}")


@dataclass(frozen=True)
class FailedDesignPoint:
    """Marker kept in sweep output when a design point could not be solved."""

    design: DesignParams
    error: str


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated design points, sorted by average time ascending.

    Along the front both coordinates strictly increase: shaving travel time
    always costs revenue and vice versa.
    """

    points: tuple[DesignPointResult, ...]

    def __post_init__(self):
        for earlier, later in zip(self.points, self.points[1:]):
            if not (earlier.avg_time < later.avg_time and earlier.revenue < later.revenue):
                raise ValidationError("front points must strictly increase in both avg_time and revenue")


def _objectives(
    design: DesignParams, outcome: EquilibriumOutcome, pop: PopulationParams
) -> DesignPointResult:
    shares = outcome.shares
    ordinary_time, hot_time = outcome.latencies
    avg_time = (shares.toll + shares.pool) * hot_time + shares.ordinary * ordinary_time
    revenue = pop.demand * shares.toll * design.tau
    return DesignPointResult(design, outcome, avg_time, revenue)


def _describe(exc: HotLaneError) -> str:
    return f"{type(exc).__name__}: {exc}"


def evaluate_design(design: DesignParams, pop: PopulationParams, bpr: BprParams) -> DesignPointResult:
    """Solve the design point and evaluate both objectives at equilibrium."""
    return _objectives(design, solve(design, pop, bpr), pop)


def sweep(
    designs: list[DesignParams], pop: PopulationParams, bpr: BprParams
) -> list[DesignPointResult | FailedDesignPoint]:
    """Evaluate every design point in one batched solve; output order matches input order.

    Solver failures become :class:`FailedDesignPoint` entries so a single
    bad point cannot abort a grid run.
    """
    return [
        FailedDesignPoint(design, _describe(outcome))
        if isinstance(outcome, HotLaneError)
        else _objectives(design, outcome, pop)
        for design, outcome in zip(designs, solve_batch(designs, pop, bpr))
    ]


def pareto_front(results: list[DesignPointResult]) -> ParetoFront:
    """Maximal non-dominated subset under (minimize avg_time, maximize revenue).

    A point dominates another when it is no slower and no less profitable,
    strictly better in at least one coordinate. Exact ties on both
    coordinates keep the first-seen point.
    """
    if not results:
        raise EmptyInput("pareto_front requires at least one result")
    order = sorted(range(len(results)), key=lambda i: (results[i].avg_time, -results[i].revenue, i))
    kept: list[DesignPointResult] = []
    best_revenue = -1.0
    for i in order:
        point = results[i]
        if point.revenue > best_revenue:
            kept.append(point)
            best_revenue = point.revenue
    return ParetoFront(tuple(kept))


@dataclass(frozen=True)
class StaticsTable:
    """Per-rho sweep entries at a fixed toll plus observed column directions.

    ``rows`` holds the :func:`sweep` entry of each rho in grid order.
    ``flags`` maps each numeric column (``sigma_toll``, ``sigma_pool``,
    ``sigma_o``, ``c_delta``) to ``"non-decreasing"``, ``"non-increasing"``
    or ``"neither"`` over the solved rows. Directions are reported, not
    asserted: the published directional claims conflict with each other, so
    observation is the honest output.
    """

    tau: float
    rows: tuple[DesignPointResult | FailedDesignPoint, ...]
    flags: dict[str, str]


def _direction(values: list[float]) -> str:
    non_decreasing = all(b >= a for a, b in zip(values, values[1:]))
    non_increasing = all(b <= a for a, b in zip(values, values[1:]))
    if non_decreasing:
        return "non-decreasing"
    if non_increasing:
        return "non-increasing"
    return "neither"


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

    designs = [DesignParams(rho=rho, tau=tau, occupancy=occupancy) for rho in rho_grid]
    rows = sweep(designs, pop, bpr)
    solved = [row.outcome for row in rows if isinstance(row, DesignPointResult)]
    columns = {
        "sigma_toll": [o.shares.toll for o in solved],
        "sigma_pool": [o.shares.pool for o in solved],
        "sigma_o": [o.shares.ordinary for o in solved],
        "c_delta": [o.gap for o in solved],
    }
    flags = {name: _direction(values) for name, values in columns.items()}
    return StaticsTable(tau, tuple(rows), flags)
