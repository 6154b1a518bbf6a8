"""Lane latency model and core parameter types.

A single highway segment is split into an ordinary lane group and a
high-occupancy toll (HOT) lane group. A capacity fraction ``rho`` of the
total capacity goes to the HOT lanes and ``1 - rho`` to the ordinary lanes.
Each lane group follows a volume-delay curve of the form

    latency(flow) = t_free * (1 + (a * flow / capacity) ** b)

Units are minutes for times, vehicles/minute for flows and capacities, and
dollars for money. Note that the curvature coefficient ``a`` multiplies the
flow/capacity ratio *inside* the power. The more common BPR convention is
``t_free * (1 + a * (flow / capacity) ** b)``; if your coefficients come
from a source using that convention, rescale ``a`` accordingly
(``a_inside = a_outside ** (1/b)``).

The parameter types validate their fields; the formulas validate nothing.
Every lane time in the package comes from :func:`lane_times`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite

__all__ = [
    "BprParams",
    "DesignParams",
    "StrategyShares",
    "latency_gap",
]

SIMPLEX_TOL = 1e-12

# The design domain: one rule per DesignParams field, elementwise over floats or numpy arrays.
_DESIGN_DOMAIN = {
    "rho": (lambda x: (0.0 < x) & (x < 1.0), "lie in the open interval (0, 1)"),
    "tau": (lambda x: (0.0 < x) & (x < np.inf), "be finite and > 0"),
    "occupancy": (lambda x: (2.0 <= x) & (x < np.inf), "be finite and >= 2"),
}


@dataclass(frozen=True)
class BprParams:
    """Volume-delay curve constants.

    Parameters
    ----------
    a : float
        Dimensionless curvature coefficient, > 0 (applied inside the power).
    b : float
        Dimensionless congestion exponent, >= 1.
    t_free : float
        Free-flow travel time of the segment in minutes, > 0.
    v_cap : float
        Total capacity of the segment in vehicles/minute, > 0.

    All four must be finite.
    """

    a: float
    b: float
    t_free: float
    v_cap: float

    def __post_init__(self):
        require_finite(self)
        if not self.a > 0:
            raise ValidationError(f"BPR coefficient a must be > 0, got {self.a}")
        if not self.b >= 1:
            raise ValidationError(f"BPR exponent b must be >= 1, got {self.b}")
        if not self.t_free > 0:
            raise ValidationError(f"free-flow time t_free must be > 0, got {self.t_free}")
        if not self.v_cap > 0:
            raise ValidationError(f"capacity v_cap must be > 0, got {self.v_cap}")


@dataclass(frozen=True)
class DesignParams:
    """The authority's levers: capacity split, toll price, occupancy rule.

    ``rho`` is the HOT capacity fraction; either end of [0, 1] would leave
    one lane group with zero capacity. ``tau`` is the toll in dollars.
    ``occupancy`` is the carpool size required for free HOT access
    (fractional values such as 2.5 model mixed requirements along the
    segment). :func:`check_design` states the domain of all three.
    """

    rho: float
    tau: float
    occupancy: float

    def __post_init__(self):
        require_finite(self)
        check_design(rho=self.rho, tau=self.tau, occupancy=self.occupancy)


def check_design(**values) -> None:
    """Raise ``ValidationError`` at the first value outside the :class:`DesignParams` domain.

    ``values`` maps any of the fields ``rho``, ``tau`` and ``occupancy`` to a
    float or a 1-d numpy array; they are checked in the order given, and in an
    array the message names the first bad index as a design point.
    """
    for name, value in values.items():
        holds, rule = _DESIGN_DOMAIN[name]
        ok = holds(value)
        if isinstance(ok, np.ndarray):
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValidationError(f"design point {i}: {name} must {rule}, got {value[i]}")
        elif not ok:
            raise ValidationError(f"{name} must {rule}, got {value}")


def check_rho_grid(rho_values) -> None:
    """Raise ``ValidationError`` unless the capacity fractions are non-empty, in the
    design domain and strictly increasing."""
    rho_values = tuple(rho_values)
    if not rho_values:
        raise ValidationError("rho_values must be non-empty")
    for rho in rho_values:
        check_design(rho=rho)
    if any(b <= a for a, b in zip(rho_values, rho_values[1:])):
        raise ValidationError(f"rho_values must be strictly increasing, got {rho_values}")


@dataclass(frozen=True)
class StrategyShares:
    """Population fractions choosing each action; a point on the 2-simplex."""

    toll: float
    pool: float
    ordinary: float

    def __post_init__(self):
        for name, value in (("toll", self.toll), ("pool", self.pool), ("ordinary", self.ordinary)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"share '{name}' must lie in [0, 1], got {value}")
        total = self.toll + self.pool + self.ordinary
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"shares must sum to 1 within {SIMPLEX_TOL}, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.toll, self.pool, self.ordinary)


def lane_flows(toll, pool, ordinary, demand, occupancy):
    """(ordinary, HOT) vehicle flows, elementwise over floats or numpy arrays.

    Carpools of size ``occupancy`` fold that many travelers into one vehicle,
    so the HOT flow is ``(toll + pool/occupancy) * demand``.
    """
    return ordinary * demand, (toll + pool / occupancy) * demand


def bpr_time(flow, capacity, bpr: BprParams):
    """Volume-delay curve ``t_free * (1 + (a * flow / capacity) ** b)``.

    Elementwise over floats or numpy arrays and unvalidated: the one
    definition of the curve behind :func:`lane_times`.
    """
    return bpr.t_free * (1.0 + (bpr.a * flow / capacity) ** bpr.b)


def lane_times(shares, demand, occupancy, rho, bpr: BprParams):
    """(ordinary, HOT) vehicle flows and travel times at the (toll, pool, ordinary) shares.

    The ordinary lanes hold capacity ``v_cap * (1 - rho)``, the HOT lanes
    ``v_cap * rho``. Elementwise over floats or numpy arrays and unvalidated.
    """
    flow_ordinary, flow_hot = lane_flows(*shares, demand, occupancy)
    times = bpr_time(flow_ordinary, bpr.v_cap * (1.0 - rho), bpr), bpr_time(flow_hot, bpr.v_cap * rho, bpr)
    return (flow_ordinary, flow_hot), times


def latency_gap(sigma: StrategyShares, design: DesignParams, demand: float, bpr: BprParams) -> float:
    """Ordinary-lane latency minus HOT-lane latency at the given profile.

    Positive when the HOT lane is faster. Decreasing in the pool share when
    the toll share is held fixed and the remainder rides the ordinary lane.
    """
    _, (time_ordinary, time_hot) = lane_times(sigma.as_tuple(), demand, design.occupancy, design.rho, bpr)
    return time_ordinary - time_hot
