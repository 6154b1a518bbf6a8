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
Each formula has one definition: every lane flow in the package comes from
:func:`lane_flows`, every lane time from :func:`bpr_time` and every latency
gap from :func:`lane_gap`, the last two sharing the power term of
:func:`_congestion`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_fields

__all__ = [
    "BprParams",
    "DesignParams",
    "StrategyShares",
]

SIMPLEX_TOL = 1e-12


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
        check_fields(self)


@dataclass(frozen=True)
class DesignParams:
    """The authority's levers: capacity split, toll price, occupancy rule.

    ``rho`` is the HOT capacity fraction; either end of [0, 1] would leave
    one lane group with zero capacity. ``tau`` is the toll in dollars.
    ``occupancy`` is the carpool size required for free HOT access
    (fractional values such as 2.5 model mixed requirements along the
    segment). ``errors._DOMAIN`` states the domain of all three.
    """

    rho: float
    tau: float
    occupancy: float

    def __post_init__(self):
        check_fields(self)


def on_simplex(toll, pool, ordinary):
    """Whether the shares lie on the simplex: each in [0, 1], summing to 1 within ``SIMPLEX_TOL``.

    The one share rule, elementwise over floats or numpy arrays; plain
    operators only, so a float check makes no numpy call.
    """
    return (
        (0.0 <= toll) & (toll <= 1.0) & (0.0 <= pool) & (pool <= 1.0) & (0.0 <= ordinary) & (ordinary <= 1.0)
        & (abs(toll + pool + ordinary - 1.0) <= SIMPLEX_TOL)
    )


@dataclass(frozen=True)
class StrategyShares:
    """Population fractions choosing each action; a point on the 2-simplex."""

    toll: float
    pool: float
    ordinary: float

    def __post_init__(self):
        if not on_simplex(self.toll, self.pool, self.ordinary):
            raise ValidationError(f"shares {self.as_tuple()} must each lie in [0, 1] and sum to 1 within {SIMPLEX_TOL}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.toll, self.pool, self.ordinary)


def lane_flows(toll, pool, ordinary, demand, occupancy):
    """(ordinary, HOT) vehicle flows, elementwise over floats or numpy arrays.

    Carpools of size ``occupancy`` fold that many travelers into one vehicle,
    so the HOT flow is ``(toll + pool/occupancy) * demand``.
    """
    return ordinary * demand, (toll + pool / occupancy) * demand


def _congestion(flow, capacity, bpr: BprParams):
    """The curve's power term ``(a * flow / capacity) ** b``, behind :func:`bpr_time` and :func:`lane_gap`."""
    return (bpr.a * flow / capacity) ** bpr.b


def bpr_time(flow, capacity, bpr: BprParams):
    """Volume-delay curve ``t_free * (1 + (a * flow / capacity) ** b)``.

    Over numpy arrays or scalars, under the caller's ``np.errstate``, and
    unvalidated: the one definition of the curve, whose power term
    :func:`lane_gap` shares. A power too large for a float is ``inf``, and
    a zero capacity makes the power ``inf``, or ``nan`` where ``a * flow``
    is 0.
    """
    return bpr.t_free * (1.0 + _congestion(flow, capacity, bpr))


def _capacities(rho, bpr: BprParams):
    """(ordinary, HOT) lane capacities ``v_cap * (1 - rho)`` and ``v_cap * rho``, elementwise."""
    return bpr.v_cap * (1.0 - rho), bpr.v_cap * rho


def lane_gap(shares, demand, occupancy, capacities, bpr: BprParams):
    """Ordinary-lane minus HOT-lane travel time at the (toll, pool, ordinary) shares, unvalidated.

    ``capacities`` is ``_capacities(rho, bpr)``. Computed as ``t_free * (x_o**b - x_h**b)``
    with ``x = a * flow / capacity``: the two times share ``t_free``, and subtracting them
    would cancel it and lose the gap's low digits whenever the power terms are small against 1.
    """
    flow_ordinary, flow_hot = lane_flows(*shares, demand, occupancy)
    return bpr.t_free * (_congestion(flow_ordinary, capacities[0], bpr) - _congestion(flow_hot, capacities[1], bpr))


# Nothing in src/ calls this; perfbench/child.py times it. ROADMAP items 1 and 11 delete it.
def latency_gap(sigma: StrategyShares, design: DesignParams, demand: float, bpr: BprParams) -> float:
    """Ordinary-lane latency minus HOT-lane latency at the given profile: :func:`lane_gap` as a float.

    Positive when the HOT lane is faster. Decreasing in the pool share when
    the toll share is held fixed and the remainder rides the ordinary lane.
    ``-inf`` where the HOT lane time overflows.
    """
    shares, capacities = np.array(sigma.as_tuple()), _capacities(design.rho, bpr)
    with np.errstate(all="ignore"):
        return float(lane_gap(shares, demand, design.occupancy, capacities, bpr))
