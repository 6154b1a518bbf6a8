"""Traveler population: the type rectangle and its best-response partition.

Travelers are nonatomic agents with a value of time ``beta`` (dollars/minute)
and a carpool disutility ``gamma`` (dollars), jointly uniform on the
rectangle [0, beta_max] x [0, gamma_max]. Against a share profile with
latency gap ``g`` (ordinary minus HOT latency) and toll ``tau``, the plane
splits into three best-response regions:

* toll:     beta * g >= tau  and  gamma >= tau
* pool:     beta * g >= gamma  and  gamma <= tau
* ordinary: beta * g <= min(tau, gamma)

Region measures are returned as population fractions (the uniform density
1/(beta_max*gamma_max) integrates to 1); total demand enters the model only
through vehicle flows. Boundary ties have zero measure and are broken by the
fixed priority pool > toll > ordinary so that agent-level labeling is
deterministic and reproducible.

An agent of type ``(beta, gamma)`` pays ``beta`` times its lane time, plus
``tau`` if it tolls or ``gamma`` if it carpools; the regions above are where
each action is cheapest. The shares that best-respond to a profile ``sigma``
are ``region_measures_at_gap(latency_gap(sigma, ...), tau, pop)``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_fields
from .latency import StrategyShares

__all__ = ["PopulationParams"]


@dataclass(frozen=True)
class PopulationParams:
    """Total demand and the bounds of the uniform type rectangle.

    ``demand`` is in vehicles/minute equivalents (every traveler counts as
    one vehicle unless folded into a carpool), ``beta_max`` in
    dollars/minute, ``gamma_max`` in dollars. All finite and strictly positive.
    """

    demand: float
    beta_max: float
    gamma_max: float

    def __post_init__(self):
        check_fields(self)


def _toll_levels(tau, pop: PopulationParams):
    """``(tau, min(tau, gamma_max), max(0, gamma_max - tau))``: the toll's terms in :func:`region_fractions`."""
    return tau, np.minimum(tau, pop.gamma_max), np.maximum(0.0, pop.gamma_max - tau)


def region_fractions(gap, levels, pop: PopulationParams):
    """(toll, pool, ordinary) region fractions at a positive latency gap.

    Elementwise over floats or numpy arrays and unvalidated: the one
    closed form behind :func:`region_measures_at_gap` and the batched
    equilibrium kernel. The pool region lies below ``gamma = beta * g``
    capped at ``t = min(tau, gamma_max)``; with ``h = min(beta_max * g, t)``
    its area is ``h * (beta_max - h / (2 g))``, a pure triangle while
    ``beta_max * g <= t`` and a triangle plus rectangle beyond. The toll
    region is the rectangle above ``gamma = tau`` and right of
    ``beta = tau / g``. ``levels`` is ``_toll_levels(tau, pop)``, hoisted out of a caller's loop over gaps.
    """
    tau, cap, toll_height = levels
    beta_max, area = pop.beta_max, pop.beta_max * pop.gamma_max
    height = np.minimum(beta_max * gap, cap)
    pool = height * (beta_max - 0.5 * height / gap) / area
    toll = np.maximum(0.0, beta_max - tau / gap) * toll_height / area
    return toll, pool, np.maximum(0.0, 1.0 - pool - toll)


# Nothing in src/ calls this; perfbench/child.py times it. ROADMAP items 1 and 11 delete it.
def region_measures_at_gap(gap: float, tau: float, pop: PopulationParams) -> StrategyShares:
    """Population fractions of the three best-response regions, closed form.

    See :func:`region_fractions`. A non-positive gap sends everyone to the
    ordinary lane.
    """
    if gap <= 0.0:
        return StrategyShares(0.0, 0.0, 1.0)
    toll, pool, ordinary = region_fractions(gap, _toll_levels(tau, pop), pop)
    return StrategyShares(float(toll), float(pool), float(ordinary))
