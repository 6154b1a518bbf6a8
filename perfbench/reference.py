"""Independent reference equilibrium: one vectorised bisection in the latency gap.

Written from the model description, not from hotlane's solver. Against a
latency gap ``g > 0`` (ordinary minus HOT latency) and toll ``tau``, agent
``(beta, gamma)`` on the uniform rectangle ``[0, beta_max] x [0, gamma_max]``

* carpools when ``beta*g >= gamma`` and ``gamma <= tau``,
* pays the toll when ``beta*g >= tau`` and ``gamma >= tau``,
* rides the ordinary lanes otherwise.

The region measures are monotone in ``g`` and moving travelers onto the HOT
lanes closes the gap, so ``F(g) = gap(shares(g)) - g`` falls strictly from
``F(0) = gap(everyone ordinary) > 0`` and has one root. Every design point of
a grid is bisected at once until the bracket reaches float resolution.
"""

from __future__ import annotations

import numpy as np


def shares_at_gap(g, tau, beta_max: float, gamma_max: float):
    """(toll, pool, ordinary) population fractions of the best-response regions."""
    pos = g > 0
    gp = np.where(pos, g, 1.0)
    cap = np.minimum(tau, gamma_max)  # the pool region lies below gamma = min(tau, gamma_max)
    peak = beta_max * gp
    cross = cap / gp
    pool_area = np.where(peak <= cap, 0.5 * beta_max * peak, 0.5 * cap * cross + cap * (beta_max - cross))
    toll_area = np.maximum(0.0, beta_max - tau / gp) * np.maximum(0.0, gamma_max - tau)
    area = beta_max * gamma_max
    pool = np.where(pos, pool_area / area, 0.0)
    toll = np.where(pos, toll_area / area, 0.0)
    return toll, pool, 1.0 - toll - pool


def latency_gap(toll, pool, ordinary, rho, p: dict):
    """Ordinary minus HOT latency, ``t_free * (1 + (a * flow / capacity) ** b)`` per lane group."""
    flow_ordinary = ordinary * p["demand"]
    flow_hot = (toll + pool / p["occupancy"]) * p["demand"]
    ordinary_time = p["t_free"] * (1.0 + (p["a"] * flow_ordinary / (p["v_cap"] * (1.0 - rho))) ** p["b"])
    hot_time = p["t_free"] * (1.0 + (p["a"] * flow_hot / (p["v_cap"] * rho)) ** p["b"])
    return ordinary_time - hot_time


def equilibrium_shares(rho, tau, p: dict) -> np.ndarray:
    """Equilibrium (toll, pool, ordinary) shares, one row per ``(rho[i], tau[i])``."""
    rho = np.asarray(rho, dtype=float)
    tau = np.asarray(tau, dtype=float)

    def excess(g):
        return latency_gap(*shares_at_gap(g, tau, p["beta_max"], p["gamma_max"]), rho, p) - g

    lo = np.zeros_like(rho)
    hi = latency_gap(0.0, 0.0, 1.0, rho, p)
    if not np.all(hi > 0):
        raise ValueError("the HOT lane is not faster when everyone rides the ordinary lanes")
    for _ in range(2100):  # bounded by the float exponent range; ~60-80 steps in practice
        mid = 0.5 * (lo + hi)
        open_ = (mid != lo) & (mid != hi)
        if not open_.any():
            break
        up = excess(mid) > 0
        lo = np.where(open_ & up, mid, lo)
        hi = np.where(open_ & ~up, mid, hi)
    toll, pool, ordinary = shares_at_gap(0.5 * (lo + hi), tau, p["beta_max"], p["gamma_max"])
    return np.stack([toll, pool, ordinary], axis=1)
