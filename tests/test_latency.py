"""Latency model: parameter validation, frozen values, curve properties."""

import math

import numpy as np
import pytest

from hotlane import (
    BprParams,
    DesignParams,
    StrategyShares,
    ValidationError,
)
from hotlane.latency import (
    _capacities,
    _congestion,
    bpr_time,
    lane_flows,
    lane_gap,
    latency_gap,
    on_simplex,
)

# Frozen from 40-digit evaluation of the latency formulas.
L_ORD_115_HALF = 22.08113101669877
L_HOT_46_QUARTER = 22.033231264439817
GAP_030_070_QUARTER = 0.0035786405080374844


def test_bpr_params_validation():
    with pytest.raises(ValidationError):
        BprParams(a=0.0, b=4.0, t_free=22.0, v_cap=140.0)
    with pytest.raises(ValidationError):
        BprParams(a=0.15, b=0.5, t_free=22.0, v_cap=140.0)
    with pytest.raises(ValidationError):
        BprParams(a=0.15, b=4.0, t_free=0.0, v_cap=140.0)
    with pytest.raises(ValidationError):
        BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=-1.0)


def test_design_params_validation():
    for rho in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValidationError):
            DesignParams(rho=rho, tau=1.0, occupancy=2.5)
    with pytest.raises(ValidationError):
        DesignParams(rho=0.5, tau=0.0, occupancy=2.5)
    with pytest.raises(ValidationError):
        DesignParams(rho=0.5, tau=1.0, occupancy=1.9)


def test_strategy_shares_validation():
    StrategyShares(0.2, 0.3, 0.5)
    with pytest.raises(ValidationError):
        StrategyShares(0.2, 0.3, 0.6)
    with pytest.raises(ValidationError):
        StrategyShares(-0.1, 0.6, 0.5)
    with pytest.raises(ValidationError):
        StrategyShares(1.2, -0.1, -0.1)
    # The same rule on share columns, one point per case above.
    columns = np.array([(0.2, 0.3, 0.5), (0.2, 0.3, 0.6), (-0.1, 0.6, 0.5), (1.2, -0.1, -0.1)]).T
    assert on_simplex(*columns).tolist() == [True, False, False, False]


def test_vehicle_flows():
    assert lane_flows(*StrategyShares(0, 0, 1).as_tuple(), 115.0, 2.5) == (115.0, 0.0)
    assert lane_flows(*StrategyShares(0, 1, 0).as_tuple(), 115.0, 2.5) == (0.0, 46.0)
    flow_ordinary, flow_hot = lane_flows(*StrategyShares(0.2, 0.3, 0.5).as_tuple(), 115.0, 2.5)
    assert flow_ordinary == pytest.approx(57.5, rel=1e-15)
    assert flow_hot == pytest.approx(36.8, rel=1e-15)


def test_latency_ordinary_values(i880_bpr):
    for rho in (0.1, 0.5, 0.9):
        assert bpr_time(0.0, i880_bpr.v_cap * (1 - rho), i880_bpr) == 22.0
    assert bpr_time(115.0, i880_bpr.v_cap * (1 - 0.5), i880_bpr) == pytest.approx(L_ORD_115_HALF, rel=1e-13)
    # Inner ratio exactly one doubles the free-flow time.
    assert bpr_time(70.0 / 0.15, i880_bpr.v_cap * (1 - 0.5), i880_bpr) == pytest.approx(44.0, rel=1e-13)


def test_latency_hot_values(i880_bpr):
    for rho in (0.1, 0.5, 0.9):
        assert bpr_time(0.0, i880_bpr.v_cap * rho, i880_bpr) == 22.0
    assert bpr_time(46.0, i880_bpr.v_cap * 0.25, i880_bpr) == pytest.approx(L_HOT_46_QUARTER, rel=1e-13)
    # Symmetric capacities give identical curves.
    hot, ordinary = i880_bpr.v_cap * 0.5, i880_bpr.v_cap * (1 - 0.5)
    assert bpr_time(61.0, hot, i880_bpr) == bpr_time(61.0, ordinary, i880_bpr)


def test_bpr_time_overflows_to_inf_on_floats_and_arrays(i880_bpr):
    """A power too large for a float is ``inf`` on a numpy scalar, as it is on an array."""
    with np.errstate(over="ignore"):
        assert bpr_time(np.float64(1e300), 1.0, i880_bpr) == math.inf == bpr_time(np.array([1e300]), 1.0, i880_bpr)[0]


def test_bpr_time_at_zero_capacity_matches_numpy(i880_bpr):
    """A zero capacity gives the same value on a numpy scalar as on an array: ``inf``, or ``nan`` at zero flow."""
    with np.errstate(divide="ignore", invalid="ignore"):
        assert bpr_time(np.float64(1.0), 0.0, i880_bpr) == math.inf == bpr_time(np.array([1.0]), 0.0, i880_bpr)[0]
        assert math.isnan(bpr_time(np.float64(0.0), 0.0, i880_bpr)) and np.isnan(
            bpr_time(np.array([0.0]), 0.0, i880_bpr)[0]
        )


def test_latency_gap_symmetric_zero(i880_bpr):
    # Equal flows on equally sized lanes: pool/occupancy balances ordinary.
    sigma = StrategyShares(0.0, 2.5 / 3.5, 1.0 / 3.5)
    design = DesignParams(rho=0.5, tau=1.0, occupancy=2.5)
    assert latency_gap(sigma, design, 115.0, i880_bpr) == 0.0


def test_latency_gap_all_ordinary(i880_bpr):
    sigma = StrategyShares(0.0, 0.0, 1.0)
    design = DesignParams(rho=0.25, tau=1.0, occupancy=2.5)
    gap = latency_gap(sigma, design, 115.0, i880_bpr)
    expected = bpr_time(115.0, i880_bpr.v_cap * (1 - 0.25), i880_bpr) - 22.0
    assert gap == pytest.approx(expected, rel=1e-15)
    assert gap > 0


def test_latency_gap_frozen(i880_bpr):
    sigma = StrategyShares(0.0, 0.3, 0.7)
    design = DesignParams(rho=0.25, tau=1.0, occupancy=2.5)
    assert latency_gap(sigma, design, 115.0, i880_bpr) == pytest.approx(
        GAP_030_070_QUARTER, rel=1e-13
    )


def test_latency_gap_antisymmetry(i880_bpr):
    # Swapping the two lane flows at rho = 0.5 negates the gap.
    design = DesignParams(rho=0.5, tau=1.0, occupancy=2.5)
    sigma = StrategyShares(0.2, 0.3, 0.5)  # flows (0.5 D, 0.32 D)
    swapped = StrategyShares(0.38, 0.3, 0.32)  # flows (0.32 D, 0.5 D)
    gap = latency_gap(sigma, design, 115.0, i880_bpr)
    assert latency_gap(swapped, design, 115.0, i880_bpr) == -gap


def test_latency_gap_decreasing_in_pool(i880_bpr):
    design = DesignParams(rho=0.4, tau=1.0, occupancy=2.5)
    pools = np.linspace(0.0, 1.0, 41)
    gaps = [
        latency_gap(StrategyShares(0.0, p, 1.0 - p), design, 115.0, i880_bpr) for p in pools
    ]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_assumption_monotonic_in_flow(i880_bpr):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rho = rng.uniform(0.05, 0.95)
        f1, f2 = sorted(rng.uniform(0.0, 300.0, size=2))
        if f1 == f2:
            continue
        ordinary, hot = i880_bpr.v_cap * (1 - rho), i880_bpr.v_cap * rho
        assert bpr_time(f1, ordinary, i880_bpr) < bpr_time(f2, ordinary, i880_bpr)
        assert bpr_time(f1, hot, i880_bpr) < bpr_time(f2, hot, i880_bpr)


def test_assumption_monotonic_in_capacity(i880_bpr):
    rng = np.random.default_rng(43)
    for _ in range(1000):
        rho1, rho2 = sorted(rng.uniform(0.05, 0.95, size=2))
        if rho1 == rho2:
            continue
        flow = rng.uniform(1.0, 300.0)
        # Growing rho shrinks ordinary capacity and widens HOT capacity.
        v_cap = i880_bpr.v_cap
        assert bpr_time(flow, v_cap * (1 - rho1), i880_bpr) < bpr_time(flow, v_cap * (1 - rho2), i880_bpr)
        assert bpr_time(flow, v_cap * rho1, i880_bpr) > bpr_time(flow, v_cap * rho2, i880_bpr)


def test_assumption_equal_free_flow(i880_bpr):
    for rho in np.linspace(0.01, 0.99, 99):
        assert bpr_time(0.0, i880_bpr.v_cap * (1 - rho), i880_bpr) == i880_bpr.t_free
        assert bpr_time(0.0, i880_bpr.v_cap * rho, i880_bpr) == i880_bpr.t_free


def test_latency_accepts_arrays(i880_bpr):
    flows = np.array([0.0, 50.0, 115.0])
    out = bpr_time(flows, i880_bpr.v_cap * (1 - 0.5), i880_bpr)
    assert out.shape == (3,)
    assert out[0] == 22.0
    assert out[2] == pytest.approx(L_ORD_115_HALF, rel=1e-13)


def test_lane_times_elementwise(i880_bpr):
    """Arrays of shares and rho give, point by point, the scalar flows and gaps."""
    profiles = [StrategyShares(0.0, 0.0, 1.0), StrategyShares(0.2, 0.3, 0.5), StrategyShares(0.0, 0.3, 0.7)]
    rhos = [0.25, 0.5, 0.75]
    shares = tuple(np.array(column) for column in zip(*(sigma.as_tuple() for sigma in profiles)))
    capacities = _capacities(np.array(rhos), i880_bpr)
    flows = lane_flows(*shares, 115.0, 2.5)
    gaps = lane_gap(shares, 115.0, 2.5, capacities, i880_bpr)
    for k, (sigma, rho) in enumerate(zip(profiles, rhos)):
        assert (flows[0][k], flows[1][k]) == lane_flows(*sigma.as_tuple(), 115.0, 2.5)
        gap = latency_gap(sigma, DesignParams(rho=rho, tau=1.0, occupancy=2.5), 115.0, i880_bpr)
        assert gaps[k] == gap


@pytest.mark.parametrize("a", [0.15, 1.0])
def test_lane_gap_is_the_time_difference(a):
    """``lane_gap`` and the difference of the two lane times agree to their float error, in minutes.

    Both share the power terms ``P = (a * flow / capacity) ** b`` bit for bit. Each time
    ``t_free * (1 + P)`` rounds twice, the difference of the times once more, and
    ``t_free * (P_o - P_h)`` twice; with ``u = eps/2`` that is at most
    ``u * t_free * (4 + 5 * (P_o + P_h))``, inside ``3 * eps * t_free * (1 + P_o + P_h)``.
    """
    bpr = BprParams(a=a, b=4.0, t_free=22.0, v_cap=140.0)
    rng = np.random.default_rng(5)
    toll, pool = rng.uniform(0.0, 0.5, (2, 500))
    shares, rho = (toll, pool, 1.0 - toll - pool), rng.uniform(0.05, 0.95, 500)
    capacities = _capacities(rho, bpr)
    flow_ordinary, flow_hot = lane_flows(*shares, 115.0, 2.5)
    times = bpr_time(flow_ordinary, capacities[0], bpr), bpr_time(flow_hot, capacities[1], bpr)
    powers = _congestion(flow_ordinary, capacities[0], bpr) + _congestion(flow_hot, capacities[1], bpr)
    bound = 3 * np.finfo(float).eps * bpr.t_free * (1.0 + powers)
    assert np.all(np.abs(times[0] - times[1] - lane_gap(shares, 115.0, 2.5, capacities, bpr)) <= bound)
