"""Latency model: parameter validation, frozen values, curve properties."""

import numpy as np
import pytest

from hotlane import (
    BprParams,
    DesignParams,
    StrategyShares,
    ValidationError,
    latency_gap,
    latency_hot,
    latency_ordinary,
    vehicle_flows,
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


def test_vehicle_flows():
    assert vehicle_flows(StrategyShares(0, 0, 1), 115.0, 2.5) == (115.0, 0.0)
    assert vehicle_flows(StrategyShares(0, 1, 0), 115.0, 2.5) == (0.0, 46.0)
    flow_ordinary, flow_hot = vehicle_flows(StrategyShares(0.2, 0.3, 0.5), 115.0, 2.5)
    assert flow_ordinary == pytest.approx(57.5, rel=1e-15)
    assert flow_hot == pytest.approx(36.8, rel=1e-15)
    with pytest.raises(ValidationError):
        vehicle_flows(StrategyShares(0, 0, 1), 0.0, 2.5)


def test_latency_ordinary_values(i880_bpr):
    for rho in (0.1, 0.5, 0.9):
        assert latency_ordinary(0.0, rho, i880_bpr) == 22.0
    assert latency_ordinary(115.0, 0.5, i880_bpr) == pytest.approx(L_ORD_115_HALF, rel=1e-13)
    # Inner ratio exactly one doubles the free-flow time.
    assert latency_ordinary(70.0 / 0.15, 0.5, i880_bpr) == pytest.approx(44.0, rel=1e-13)


def test_latency_hot_values(i880_bpr):
    for rho in (0.1, 0.5, 0.9):
        assert latency_hot(0.0, rho, i880_bpr) == 22.0
    assert latency_hot(46.0, 0.25, i880_bpr) == pytest.approx(L_HOT_46_QUARTER, rel=1e-13)
    # Symmetric capacities give identical curves.
    assert latency_hot(61.0, 0.5, i880_bpr) == latency_ordinary(61.0, 0.5, i880_bpr)


def test_latency_domain_errors(i880_bpr):
    for bad_rho in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValidationError):
            latency_ordinary(10.0, bad_rho, i880_bpr)
        with pytest.raises(ValidationError):
            latency_hot(10.0, bad_rho, i880_bpr)
    with pytest.raises(ValidationError):
        latency_ordinary(-1.0, 0.5, i880_bpr)
    with pytest.raises(ValidationError):
        latency_hot(-1.0, 0.5, i880_bpr)


def test_negative_flow_rejected_scalar_and_array(i880_bpr):
    for flow in (-1e-9, np.float64(-2.0), np.array([10.0, -1.0, 5.0])):
        for latency in (latency_ordinary, latency_hot):
            with pytest.raises(ValidationError, match="flow must be >= 0"):
                latency(flow, 0.5, i880_bpr)


def test_latency_gap_symmetric_zero(i880_bpr):
    # Equal flows on equally sized lanes: pool/occupancy balances ordinary.
    sigma = StrategyShares(0.0, 2.5 / 3.5, 1.0 / 3.5)
    design = DesignParams(rho=0.5, tau=1.0, occupancy=2.5)
    assert latency_gap(sigma, design, 115.0, i880_bpr) == 0.0


def test_latency_gap_all_ordinary(i880_bpr):
    sigma = StrategyShares(0.0, 0.0, 1.0)
    design = DesignParams(rho=0.25, tau=1.0, occupancy=2.5)
    gap = latency_gap(sigma, design, 115.0, i880_bpr)
    expected = latency_ordinary(115.0, 0.25, i880_bpr) - 22.0
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
        assert latency_ordinary(f1, rho, i880_bpr) < latency_ordinary(f2, rho, i880_bpr)
        assert latency_hot(f1, rho, i880_bpr) < latency_hot(f2, rho, i880_bpr)


def test_assumption_monotonic_in_capacity(i880_bpr):
    rng = np.random.default_rng(43)
    for _ in range(1000):
        rho1, rho2 = sorted(rng.uniform(0.05, 0.95, size=2))
        if rho1 == rho2:
            continue
        flow = rng.uniform(1.0, 300.0)
        # Growing rho shrinks ordinary capacity and widens HOT capacity.
        assert latency_ordinary(flow, rho1, i880_bpr) < latency_ordinary(flow, rho2, i880_bpr)
        assert latency_hot(flow, rho1, i880_bpr) > latency_hot(flow, rho2, i880_bpr)


def test_assumption_equal_free_flow(i880_bpr):
    for rho in np.linspace(0.01, 0.99, 99):
        assert latency_ordinary(0.0, rho, i880_bpr) == i880_bpr.t_free
        assert latency_hot(0.0, rho, i880_bpr) == i880_bpr.t_free


def test_latency_accepts_arrays(i880_bpr):
    flows = np.array([0.0, 50.0, 115.0])
    out = latency_ordinary(flows, 0.5, i880_bpr)
    assert out.shape == (3,)
    assert out[0] == 22.0
    assert out[2] == pytest.approx(L_ORD_115_HALF, rel=1e-13)
