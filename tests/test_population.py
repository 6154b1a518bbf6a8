"""Agent costs, best-response regions, and closed-form region measures."""

import numpy as np
import pytest

from hotlane import (
    DesignParams,
    PopulationParams,
    StrategyShares,
    ValidationError,
)
from hotlane.latency import _capacities, lane_gap, latency_gap
from hotlane.population import _toll_levels, region_fractions, region_measures_at_gap
from paper_reference import ActionLabel, action_cost, best_response_at_gap

# Frozen from 40-digit evaluation: beta=1.5, gamma=4, sigma=(0.1, 0.2, 0.7),
# rho=0.25, tau=3 on the I-880 calibration.
COST_TOLL = 36.002044034306153
COST_POOL = 37.002044034306153
COST_ORDINARY = 33.005771720625


def test_population_params_validation():
    with pytest.raises(ValidationError):
        PopulationParams(demand=0.0, beta_max=1.5, gamma_max=8.0)
    with pytest.raises(ValidationError):
        PopulationParams(demand=115.0, beta_max=0.0, gamma_max=8.0)
    with pytest.raises(ValidationError):
        PopulationParams(demand=115.0, beta_max=1.5, gamma_max=-2.0)


def test_action_cost_zero_type(i880_pop, i880_bpr):
    # With zero value of time only the direct payments remain.
    sigma = StrategyShares(0.2, 0.3, 0.5)
    design = DesignParams(rho=0.5, tau=3.0, occupancy=2.5)
    assert action_cost(0.0, 0.0, ActionLabel.TOLL, sigma, design, i880_pop, i880_bpr) == 3.0
    assert action_cost(0.0, 0.0, ActionLabel.POOL, sigma, design, i880_pop, i880_bpr) == 0.0
    assert action_cost(0.0, 0.0, ActionLabel.ORDINARY, sigma, design, i880_pop, i880_bpr) == 0.0


def test_action_cost_indifference_line(i880_pop, i880_bpr):
    # gamma == tau makes toll and pool cost identical.
    sigma = StrategyShares(0.1, 0.4, 0.5)
    design = DesignParams(rho=0.4, tau=3.0, occupancy=2.5)
    toll = action_cost(1.0, 3.0, ActionLabel.TOLL, sigma, design, i880_pop, i880_bpr)
    pool = action_cost(1.0, 3.0, ActionLabel.POOL, sigma, design, i880_pop, i880_bpr)
    assert toll == pool


def test_action_cost_frozen(i880_pop, i880_bpr):
    sigma = StrategyShares(0.1, 0.2, 0.7)
    design = DesignParams(rho=0.25, tau=3.0, occupancy=2.5)
    assert action_cost(1.5, 4.0, ActionLabel.TOLL, sigma, design, i880_pop, i880_bpr) == pytest.approx(
        COST_TOLL, rel=1e-13
    )
    assert action_cost(1.5, 4.0, ActionLabel.POOL, sigma, design, i880_pop, i880_bpr) == pytest.approx(
        COST_POOL, rel=1e-13
    )
    assert action_cost(
        1.5, 4.0, ActionLabel.ORDINARY, sigma, design, i880_pop, i880_bpr
    ) == pytest.approx(COST_ORDINARY, rel=1e-13)


def test_best_response_at_gap_regions():
    tau = 2.0
    # Non-positive gap: the HOT lane is no faster and costs extra.
    assert best_response_at_gap(1.0, 1.0, -0.5, tau) is ActionLabel.ORDINARY
    assert best_response_at_gap(1.0, 1.0, 0.0, tau) is ActionLabel.ORDINARY
    # Free carpooling with a faster HOT lane.
    assert best_response_at_gap(1.0, 0.0, 0.5, tau) is ActionLabel.POOL
    # Both toll inequalities strict.
    assert best_response_at_gap(2.0, 5.0, 2.0, tau) is ActionLabel.TOLL
    # Low value of time rides the ordinary lane.
    assert best_response_at_gap(0.1, 5.0, 1.0, tau) is ActionLabel.ORDINARY


def test_best_response_tie_priority():
    # On the boundary gamma == tau with beta*gap >= tau both the pool and
    # toll inequalities hold; the fixed priority picks pool.
    assert best_response_at_gap(2.0, 2.0, 1.0, 2.0) is ActionLabel.POOL
    # beta*gap == gamma exactly: pool rather than ordinary.
    assert best_response_at_gap(1.0, 1.0, 1.0, 2.0) is ActionLabel.POOL
    # beta*gap == tau with gamma > tau: toll rather than ordinary.
    assert best_response_at_gap(1.0, 3.0, 2.0, 2.0) is ActionLabel.TOLL


def test_best_response_matches_cost_argmin(i880_pop, i880_bpr):
    """On the open interior of each region the label minimizes action_cost."""
    rng = np.random.default_rng(7)
    design = DesignParams(rho=0.75, tau=0.5, occupancy=2.5)
    sigma = StrategyShares(0.1, 0.1, 0.8)
    gap = latency_gap(sigma, design, i880_pop.demand, i880_bpr)
    assert gap > 0
    for _ in range(500):
        beta, gamma = rng.uniform(0, 1.5), rng.uniform(0, 8.0)
        margins = (
            abs(beta * gap - design.tau),
            abs(beta * gap - gamma),
            abs(gamma - design.tau),
        )
        if min(margins) < 1e-6:  # boundary ties are measure zero; skip them
            continue
        costs = {
            action: action_cost(beta, gamma, action, sigma, design, i880_pop, i880_bpr)
            for action in ActionLabel
        }
        cheapest = min(costs, key=costs.get)
        assert best_response_at_gap(beta, gamma, gap, design.tau) is cheapest


def test_region_measures_nonpositive_gap(i880_pop):
    assert region_measures_at_gap(0.0, 1.0, i880_pop) == StrategyShares(0.0, 0.0, 1.0)
    assert region_measures_at_gap(-3.0, 1.0, i880_pop) == StrategyShares(0.0, 0.0, 1.0)


def test_region_measures_diagonal_split():
    # tau >= gamma_max and beta_max*gap == gamma_max: the pool boundary is the
    # rectangle's diagonal.
    pop = PopulationParams(demand=10.0, beta_max=2.0, gamma_max=4.0)
    shares = region_measures_at_gap(2.0, 5.0, pop)
    assert shares.pool == pytest.approx(0.5, abs=1e-15)
    assert shares.toll == 0.0
    assert shares.ordinary == pytest.approx(0.5, abs=1e-15)


def test_region_measures_quarter_toll():
    # tau = gamma_max/2 and beta_max*gap == 2*tau: toll takes the upper-right
    # quarter of the rectangle.
    pop = PopulationParams(demand=10.0, beta_max=2.0, gamma_max=4.0)
    shares = region_measures_at_gap(2.0, 2.0, pop)
    assert shares.toll == pytest.approx(0.25, abs=1e-15)


def test_region_measures_composes_gap(i880_pop, i880_bpr):
    """The scalar composition and the batch kernel's arrays give the same shares."""
    profiles = [StrategyShares(0.0, 0.3, 0.7), StrategyShares(0.1, 0.1, 0.8), StrategyShares(0.0, 0.05, 0.95)]
    designs = [DesignParams(rho, tau, 2.5) for rho, tau in ((0.25, 1.0), (0.75, 0.5), (0.75, 3.0))]
    shares = tuple(np.array(column) for column in zip(*(sigma.as_tuple() for sigma in profiles)))
    rho = np.array([design.rho for design in designs])
    tau = np.array([design.tau for design in designs])
    gaps = lane_gap(shares, i880_pop.demand, 2.5, _capacities(rho, i880_bpr), i880_bpr)
    batch = region_fractions(gaps, _toll_levels(tau, i880_pop), i880_pop)
    for k, (sigma, design) in enumerate(zip(profiles, designs)):
        gap = latency_gap(sigma, design, i880_pop.demand, i880_bpr)
        assert gap > 0
        scalar = region_measures_at_gap(gap, design.tau, i880_pop)
        assert scalar.as_tuple() == tuple(float(column[k]) for column in batch)


def test_region_measures_simplex(i880_pop):
    rng = np.random.default_rng(11)
    for _ in range(2000):
        gap = rng.uniform(-2.0, 30.0)
        tau = rng.uniform(0.01, 20.0)
        shares = region_measures_at_gap(gap, tau, i880_pop)
        total = shares.toll + shares.pool + shares.ordinary
        assert abs(total - 1.0) <= 1e-12
        for value in shares.as_tuple():
            assert 0.0 <= value <= 1.0


def test_region_measures_monotone_in_gap(i880_pop):
    tau = 3.0
    gaps = np.linspace(-0.5, 40.0, 400)
    previous = region_measures_at_gap(gaps[0], tau, i880_pop)
    for gap in gaps[1:]:
        current = region_measures_at_gap(gap, tau, i880_pop)
        assert current.toll >= previous.toll - 1e-15
        assert current.pool >= previous.pool - 1e-15
        assert current.ordinary <= previous.ordinary + 1e-15
        previous = current


def test_partition_monte_carlo(i880_pop, i880_bpr):
    """Empirical label fractions of random agents converge to the measures."""
    rng = np.random.default_rng(2024)
    n = 1_000_000
    betas = rng.uniform(0.0, i880_pop.beta_max, size=n)
    gammas = rng.uniform(0.0, i880_pop.gamma_max, size=n)
    cases = [
        (DesignParams(rho=0.75, tau=0.5, occupancy=2.5), StrategyShares(0.1, 0.1, 0.8)),
        (DesignParams(rho=0.75, tau=3.0, occupancy=2.5), StrategyShares(0.0, 0.05, 0.95)),
        (DesignParams(rho=0.5, tau=1.0, occupancy=2.5), StrategyShares(0.0, 0.3, 0.7)),
    ]
    for design, sigma in cases:
        gap = latency_gap(sigma, design, i880_pop.demand, i880_bpr)
        weighted = betas * gap
        pool_mask = (weighted >= gammas) & (gammas <= design.tau)
        toll_mask = ~pool_mask & (weighted >= design.tau) & (gammas >= design.tau)
        empirical = (
            toll_mask.mean(),
            pool_mask.mean(),
            1.0 - toll_mask.mean() - pool_mask.mean(),
        )
        expected = region_measures_at_gap(gap, design.tau, i880_pop)
        # 5-sigma Monte-Carlo band for one million samples.
        assert empirical[0] == pytest.approx(expected.toll, abs=2.5e-3)
        assert empirical[1] == pytest.approx(expected.pool, abs=2.5e-3)
        assert empirical[2] == pytest.approx(expected.ordinary, abs=2.5e-3)


def test_partition_masks_match_best_response(i880_pop, i880_bpr):
    """The vectorized masks above agree with per-agent labeling."""
    rng = np.random.default_rng(5)
    design = DesignParams(rho=0.75, tau=0.5, occupancy=2.5)
    sigma = StrategyShares(0.1, 0.1, 0.8)
    gap = latency_gap(sigma, design, i880_pop.demand, i880_bpr)
    for _ in range(200):
        beta = rng.uniform(0, i880_pop.beta_max)
        gamma = rng.uniform(0, i880_pop.gamma_max)
        label = best_response_at_gap(beta, gamma, gap, design.tau)
        weighted = beta * gap
        if (weighted >= gamma) and (gamma <= design.tau):
            assert label is ActionLabel.POOL
        elif (weighted >= design.tau) and (gamma >= design.tau):
            assert label is ActionLabel.TOLL
        else:
            assert label is ActionLabel.ORDINARY
