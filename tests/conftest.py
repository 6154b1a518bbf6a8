import numpy as np
import pytest

from hotlane import (
    BprParams,
    DesignParams,
    OracleConfig,
    PopulationParams,
    StrategyShares,
)
from hotlane import equilibrium as eq
from hotlane.latency import _capacities, latency_gap
from hotlane.population import _toll_levels, region_measures_at_gap


@pytest.fixture(scope="session")
def i880_pop() -> PopulationParams:
    return PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0)


@pytest.fixture(scope="session")
def i880_bpr() -> BprParams:
    return BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=140.0)


@pytest.fixture(scope="session")
def congested_bpr() -> BprParams:
    """Steep volume-delay curve used to reach the regimes the mild I-880
    calibration cannot."""
    return BprParams(a=1.0, b=4.0, t_free=22.0, v_cap=140.0)


@pytest.fixture(scope="session")
def a2_setup(congested_bpr):
    """A design point that classifies into Regime A2 (tau above gamma_max,
    large weighted probe gap)."""
    pop = PopulationParams(demand=115.0, beta_max=2.0, gamma_max=1.0)
    design = DesignParams(rho=0.7, tau=1.5, occupancy=3.0)
    return design, pop, congested_bpr


@pytest.fixture(scope="session")
def oracle_cfg() -> OracleConfig:
    return OracleConfig()


@pytest.fixture(scope="session")
def resolve_in_shrunk_bracket():
    """Shares of the equilibrium re-found from a perturbed gap bracket.

    The bracket is ``[0, gap(everyone ordinary)]`` shrunk by 1e-6 of its
    width at each end, searched by the same root finder as ``solve``.
    """

    def resolve(design: DesignParams, pop: PopulationParams, bpr: BprParams) -> StrategyShares:
        tau, rho, occupancy = np.array([design.tau]), np.array([design.rho]), np.array([design.occupancy])
        points = [*_toll_levels(tau, pop), occupancy, *_capacities(rho, bpr)]
        width = latency_gap(StrategyShares(0.0, 0.0, 1.0), design, pop.demand, bpr)
        lo, hi = np.array([1e-6 * width]), np.array([width - 1e-6 * width])
        (root,), _ = eq._gap_root(lo, hi, eq._excess(lo, pop, bpr, *points), pop, bpr, points)
        assert not np.isnan(root), "the perturbed bracket did not close"
        return region_measures_at_gap(float(root), design.tau, pop)

    return resolve


def make_design(rho: float, tau: float, occupancy: float = 2.5) -> DesignParams:
    return DesignParams(rho=rho, tau=tau, occupancy=occupancy)
