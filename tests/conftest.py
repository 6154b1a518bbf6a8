import dataclasses
import warnings

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
from hotlane.cli import RunConfig, i880_config
from hotlane.latency import _capacities, latency_gap
from hotlane.population import _toll_levels, region_measures_at_gap

# When a property test fails, hypothesis's pytest plugin imports hypothesis.extra._patching to
# suggest an @example patch. That imports libcst, whose mypy_extensions import warns a
# DeprecationWarning, and filterwarnings = ["error"] turns it into an INTERNALERROR that ends
# the session. Imported once here with that warning ignored, the module is cached for the hook.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


# The calibrations and design grids that the tests share, each defined once here. Test modules
# import the constants and grid builders (pytest has this file's folder on sys.path).
I880_POP = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0)
I880_BPR = BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=140.0)
# The congested calibration: I-880 with demand 250 and a = 0.6, mostly Regime B.
CONGESTED_POP = PopulationParams(demand=250.0, beta_max=1.5, gamma_max=8.0)
CONGESTED_BPR = BprParams(a=0.6, b=4.0, t_free=22.0, v_cap=140.0)
# The paper's I-880 grid as (rho, tau), rho-major: rho in {0.25, 0.5, 0.75}, tau from 0.5 to 10 in steps of 0.5.
I880_POINTS = [(rho, 0.5 * k) for rho in (0.25, 0.5, 0.75) for k in range(1, 21)]
# The benchmark's seed-0 dense grid: rho = linspace(0.05, 0.95, 50) x tau = 0.1 + i * 11.9/99 for i in 0..99.
DENSE_RHO = np.linspace(0.05, 0.95, 50)


def i880_grid() -> list[DesignParams]:
    """The I-880 grid's 60 design points at occupancy 2.5, in ``I880_POINTS`` order."""
    return [DesignParams(rho, tau, 2.5) for rho, tau in I880_POINTS]


# The two config builders keep the leading underscore of the test ids that name them.
def _dense_config() -> RunConfig:
    """The dense grid on the I-880 calibration, as a CLI config."""
    step = (12.0 - 0.1) / 99
    return dataclasses.replace(
        i880_config(), rho_values=tuple(DENSE_RHO.tolist()), tau_min=0.1, tau_max=0.1 + 99.5 * step, tau_step=step
    )


def _congested_config() -> RunConfig:
    """The dense grid on the congested calibration."""
    return dataclasses.replace(_dense_config(), population=CONGESTED_POP, bpr=CONGESTED_BPR)


def dense_grid() -> list[DesignParams]:
    """The dense grid's 5,000 design points, rho-major, each toll built as the CLI builds it."""
    grid = (column.tolist() for column in _dense_config().design_grid())
    return [DesignParams(rho, tau, occupancy) for tau, rho, occupancy in zip(*grid)]


def dense_design(k: int, i: int) -> DesignParams:
    """The dense grid's point at the ``k``-th rho and the ``i``-th toll."""
    return dense_grid()[k * 100 + i]


@pytest.fixture(scope="session")
def i880_pop() -> PopulationParams:
    return I880_POP


@pytest.fixture(scope="session")
def i880_bpr() -> BprParams:
    return I880_BPR


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
        assert root >= 0.0, "the perturbed bracket did not close"
        return region_measures_at_gap(float(root), design.tau, pop)

    return resolve
