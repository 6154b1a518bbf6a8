"""The parameter domain: every field of every parameter type against its one rule, and every point of
the domain solved or failed typed."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotlane import (
    BprParams,
    DesignParams,
    HotLaneError,
    OracleConfig,
    PopulationParams,
    ValidationError,
    comparative_statics_scan,
    pareto_front,
    solve,
    solve_batch,
)
from hotlane.cli import RunConfig, i880_config
from hotlane.errors import _DOMAIN

VALID = {
    BprParams: BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=140.0),
    PopulationParams: PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0),
    DesignParams: DesignParams(rho=0.5, tau=1.0, occupancy=2.5),
    OracleConfig: OracleConfig(),
    RunConfig: i880_config(),
}
BELOW_TWO = math.nextafter(2.0, 0.0)
RHO_GRID = "be non-empty and strictly increasing within (0, 1)"
# (type, field, rule, a value just outside the rule): every bound of every field the table names.
CASES = [
    (BprParams, "a", "be > 0", 0.0),
    (BprParams, "b", "be >= 1", math.nextafter(1.0, 0.0)),
    (BprParams, "t_free", "be > 0", 0.0),
    (BprParams, "v_cap", "be > 0", 0.0),
    (PopulationParams, "demand", "be > 0", 0.0),
    (PopulationParams, "beta_max", "be > 0", 0.0),
    (PopulationParams, "gamma_max", "be > 0", 0.0),
    (DesignParams, "rho", "lie in the open interval (0, 1)", 0.0),
    (DesignParams, "rho", "lie in the open interval (0, 1)", 1.0),
    (DesignParams, "tau", "be finite and > 0", 0.0),
    (DesignParams, "occupancy", "be finite and >= 2", BELOW_TWO),
    (OracleConfig, "grid_n", "be a whole number >= 10", 9),
    (OracleConfig, "grid_n", "be a whole number >= 10", 2000.5),  # once normalised by 2000.5**2 for 2001**2 agents
    (RunConfig, "occupancy", "be finite and >= 2", BELOW_TWO),
    (RunConfig, "rho_values", RHO_GRID, ()),
    (RunConfig, "rho_values", RHO_GRID, (0.0, 0.5)),
    (RunConfig, "rho_values", RHO_GRID, (0.5, 1.0)),
    (RunConfig, "rho_values", RHO_GRID, (0.5, 0.5)),
    (RunConfig, "rho_values", RHO_GRID, (0.5, math.nan)),
    (RunConfig, "tau_min", "be > 0", 0.0),
    (RunConfig, "tau_step", "be > 0", 0.0),
]


def test_cases_cover_the_table():
    pairs = {(cls, field) for cls, field, _, _ in CASES}
    expected = {(cls, f.name) for cls in VALID for f in dataclasses.fields(cls) if f.name in _DOMAIN}
    assert pairs == expected
    assert {field for _, field, _, _ in CASES} == set(_DOMAIN)


@pytest.mark.parametrize(
    "cls, field, rule, value", CASES, ids=[f"{cls.__name__}.{field}={value}" for cls, field, _, value in CASES]
)
def test_field_outside_its_rule(cls, field, rule, value):
    with pytest.raises(ValidationError) as excinfo:
        dataclasses.replace(VALID[cls], **{field: value})
    assert str(excinfo.value) == f"{field} must {rule}, got {value}"


# Floats at the ends of the domain: the least subnormal and floats a few apart from 0, values a few
# floats from 1 and 2, and the largest magnitudes. Each field draws them often, besides any float its rule allows.
EDGES = (
    5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 1e-300, 1e-100, 1e-10, 0.5,
    1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, BELOW_TWO, 2.0, 2.0 + 2.0**-51,
    1e10, 1e100, 1e300, 1.7e308, 1.7976931348623157e308,
)


def _within(field: str):
    """Floats that keep ``field``'s ``_DOMAIN`` rule, its ends drawn often."""
    holds = _DOMAIN[field][0]
    if field == "rho":
        anywhere = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    else:
        anywhere = st.floats({"b": 1.0, "occupancy": 2.0}.get(field, 5e-324), 1.7e308)
    return st.one_of(st.sampled_from([x for x in EDGES if holds(x)]), anywhere).filter(holds)


def _params(cls):
    return st.builds(cls, **{f.name: _within(f.name) for f in dataclasses.fields(cls)})


def _typed(call):
    """``call()``'s result, or None where it raised a ``HotLaneError``; any other exception escapes."""
    try:
        return call()
    except HotLaneError:
        return None


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@example(  # the ordinary lane's congestion overflows at the solved shares: once read as solved, with an infinite gap
    pop=PopulationParams(demand=1e-100, beta_max=0.5, gamma_max=2.2250738585072014e-308),
    bpr=BprParams(a=1e300, b=1.9999999999999998, t_free=5e-324, v_cap=0.9999999999999998),
    tau=[2.2250738585072014e-308],
    rho=[5e-324, 1e-323],
    occupancy=1e300,
)
@given(
    pop=_params(PopulationParams),
    bpr=_params(BprParams),
    tau=st.lists(_within("tau"), min_size=1, max_size=4),
    rho=st.lists(_within("rho"), min_size=1, max_size=4, unique=True).map(sorted),
    occupancy=_within("occupancy"),
)
def test_every_valid_point_returns_or_fails_typed(pop, bpr, tau, rho, occupancy):
    """``solve``, ``solve_batch``, ``comparative_statics_scan`` and ``pareto_front`` return, or raise a
    ``HotLaneError``, at every point of the stated domain; any other exception, or a numpy warning, fails."""
    _typed(lambda: solve(DesignParams(rho=rho[0], tau=tau[0], occupancy=occupancy), pop, bpr))
    taus, rhos = np.meshgrid(tau, rho)
    batch = _typed(lambda: solve_batch(taus.ravel(), rhos.ravel(), occupancy, pop, bpr))
    if batch is not None:
        _typed(lambda: pareto_front(batch))
        _typed(lambda: pareto_front(batch, np.repeat(np.arange(len(rho)), len(tau))))
    _typed(lambda: comparative_statics_scan(tau[0], rho, occupancy, pop, bpr))
