"""The parameter domain: every field of every parameter type against its one rule."""

import dataclasses
import math

import pytest

from hotlane import BprParams, DesignParams, OracleConfig, PopulationParams, ValidationError
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
