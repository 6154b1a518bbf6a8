"""The gap-space equilibrium solver and the paper's regime checks."""

import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hotlane
from hotlane import (
    BprParams,
    DesignParams,
    EquilibriumBatch,
    EquilibriumOutcome,
    GapNonPositive,
    NoConvergence,
    OracleConfig,
    PopulationParams,
    RegimeLabel,
    StrategyShares,
    ValidationError,
    oracle_equilibrium,
    solve,
    solve_batch,
)
from hotlane import equilibrium as eq
from hotlane import latency
from hotlane.latency import _capacities, bpr_time, lane_flows, lane_gap, latency_gap
from hotlane.population import region_measures_at_gap
import paper_reference
from paper_reference import (
    a1_auxiliary,
    a2_auxiliary,
    b_auxiliary,
    b_companion_shares,
    bisection_gap,
    positive_gap_bracket,
    regime_bracket,
)

# Frozen from the damped best-response oracle at grid_n=2000.
ORACLE_POOL_TAU1_RHO025 = 0.0014935
ORACLE_B_TAU1_RHO075 = (0.0686875, 0.06739125, 0.86392125)


def probe_profile_gap(design, pop, bpr):
    """Latency gap at the paper's probe profile (0, p, 1 - p), p = min(tau/(2*gamma_max), 1)."""
    share = min(design.tau / (2 * pop.gamma_max), 1.0)
    return latency_gap(StrategyShares(0.0, share, 1.0 - share), design, pop.demand, bpr)


def test_probe_gap_clamps_high_tau(i880_pop, i880_bpr):
    # tau >= 2*gamma_max would push the probe share past 1; it clamps to
    # (0, 1, 0), where the empty ordinary lane is at free flow.
    design = DesignParams(rho=0.5, tau=20.0, occupancy=2.5)
    assert regime_bracket(RegimeLabel.A1, design, i880_pop) == (0.0, 1.0)
    assert probe_profile_gap(design, i880_pop, i880_bpr) < 0
    assert solve(design, i880_pop, i880_bpr).regime is RegimeLabel.A1


def test_classify_regime_i880(i880_pop, i880_bpr):
    # tau above gamma_max is always Regime A.
    assert solve(DesignParams(0.25, 10.0, 2.5), i880_pop, i880_bpr).regime is RegimeLabel.A1
    # Mid toll, weighted probe gap below tau: Regime A1.
    assert solve(DesignParams(0.25, 4.0, 2.5), i880_pop, i880_bpr).regime is RegimeLabel.A1
    # Wide HOT allocation with a cheap toll: Regime B.
    assert solve(DesignParams(0.75, 0.5, 2.5), i880_pop, i880_bpr).regime is RegimeLabel.B
    assert solve(DesignParams(0.75, 1.0, 2.5), i880_pop, i880_bpr).regime is RegimeLabel.B
    # As tau -> 0+ both Regime-B inequalities hold whenever the loaded
    # ordinary lane is slower than free flow.
    assert solve(DesignParams(0.25, 1e-3, 2.5), i880_pop, i880_bpr).regime is RegimeLabel.B


def test_classify_regime_low_tau_congested(i880_pop, congested_bpr):
    # Steep latency makes the probe gap exceed tau/beta_max at low tolls.
    assert solve(DesignParams(0.5, 0.5, 2.5), i880_pop, congested_bpr).regime is RegimeLabel.B


def test_classify_regime_a2(a2_setup):
    design, pop, bpr = a2_setup
    assert pop.gamma_max < pop.beta_max * probe_profile_gap(design, pop, bpr)
    assert design.tau > pop.gamma_max
    assert solve(design, pop, bpr).regime is RegimeLabel.A2


def test_classify_boundary_tau_equals_gamma_max(congested_bpr):
    # tau == gamma_max sits on the Regime-B boundary; ties resolve to A.
    pop = PopulationParams(demand=115.0, beta_max=2.0, gamma_max=1.5)
    design = DesignParams(rho=0.7, tau=1.5, occupancy=3.0)
    assert pop.beta_max * probe_profile_gap(design, pop, congested_bpr) > design.tau
    assert solve(design, pop, congested_bpr).regime in (RegimeLabel.A1, RegimeLabel.A2)


def test_solve_regime_a1_i880(i880_pop, i880_bpr):
    design = DesignParams(rho=0.25, tau=1.0, occupancy=2.5)
    out = solve(design, i880_pop, i880_bpr)
    assert out.regime is RegimeLabel.A1
    assert out.shares.toll == 0.0
    assert out.shares.pool == pytest.approx(ORACLE_POOL_TAU1_RHO025, abs=5e-3)
    assert out.shares.pool + out.shares.ordinary == pytest.approx(1.0, abs=1e-15)
    assert out.residual <= 1e-10
    assert out.iterations <= 200
    # Appendix side condition: the pool share stays below the probe share.
    assert out.shares.pool < design.tau / (2 * i880_pop.gamma_max)


def test_solve_regime_a1_symmetric_bound(i880_bpr):
    # With equal capacities the zero-gap share is pool = 2.5/3.5; the root
    # must stay strictly below it.
    pop = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=0.1)
    design = DesignParams(rho=0.5, tau=10.0, occupancy=2.5)
    out = solve(design, pop, i880_bpr)
    assert out.shares.pool < 2.5 / 3.5
    assert out.gap > 0


def test_solve_regime_a2(a2_setup):
    design, pop, bpr = a2_setup
    out = solve(design, pop, bpr)
    assert out.regime is RegimeLabel.A2
    assert out.shares.toll == 0.0
    assert out.shares.pool + out.shares.ordinary == 1.0
    assert out.residual <= 1e-10
    # Appendix side condition: pool share above the probe share.
    assert out.shares.pool > design.tau / (2 * pop.gamma_max)
    # g vanishes at the upper bracket, so the bracket is always valid.
    assert a2_auxiliary(1.0, design, pop, bpr) == 0.0


def test_solve_regime_b_i880(i880_pop, i880_bpr):
    design = DesignParams(rho=0.75, tau=1.0, occupancy=2.5)
    out = solve(design, i880_pop, i880_bpr)
    assert out.regime is RegimeLabel.B
    expected = ORACLE_B_TAU1_RHO075
    assert out.shares.toll == pytest.approx(expected[0], abs=5e-3)
    assert out.shares.pool == pytest.approx(expected[1], abs=5e-3)
    assert out.shares.ordinary == pytest.approx(expected[2], abs=5e-3)
    assert out.residual <= 1e-10
    assert 0 < out.shares.toll < (i880_pop.gamma_max - design.tau) / i880_pop.gamma_max
    assert out.gap > 0


def test_b_auxiliary_brackets(i880_pop, i880_bpr):
    design = DesignParams(rho=0.75, tau=1.0, occupancy=2.5)
    # At zero toll share the auxiliary reduces to the probe gap, above the
    # Regime-B target.
    h0 = b_auxiliary(0.0, design, i880_pop, i880_bpr)
    assert h0 == pytest.approx(probe_profile_gap(design, i880_pop, i880_bpr), rel=1e-12)
    assert h0 > design.tau / i880_pop.beta_max
    # The linear factor vanishes at the upper bracket.
    hi = (i880_pop.gamma_max - design.tau) / i880_pop.gamma_max
    assert abs(b_auxiliary(hi, design, i880_pop, i880_bpr)) <= 1e-12


def test_b_companion_shares(i880_pop):
    design = DesignParams(rho=0.75, tau=1.0, occupancy=2.5)
    shares = b_companion_shares(0.1, design, i880_pop)
    assert shares.pool == pytest.approx(0.5 * (0.1 / 7.0 + 1.0 / 8.0), rel=1e-15)
    with pytest.raises(ValidationError):
        b_companion_shares(0.99, design, i880_pop)  # ordinary share would go negative
    with pytest.raises(ValidationError):
        b_companion_shares(0.1, DesignParams(0.75, 9.0, 2.5), i880_pop)  # tau >= gamma_max


def test_solve_dispatch(i880_pop, i880_bpr, a2_setup):
    points = [
        (DesignParams(0.25, 1.0, 2.5), i880_pop, i880_bpr, RegimeLabel.A1),
        (DesignParams(0.75, 0.5, 2.5), i880_pop, i880_bpr, RegimeLabel.B),
        (DesignParams(0.5, 7.5, 2.5), i880_pop, i880_bpr, RegimeLabel.A1),
        (*a2_setup, RegimeLabel.A2),
    ]
    for design, pop, bpr, regime in points:
        out = solve(design, pop, bpr)
        assert out.regime is regime
        assert out.shares.pool > 0
        assert out.shares.ordinary > 0
        assert (out.shares.toll == 0.0) == (out.regime is not RegimeLabel.B)


def test_self_consistency_with_region_measures(i880_pop, i880_bpr, a2_setup):
    for design, pop, bpr in [
        (DesignParams(0.25, 1.0, 2.5), i880_pop, i880_bpr),
        (DesignParams(0.75, 1.0, 2.5), i880_pop, i880_bpr),
        a2_setup,
    ]:
        out = solve(design, pop, bpr)
        measured = region_measures_at_gap(latency_gap(out.shares, design, pop.demand, bpr), design.tau, pop)
        assert measured.toll == pytest.approx(out.shares.toll, abs=1e-8)
        assert measured.pool == pytest.approx(out.shares.pool, abs=1e-8)
        assert measured.ordinary == pytest.approx(out.shares.ordinary, abs=1e-8)


def test_uniqueness_under_bracket_perturbation(i880_pop, i880_bpr, a2_setup, resolve_in_shrunk_bracket):
    cases = [
        (DesignParams(0.25, 1.0, 2.5), i880_pop, i880_bpr, RegimeLabel.A1),
        (DesignParams(0.75, 0.5, 2.5), i880_pop, i880_bpr, RegimeLabel.B),
        (*a2_setup, RegimeLabel.A2),
    ]
    for design, pop, bpr, regime in cases:
        baseline = solve(design, pop, bpr)
        assert baseline.regime is regime
        perturbed = resolve_in_shrunk_bracket(design, pop, bpr)
        for a, b in zip(baseline.shares.as_tuple(), perturbed.as_tuple()):
            assert abs(a - b) <= 2e-10


def test_auxiliary_monotonicity_sampled(i880_pop, i880_bpr, a2_setup):
    design_a1 = DesignParams(0.25, 10.0, 2.5)
    lo, hi = positive_gap_bracket(RegimeLabel.A1, design_a1, i880_pop, i880_bpr)
    values = [a1_auxiliary(s, design_a1, i880_pop, i880_bpr) for s in np.linspace(lo, hi, 100)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    design_b = DesignParams(0.75, 0.5, 2.5)
    lo, hi = positive_gap_bracket(RegimeLabel.B, design_b, i880_pop, i880_bpr)
    values = [b_auxiliary(t, design_b, i880_pop, i880_bpr) for t in np.linspace(lo, hi, 100)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    design_a2, pop2, bpr2 = a2_setup
    lo, hi = positive_gap_bracket(RegimeLabel.A2, design_a2, pop2, bpr2)
    values = [a2_auxiliary(s, design_a2, pop2, bpr2) for s in np.linspace(lo, hi, 100)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_positive_gap_bracket_end_is_the_zero_gap_share(i880_bpr):
    """The upper end is the exact zero of the gap. With tau >= 2*gamma_max the A1
    bracket is [0, 1], and at rho = 0.5 the flow/capacity ratios meet where
    1 - p = p / 2.5, at p = 2.5/3.5."""
    pop = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=0.1)
    lo, hi = positive_gap_bracket(RegimeLabel.A1, DesignParams(0.5, 10.0, 2.5), pop, i880_bpr)
    assert lo == 0.0
    assert hi == pytest.approx(2.5 / 3.5, rel=1e-15)


def test_a1_auxiliary_inf_past_zero_gap(i880_pop, i880_bpr):
    # Beyond the zero-gap share the ratio is extended with +inf, its
    # one-sided limit, keeping the sampled curve non-decreasing.
    design = DesignParams(0.25, 10.0, 2.5)
    assert a1_auxiliary(0.62, design, i880_pop, i880_bpr) == float("inf")
    assert a1_auxiliary(0.0, design, i880_pop, i880_bpr) == 0.0


def test_gap_non_positive_guard(i880_pop):
    # A vanishing congestion coefficient underflows the all-ordinary latency
    # gap to 0.0. That must be surfaced, not papered over with a fake root.
    bpr = BprParams(a=1e-100, b=4.0, t_free=22.0, v_cap=140.0)
    design = DesignParams(0.25, 1.0, 2.5)
    batch = solve_batch([design.tau], [design.rho], [design.occupancy], i880_pop, bpr)
    assert isinstance(batch.errors[0], GapNonPositive)
    with pytest.raises(GapNonPositive):
        solve(design, i880_pop, bpr)
    with pytest.raises(GapNonPositive, match="all-ordinary latency gap 0.0"):
        oracle_equilibrium(design, i880_pop, bpr, OracleConfig(grid_n=100))


def test_gap_non_positive_names_the_underflow(i880_pop):
    """At ``a = 1e-100`` the exact all-ordinary gap, about 1.6e-398, is positive but below the
    smallest float: the solver and the oracle say that a power underflowed, not that the HOT
    lane is never faster."""
    bpr = BprParams(a=1e-100, b=4.0, t_free=22.0, v_cap=140.0)
    design = DesignParams(0.5, 1.0, 2.5)
    message = "all-ordinary latency gap 0.0 is not a positive float: a congestion power underflowed"
    for run in (solve, lambda *args: oracle_equilibrium(*args, OracleConfig(grid_n=100))):
        with pytest.raises(GapNonPositive, match=message) as info:
            run(design, i880_pop, bpr)
        assert "never faster" not in str(info.value)


def test_outcome_invariants_enforced():
    # The cases as one batch for the vectorised check: (shares, regime, residual). The regime
    # is not checked against the toll share: solve_batch reads it off that share.
    good = (0.0, 0.2, 0.8)
    cases = [
        ((0.0, 0.0, 1.0), RegimeLabel.A1, 0.0),  # the pool share must be > 0
        ((0.2, 0.8, 0.0), RegimeLabel.B, 0.0),  # the ordinary share must be > 0
        (good, RegimeLabel.A1, 1e-3),  # residual too big
        (good, RegimeLabel.A1, 1e-12),
        (good, RegimeLabel.A1, 0.0),  # an overflowed objective, below
    ]
    shares = np.array([case[0] for case in cases]).T
    regime = np.array([tuple(RegimeLabel).index(case[1]) for case in cases])
    residual = np.array([case[2] for case in cases])
    ones = np.ones(len(cases))
    avg_time = np.array([1.0, 1.0, 1.0, 1.0, np.inf])
    errors = eq._failures(ones, ones, shares, regime, residual, avg_time, ones)
    assert sorted(errors) == [0, 1, 2, 4]
    assert isinstance(errors[4], ValidationError)
    assert str(errors[4]) == "objectives (avg_time, revenue) (inf, 1.0) are not finite: a value overflowed"
    assert str(errors[0]) == "equilibrium shares (0.0, 0.0, 1.0) are not valid in regime A1"
    assert str(errors[1]) == "equilibrium shares (0.2, 0.8, 0.0) are not valid in regime B"
    assert all(isinstance(errors[i], ValidationError) for i in (0, 1))
    # The batch types a residual over the gate as NoConvergence, with the shares it reached.
    assert isinstance(errors[2], NoConvergence) and errors[2].residual == 1e-3
    assert errors[2].last_value == good


def test_failure_precedence():
    """A point that fails two checks gets the error of the earlier one: an open bracket before
    the residual gate, and the residual gate before the simplex check."""
    shares = np.array([(0.0, 0.2, 0.8), (0.5, 0.7, 0.1)]).T  # the second is off the simplex
    root = np.array([np.nan, 1.0])
    residual = np.array([0.5, 2e-3])  # both over RESIDUAL_TOL
    ones = np.ones(2)
    errors = eq._failures(ones, root, shares, np.array([0, 2]), residual, ones, ones)
    assert sorted(errors) == [0, 1]
    assert isinstance(errors[0], NoConvergence)
    assert str(errors[0]) == f"the gap bracket is still open after {eq.MAX_BISECT} steps"
    assert errors[0].last_value is None and errors[0].residual is None
    assert isinstance(errors[1], NoConvergence)
    assert str(errors[1]) == f"fixed-point residual 0.002 exceeds {eq.RESIDUAL_TOL}"
    assert errors[1].last_value == (0.5, 0.7, 0.1) and errors[1].residual == 2e-3


def test_a2_unreachable_on_i880(i880_pop, i880_bpr):
    # The mild I-880 latency keeps beta_max * gap far below gamma_max, so no
    # grid point solves into A2; the A2 equations are exercised on the
    # synthetic setup instead.
    for rho in (0.25, 0.5, 0.75):
        for tau in np.arange(0.5, 10.5, 0.5):
            design = DesignParams(rho=rho, tau=float(tau), occupancy=2.5)
            assert solve(design, i880_pop, i880_bpr).regime is not RegimeLabel.A2


# Seed-0 dense grid of the benchmark: rho = linspace(0.05, 0.95, 50) x
# tau = 0.1 + i * 11.9/99 for i in 0..99, tau built as the CLI builds it.
DENSE_RHO = np.linspace(0.05, 0.95, 50)
DENSE_TAU_STEP = (12.0 - 0.1) / 99
CONGESTED_POP = PopulationParams(demand=250.0, beta_max=1.5, gamma_max=8.0)
CONGESTED_BPR = BprParams(a=0.6, b=4.0, t_free=22.0, v_cap=140.0)


def dense_design(k: int, i: int) -> DesignParams:
    return DesignParams(rho=float(DENSE_RHO[k]), tau=0.1 + i * DENSE_TAU_STEP, occupancy=2.5)


def dense_grid() -> list[DesignParams]:
    return [dense_design(k, i) for k in range(50) for i in range(100)]


def i880_grid() -> list[DesignParams]:
    return [DesignParams(rho, 0.5 * k, 2.5) for rho in (0.25, 0.5, 0.75) for k in range(1, 21)]


@pytest.mark.parametrize(
    "calibration, k, i, oracle_checked",
    # Points that a per-regime construction (a probe-share classifier, then
    # a bisection of the regime's share variable) got wrong.
    [
        # The classifier answered A1, 9.9e-3 from the oracle; the
        # equilibrium is A2.
        ("i880", 49, 98, True),
        # The classifier's A2 bracket missed the root: BracketFailure.
        ("i880", 48, 78, True),
        # Steep Regime B: the share bisection stopped at width 1e-12 with a
        # printed residual of 7.5e-9, raising NoConvergence on a correct root.
        ("congested", 0, 0, False),
        ("congested", 19, 73, False),  # BracketFailure
        ("congested", 32, 99, False),  # silent A1, 1.1e-2 off
    ],
)
def test_solve_outside_the_i880_grid(calibration, k, i, oracle_checked, i880_pop, i880_bpr):
    pop, bpr = (i880_pop, i880_bpr) if calibration == "i880" else (CONGESTED_POP, CONGESTED_BPR)
    design = dense_design(k, i)
    out = solve(design, pop, bpr)
    measured = region_measures_at_gap(latency_gap(out.shares, design, pop.demand, bpr), design.tau, pop)
    assert max(abs(a - b) for a, b in zip(measured.as_tuple(), out.shares.as_tuple())) <= 1e-8
    assert out.residual <= eq.RESIDUAL_TOL
    if oracle_checked:
        oracle, _ = oracle_equilibrium(design, pop, bpr, OracleConfig(grid_n=2000))
        assert max(abs(a - b) for a, b in zip(oracle.as_tuple(), out.shares.as_tuple())) <= 5e-3


def _bits(outcome: EquilibriumOutcome) -> tuple:
    floats = (*outcome.shares.as_tuple(), outcome.gap, *outcome.flows, outcome.residual, *outcome.latencies)
    return (outcome.regime, outcome.iterations, tuple(x.hex() for x in floats))


def _columns(designs: list[DesignParams]) -> list[list[float]]:
    return [[d.tau for d in designs], [d.rho for d in designs], [d.occupancy for d in designs]]


@pytest.mark.parametrize("grid, stride", [(i880_grid, 1), (dense_grid, 50)])
def test_solve_is_a_batch_of_one(grid, stride, i880_pop, i880_bpr):
    designs = grid()
    batch = solve_batch(*_columns(designs), i880_pop, i880_bpr)
    assert not batch.errors
    for index in range(0, len(designs), stride):
        assert _bits(solve(designs[index], i880_pop, i880_bpr)) == _bits(batch.outcome(index))


def test_solve_does_not_use_the_regime_solvers(i880_pop, i880_bpr, a2_setup):
    """The paper's checks live only in the test reference: no hotlane module
    defines them, importing hotlane does not load them, and solve still finds
    every regime."""
    moved = [name for name, v in vars(paper_reference).items() if getattr(v, "__module__", "") == "paper_reference"]
    for module in (info.name for info in pkgutil.iter_modules(hotlane.__path__) if info.name != "__main__"):
        assert not [name for name in moved if hasattr(importlib.import_module(f"hotlane.{module}"), name)], module
    assert not hasattr(RegimeLabel, "is_regime_a")
    path = os.pathsep.join([str(Path(hotlane.__file__).parents[1]), str(Path(__file__).parent)])
    code = "import sys, hotlane; assert 'paper_reference' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})
    points = [
        (DesignParams(0.25, 1.0, 2.5), i880_pop, i880_bpr, RegimeLabel.A1),
        (DesignParams(0.75, 0.5, 2.5), i880_pop, i880_bpr, RegimeLabel.B),
        (*a2_setup, RegimeLabel.A2),
    ]
    for design, pop, bpr, regime in points:
        assert solve(design, pop, bpr).regime is regime


def test_open_bracket_at_the_cap_is_an_error(i880_pop, i880_bpr, monkeypatch):
    # With a 3-step budget no point reaches float resolution: every one must
    # come back as NoConvergence, never as an answer.
    monkeypatch.setattr(eq, "MAX_BISECT", 3)
    designs = [DesignParams(0.25, 1.0, 2.5), DesignParams(0.75, 0.5, 2.5)]
    errors = solve_batch(*_columns(designs), i880_pop, i880_bpr).errors
    assert sorted(errors) == [0, 1]
    assert all(isinstance(error, NoConvergence) for error in errors.values())
    with pytest.raises(NoConvergence):
        solve(designs[0], i880_pop, i880_bpr)
    table = solve_batch(*_columns(designs), i880_pop, i880_bpr)
    assert sorted(table.errors) == [0, 1] and not table.solved.any()


@pytest.fixture
def brackets(monkeypatch) -> list[np.ndarray]:
    """The lower bracket ends of every ``_gap_root`` call, one array per call, one entry per root."""
    calls = []
    gap_root = eq._gap_root

    def counted(lo, *args):
        calls.append(lo)
        return gap_root(lo, *args)

    monkeypatch.setattr(eq, "_gap_root", counted)
    return calls


def _error_state(error) -> tuple:
    return type(error), str(error), getattr(error, "last_value", None), getattr(error, "residual", None)


def _assert_same_points(table: EquilibriumBatch, other: EquilibriumBatch) -> None:
    """Every column of the two batches, bit for bit, and every error's type, text and state."""
    for name, column in vars(table).items():
        if name != "errors":
            assert column.tobytes() == getattr(other, name).tobytes(), name
    assert {i: _error_state(e) for i, e in table.errors.items()} == {
        i: _error_state(e) for i, e in other.errors.items()
    }


@pytest.mark.parametrize("calibration, roots, from_floor", [("i880", 555, 505), ("congested", 2991, 2941)])
def test_points_with_equal_keys_are_solved_once(calibration, roots, from_floor, i880_pop, i880_bpr, brackets):
    """One root finder call per batch, with one root per distinct key (effective toll, rho and
    occupancy) among the open points, wherever its points sit in the batch. On the dense grid that is
    one ``g_A`` per rho (50, from 0 at ``gamma_max``) and one root per Regime-B point (from its toll
    floor at its own toll): 555 roots on I-880 and 2,991 on the congested calibration, whether the
    grid comes rho-major, tau-major or shuffled, and every column is the rho-major one permuted. A
    batch of one solves one root."""
    pop, bpr = (i880_pop, i880_bpr) if calibration == "i880" else (CONGESTED_POP, CONGESTED_BPR)
    columns = np.array(_columns(dense_grid()))
    table = solve_batch(*columns, pop, bpr)
    rho_major = np.arange(columns.shape[1])
    tau_major = rho_major.reshape(DENSE_RHO.size, -1).T.ravel()
    shuffled = np.random.default_rng(0).permutation(rho_major)
    for order in (rho_major, tau_major, shuffled):
        brackets.clear()
        permuted = solve_batch(*columns[:, order], pop, bpr)
        (lo,) = brackets
        assert lo.size == roots
        assert np.count_nonzero(lo > 0.0) == np.count_nonzero(permuted.regime == 2) == from_floor
        _assert_same_points(permuted, table.take(order))
    for design in (dense_design(0, 0), dense_design(49, 99), DesignParams(0.5, pop.gamma_max, 2.5)):
        brackets.clear()
        solve(design, pop, bpr)
        assert [lo.size for lo in brackets] == [1]


def test_adjacent_duplicates_share_a_root(i880_pop, i880_bpr, brackets):
    """Seven points with three keys share three roots, one per key, whether equal points sit next
    to each other or apart: a Regime-B key, a key whose toll floor underflows to 0 (where ``F`` is
    NaN) and a Regime-A key. Every column and every error is that of the point solved alone."""
    layouts = (
        ([0.5, 0.5, 0.5, 5e-324, 5e-324, 4.0, 4.0], [0.75] * 3 + [0.25] * 4),
        ([0.5, 5e-324, 4.0, 0.5, 5e-324, 4.0, 0.5], [0.75, 0.25, 0.25, 0.75, 0.25, 0.25, 0.75]),
    )
    for tau, rho in layouts:
        brackets.clear()
        table = solve_batch(tau, rho, 2.5, i880_pop, i880_bpr)
        (lo,) = brackets
        assert lo.size == 3
        assert table.regime[table.tau == 0.5].tolist() == [2] * 3 and table.regime[table.tau == 4.0].tolist() == [0] * 2
        assert sorted(table.errors) == np.flatnonzero(table.tau == 5e-324).tolist()
        for i, point in enumerate(zip(tau, rho)):
            _assert_same_points(table.take([i]), solve_batch(*point, 2.5, i880_pop, i880_bpr))



@pytest.mark.parametrize("calibration", ["i880", "congested"])
def test_gap_root_leaves_its_arguments_unchanged(calibration, i880_pop, i880_bpr, monkeypatch):
    """``_gap_root`` updates its own copies of the brackets: on the dense grid's brackets ``lo``, ``hi``,
    ``f_lo`` and every ``points`` column hold the same bytes after the call. The ``brackets`` fixture
    reads ``lo`` after the call."""
    pop, bpr = (i880_pop, i880_bpr) if calibration == "i880" else (CONGESTED_POP, CONGESTED_BPR)
    changed = []
    gap_root = eq._gap_root

    def compared(lo, hi, f_lo, pop, bpr, points):
        arguments = {"lo": lo, "hi": hi, "f_lo": f_lo, **{f"points[{k}]": a for k, a in enumerate(points)}}
        before = {name: a.copy() for name, a in arguments.items()}
        result = gap_root(lo, hi, f_lo, pop, bpr, points)
        changed.append([name for name, a in arguments.items() if a.tobytes() != before[name].tobytes()])
        return result

    monkeypatch.setattr(eq, "_gap_root", compared)
    solve_batch(*_columns(dense_grid()), pop, bpr)
    assert changed == [[]]


def test_outcome_is_its_batch_row(i880_pop):
    """``outcome(i)`` holds in each field the value, bit for bit, of the batch column of that name at
    ``i``; a failed point raises its own error, and a negative index names the same point."""
    # At a = 1e-81 the all-ordinary gap underflows to 0 at rho = 0.25 (GapNonPositive), and the
    # smallest toll misses the residual gate (NoConvergence); the other points solve.
    bpr = BprParams(a=1e-81, b=4.0, t_free=22.0, v_cap=140.0)
    tau = [1.0, 1.0, 1e-20, 1.0, 5e-324, 1e-20]
    rho = [0.25, 0.99, 0.99, 0.999999, 0.999999, 0.999999]
    table = solve_batch(tau, rho, 2.5, i880_pop, bpr)
    assert {i: type(error) for i, error in table.errors.items()} == {0: GapNonPositive, 4: NoConvergence}
    names = [field.name for field in fields(EquilibriumOutcome)]
    assert names == [field.name for field in fields(EquilibriumBatch) if field.name != "errors"]
    for i in range(len(table)):
        if i in table.errors:
            with pytest.raises(type(table.errors[i])) as raised:
                table.outcome(i)
            assert raised.value is table.errors[i]
            continue
        outcome = table.outcome(i)
        for name in names:
            column = getattr(table, name)[..., i]
            value = getattr(outcome, name)
            if isinstance(value, StrategyShares):
                value = value.as_tuple()
            elif isinstance(value, RegimeLabel):
                value = tuple(RegimeLabel).index(value)
            assert np.array(value, dtype=column.dtype).tobytes() == column.tobytes(), (i, name)
    assert table.outcome(-1) == table.outcome(len(table) - 1)
    with pytest.raises(NoConvergence) as raised:
        table.outcome(-2)
    assert raised.value is table.errors[4]


def test_one_point_solve_checks_its_design_once(monkeypatch, i880_pop, i880_bpr):
    """A ``DesignParams`` is checked when it is built, and ``solve`` checks it no more: it runs
    ``solve_batch``'s kernel without the column check, and ``outcome`` builds no ``DesignParams``.
    ``solve_batch`` checks its columns once."""
    design = DesignParams(rho=0.5, tau=1.0, occupancy=2.5)
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(eq, "check", counted("check", eq.check))
    monkeypatch.setattr(latency, "check_fields", counted("check_fields", latency.check_fields))
    outcome = solve(design, i880_pop, i880_bpr)
    assert calls == []
    batch = solve_batch([design.tau], [design.rho], [design.occupancy], i880_pop, i880_bpr)
    assert calls == ["check"]
    assert batch.outcome(0) == outcome


@pytest.mark.parametrize("grid, calibration", [(dense_grid, "i880"), (dense_grid, "congested"), (i880_grid, "i880")])
def test_batch_tail_is_self_consistent(grid, calibration, i880_pop, i880_bpr):
    """The batch's flows are ``lane_flows`` at its shares, its gap ``lane_gap`` at its shares and its
    latencies ``bpr_time`` at its flows, bit for bit at every point, failed ones included."""
    pop, bpr = (i880_pop, i880_bpr) if calibration == "i880" else (CONGESTED_POP, CONGESTED_BPR)
    table = solve_batch(*_columns(grid()), pop, bpr)
    capacities = _capacities(table.rho, bpr)
    with np.errstate(all="ignore"):
        flows = np.array(lane_flows(*table.shares, pop.demand, table.occupancy))
        gap = lane_gap(table.shares, pop.demand, table.occupancy, capacities, bpr)
        latencies = bpr_time(table.flows, np.array(capacities), bpr)
    assert flows.tobytes() == table.flows.tobytes()
    assert gap.tobytes() == table.gap.tobytes()
    assert latencies.tobytes() == table.latencies.tobytes()

def _around(x: float) -> np.ndarray:
    """``x``, three floats either side of it, and ``x`` moved by 1e-12 and 1e-9 relative."""
    return np.concatenate([x + np.arange(-3, 4) * np.spacing(x), x * (1.0 + np.array([-1e-9, -1e-12, 1e-12, 1e-9]))])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    demand=st.floats(50.0, 300.0),
    a=st.floats(0.1, 1.0),
    b=st.floats(1.0, 6.0),
    beta_max=st.floats(0.5, 3.0),
    gamma_max=st.floats(1.0, 12.0),
    rows=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(2.0, 4.0)), min_size=1, max_size=3),
    tau=st.floats(0.1, 15.0),
    interleave=st.booleans(),
)
def test_batch_at_the_regime_boundary_is_its_points(demand, a, b, beta_max, gamma_max, rows, tau, interleave):
    """Tolls at the Regime-B boundary ``beta_max * g_A`` and at ``gamma_max``, a few ulps and
    1e-12 and 1e-9 relative either side, in a batch that repeats its first row, its rows one after
    the other or interleaved: every column of every point, step count included, is that of the
    point solved alone, and every solved gap is the one that halving alone finds."""
    pop = PopulationParams(demand=demand, beta_max=beta_max, gamma_max=gamma_max)
    bpr = BprParams(a=a, b=b, t_free=22.0, v_cap=140.0)
    rows = [*rows, rows[0]]
    rho, occupancy = (np.array(column) for column in zip(*rows))
    g_a = bisection_gap(gamma_max, rho, occupancy, pop, bpr)
    tolls = np.array([np.concatenate([_around(beta_max * g), _around(gamma_max), [tau]]) for g in g_a])
    rho, occupancy, kind = (
        np.broadcast_to(column, tolls.shape) for column in (rho[:, None], occupancy[:, None], np.arange(tolls.shape[1]))
    )
    columns = (tolls, rho, occupancy, kind)
    tolls, rho, occupancy, kind = (column.T.ravel() if interleave else column.ravel() for column in columns)
    table = solve_batch(tolls, rho, occupancy, pop, bpr)
    alone = {}
    for i, point in enumerate(zip(tolls, rho, occupancy)):
        if point not in alone:
            alone[point] = solve_batch(*point, pop, bpr)
        for name, column in vars(table).items():
            if name != "errors":
                assert column[..., i].tobytes() == getattr(alone[point], name)[..., 0].tobytes(), (name, point)
        error, error_alone = table.errors.get(i), alone[point].errors.get(0)
        assert (type(error), str(error)) == (type(error_alone), str(error_alone)), point
    solved = table.solved
    assert table.gap[solved].tobytes() == bisection_gap(tolls, rho, occupancy, pop, bpr)[solved].tobytes()
    # Kinds 7 and 10 are the boundary moved 1e-9 relative down and up: below it a point pays the toll,
    # unless tau >= gamma_max, and above it nobody does.
    below, above = table.take((kind == 7) & solved & (tolls < gamma_max)), table.take((kind == 10) & solved)
    assert (below.regime == 2).all() and (above.regime != 2).all()


def test_underflowed_toll_floor_is_solved_at_its_own_toll(i880_pop, i880_bpr):
    """At ``tau`` 5e-324 and 1e-323 the toll floor underflows to 0, where ``F`` is NaN, so the floor
    test cannot sort the point: it is solved from ``[0, gap(everyone ordinary)]`` at its own toll.
    These points fail, yet each gap is still the one that halving alone finds at that toll; taking
    the Regime-A root instead moves five of the six and turns both ``NoConvergence`` errors at
    ``tau = 5e-324`` into ``ValidationError``."""
    tau, rho = np.repeat([5e-324, 1e-323], 3), np.tile([0.25, 0.5, 0.75], 2)
    assert not np.nextafter(tau / i880_pop.beta_max, 0.0).any()
    table = solve_batch(tau, rho, 2.5, i880_pop, i880_bpr)
    assert table.gap.tobytes() == bisection_gap(tau, rho, 2.5, i880_pop, i880_bpr).tobytes()
    assert [type(table.errors[i]) for i in range(3)] == [ValidationError, NoConvergence, NoConvergence]
    assert "not valid in regime B" in str(table.errors[0]) and sorted(table.errors) == list(range(6))


@pytest.mark.parametrize("rho", [1e-100, 1e-300, 4.45e-87])
def test_tiny_capacity_fraction_solves(rho, i880_pop, i880_bpr):
    """A Regime-A1 root more than 200 binades below the bracket top closes in at most 40 steps
    and meets the residual gate. The solver takes 20, 21 and 21 steps here. Halving a stalled
    bracket's width took 761, 995 and 805; halving its count of floats only after a secant
    point left the bracket took 212, 23 and 78."""
    table = solve_batch([1.0], [rho], [2.5], i880_pop, i880_bpr)
    assert not table.errors
    assert table.residual[0] <= eq.RESIDUAL_TOL
    # In Regime A1 the pool share is beta_max / (2 * gamma_max) times the root gap.
    root = table.shares[1, 0] * 2.0 * i880_pop.gamma_max / i880_pop.beta_max
    top = latency_gap(StrategyShares(0.0, 0.0, 1.0), DesignParams(rho, 1.0, 2.5), i880_pop.demand, i880_bpr)
    assert table.regime[0] == 0 and 0.0 < root < 2.0**-200 * top
    assert table.iterations[0] <= 40


def test_negative_index_of_a_failed_point_raises(i880_pop, i880_bpr):
    """``outcome(-1)`` is the last point: when that point failed, it raises the point's error
    instead of returning its meaningless columns as an equilibrium."""
    table = solve_batch([1.0, 1.0], [0.5, 5e-324], 2.5, i880_pop, i880_bpr)
    assert list(table.errors) == [1] and isinstance(table.errors[1], NoConvergence)
    with pytest.raises(NoConvergence) as raised:
        table.outcome(-1)
    assert raised.value is table.errors[1]
    assert table.outcome(-2) == table.outcome(0)
    with pytest.raises(IndexError):
        table.outcome(2)


def test_small_gamma_max_a2_point_solves(i880_bpr):
    """At ``beta_max * t_free / gamma_max = 3.3e7`` the A2 residual needs the gap's low digits.

    A gap taken as the difference of two lane times near ``t_free`` lost them: the point
    ended in ``NoConvergence`` at residual 6.7e-10 with these shares as ``last_value``.
    """
    pop = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=1e-6)
    outcome = solve(DesignParams(rho=0.5, tau=1.0, occupancy=2.5), pop, i880_bpr)
    assert outcome.regime is RegimeLabel.A2
    assert outcome.residual <= eq.RESIDUAL_TOL
    rejected = (0.0, 0.7141756976776442, 0.2858243023223558)
    assert max(abs(a - b) for a, b in zip(outcome.shares.as_tuple(), rejected)) <= 1e-12


@pytest.mark.parametrize("gamma_max", [3.2e-5, 1e-6, 1e-7])
def test_small_gamma_max_rho_grid_solves(gamma_max, i880_bpr):
    """Every point of a 91-point rho grid at ``tau=1`` meets the residual gate; with the gap
    as a difference of lane times 8, 61 and 83 of them failed."""
    pop = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=gamma_max)
    assert not solve_batch(1.0, np.linspace(0.05, 0.95, 91), 2.5, pop, i880_bpr).errors


I880_POP = PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0)


@pytest.mark.parametrize(
    "rho, pop, errors, most",
    [
        # The smallest subnormal: the bracket closes, but the root misses the residual gate.
        pytest.param(5e-324, I880_POP, {0: NoConvergence}, eq.MAX_BISECT, id="5e-324-pop0-NoConvergence"),
        pytest.param(
            0.5,
            PopulationParams(demand=1e300, beta_max=1.5, gamma_max=8.0),
            {0: ValidationError},
            eq.MAX_BISECT,
            id="0.5-pop1-ValidationError",
        ),
        pytest.param(
            0.5,
            PopulationParams(demand=115.0, beta_max=1.5, gamma_max=1e-300),
            {0: NoConvergence},
            eq.MAX_BISECT,
            id="0.5-pop2-NoConvergence",
        ),
        # Capacity fractions from subnormal up: the roots of the two subnormal points after the
        # first miss the residual gate. Halving alone takes at most 1067 steps here and the
        # solver 67. With secant points in wide brackets, secant steps crept for up to 782
        # steps (rho=9.6e-82: 781); halving a stalled bracket's width instead of its count of
        # floats took 1063.
        pytest.param(
            np.logspace(-320, -1, 300), I880_POP, {1: NoConvergence, 2: NoConvergence}, 100, id="tiny-rho-sweep"
        ),
    ],
)
def test_extreme_points_fail_typed_without_warnings(rho, pop, errors, most, i880_bpr):
    """Overflow and division by zero at extreme but valid points end in the point's typed
    error, with no numpy warning on the way; every other point has the root that halving
    alone finds."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = solve_batch(1.0, rho, 2.5, pop, i880_bpr)
    assert {i: type(e) for i, e in table.errors.items()} == errors
    assert table.iterations.max() <= most
    solved = table.solved
    reference = bisection_gap(table.tau, table.rho, table.occupancy, pop, i880_bpr)
    assert table.gap[solved].tobytes() == reference[solved].tobytes()


def test_solve_batch_empty(i880_pop, i880_bpr):
    batch = solve_batch([], [], [], i880_pop, i880_bpr)
    assert len(batch) == 0
    assert batch.shares.shape == (3, 0)
    assert batch.errors == {}


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("rho", 1.0, r"design point 2: rho must lie in the open interval \(0, 1\), got 1.0"),
        ("tau", np.inf, "design point 2: tau must be finite and > 0, got inf"),
        ("tau", 0.0, "design point 2: tau must be finite and > 0, got 0.0"),
        ("occupancy", np.inf, "design point 2: occupancy must be finite and >= 2, got inf"),
        ("occupancy", np.nan, "design point 2: occupancy must be finite and >= 2, got nan"),
    ],
)
def test_solve_batch_checks_the_design_domain(column, value, message, i880_pop, i880_bpr):
    """Every point is checked at the boundary, since the batch runs no per-point constructor."""
    points = dict(tau=[1.0, 2.0, 3.0, 4.0], rho=[0.25, 0.5, 0.75, 0.5], occupancy=2.5)
    points[column] = np.array(np.broadcast_to(points[column], 4))
    points[column][2:] = value
    with pytest.raises(ValidationError, match=message):
        solve_batch(points["tau"], points["rho"], points["occupancy"], i880_pop, i880_bpr)


def test_solve_batch_columns_must_broadcast(i880_pop, i880_bpr):
    with pytest.raises(ValidationError, match="broadcast to one length"):
        solve_batch([1.0, 2.0], [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
    with pytest.raises(ValidationError, match="must be numbers"):
        solve_batch(["cheap"], [0.5], 2.5, i880_pop, i880_bpr)
    with pytest.raises(ValidationError, match="must be numbers"):
        solve_batch({}, 0.5, 2.5, i880_pop, i880_bpr)
