"""The gap-space equilibrium solver and the paper's regime checks."""

import numpy as np
import pytest

from hotlane import (
    BprParams,
    DesignParams,
    EquilibriumOutcome,
    GapNonPositive,
    NoConvergence,
    OracleConfig,
    PopulationParams,
    RegimeLabel,
    StrategyShares,
    ValidationError,
    latency_gap,
    oracle_equilibrium,
    region_measures_at_gap,
    solve,
    solve_batch,
)
from hotlane import equilibrium as eq
from hotlane.equilibrium import (
    a1_auxiliary,
    a2_auxiliary,
    b_auxiliary,
    b_companion_shares,
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
        assert (out.shares.toll == 0.0) == out.regime.is_regime_a


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
    # gap to 0.0: the HOT lane is never faster. That must be surfaced, not
    # papered over with a fake root.
    bpr = BprParams(a=1e-100, b=4.0, t_free=22.0, v_cap=140.0)
    design = DesignParams(0.25, 1.0, 2.5)
    batch = solve_batch([design.tau], [design.rho], [design.occupancy], i880_pop, bpr)
    assert isinstance(batch.errors[0], GapNonPositive)
    with pytest.raises(GapNonPositive):
        solve(design, i880_pop, bpr)


def test_outcome_invariants_enforced():
    # The four cases as one batch for the vectorised check: (shares, regime, residual).
    good = (0.0, 0.2, 0.8)
    cases = [
        ((0.0, 0.0, 1.0), RegimeLabel.A1, 0.0),  # the pool share must be > 0
        (good, RegimeLabel.B, 0.0),  # B needs a toll share > 0
        (good, RegimeLabel.A1, 1e-3),  # residual too big
        (good, RegimeLabel.A1, 1e-12),
    ]
    shares = np.array([case[0] for case in cases]).T
    regime = np.array([tuple(RegimeLabel).index(case[1]) for case in cases])
    residual = np.array([case[2] for case in cases])
    ones = np.ones(len(cases))
    errors = eq._failures(ones, ones, shares, regime, residual)
    assert sorted(errors) == [0, 1, 2]
    assert str(errors[0]) == "equilibrium shares (0.0, 0.0, 1.0) are not valid in regime A1"
    assert str(errors[1]) == "equilibrium shares (0.0, 0.2, 0.8) are not valid in regime B"
    assert all(isinstance(errors[i], ValidationError) for i in (0, 1))
    # The batch types a residual over the gate as NoConvergence, with the shares it reached.
    assert isinstance(errors[2], NoConvergence) and errors[2].residual == 1e-3
    assert errors[2].last_value == good


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


def test_solve_does_not_use_the_regime_solvers(i880_pop, i880_bpr, a2_setup, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve must not depend on the paper's regime checks")

    checks = (
        "regime_bracket",
        "positive_gap_bracket",
        "a1_auxiliary",
        "a2_auxiliary",
        "b_auxiliary",
        "b_companion_shares",
    )
    for name in checks:
        monkeypatch.setattr(eq, name, forbidden)
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
