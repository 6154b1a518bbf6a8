"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so the suite doubles as a human-readable checklist. All criteria
run on the I-880 calibration grid: rho in {0.25, 0.5, 0.75}, tau from 0.5
to 10 in steps of 0.5. That grid is 58 A1 points and 2 B points, so the
oracle check also runs on ``REGIME_POINTS``, a second I-880 set inside
Regimes B and A2.
"""

import dataclasses

import numpy as np
import pytest

from hotlane import (
    DesignParams,
    EquilibriumOutcome,
    OracleConfig,
    RegimeLabel,
    oracle_equilibrium,
    pareto_front,
    solve,
    solve_batch,
)
from hotlane.equilibrium import MAX_BISECT, RESIDUAL_TOL
from hotlane.latency import bpr_time, latency_gap
from hotlane.population import region_measures_at_gap
from paper_reference import a1_auxiliary, a2_auxiliary, b_auxiliary, brute_force_front, positive_gap_bracket
from conftest import I880_BPR, I880_POP, i880_grid

ORACLE_TOL = 5e-3
SELF_CONSISTENCY_TOL = 1e-8
UNIQUENESS_TOL = 2e-10
MONOTONE_NOISE = 1e-12
ORACLE_GRID_N = 2000
# I-880 (rho, tau) points by the regime they solve into. B: tolls below tau_AB (about 0.024,
# 0.118 and 1.363 $ at rho 0.25, 0.5 and 0.75) and rho 0.93-0.99 at tolls 2 and 5; A2: rho at
# least 0.93 at tau 9, above gamma_max. (0.25, 0.005) is left out: the oracle straddles there.
REGIME_POINTS = {
    RegimeLabel.B: [
        (0.25, 0.01), (0.25, 0.02), (0.5, 0.02), (0.5, 0.05), (0.5, 0.1), (0.75, 0.1),
        (0.75, 0.25), (0.75, 1.25), (0.93, 2.0), (0.95, 5.0), (0.99, 5.0),
    ],
    RegimeLabel.A2: [(0.93, 9.0), (0.95, 9.0), (0.97, 9.0), (0.99, 9.0)],
}


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


@pytest.fixture(scope="module")
def pop():
    return I880_POP


@pytest.fixture(scope="module")
def bpr():
    return I880_BPR


@pytest.fixture(scope="module")
def grid():
    return i880_grid()


@pytest.fixture(scope="module")
def solved(grid, pop, bpr):
    return [(design, solve(design, pop, bpr)) for design in grid]


def test_oracle_equivalence(solved, pop, bpr):
    """Solver and grid oracle agree at every design point."""
    cfg = OracleConfig(grid_n=ORACLE_GRID_N)
    worst = 0.0
    for design, outcome in solved:
        oracle_shares, _ = oracle_equilibrium(design, pop, bpr, cfg)
        distance = max(
            abs(outcome.shares.toll - oracle_shares.toll),
            abs(outcome.shares.pool - oracle_shares.pool),
            abs(outcome.shares.ordinary - oracle_shares.ordinary),
        )
        worst = max(worst, distance)
    ok = worst <= ORACLE_TOL
    _report(ok, "oracle equivalence", f"worst max-norm distance {worst:.3e} <= {ORACLE_TOL}")
    assert ok


@pytest.mark.parametrize("regime", list(REGIME_POINTS), ids=lambda regime: regime.value)
def test_oracle_equivalence_by_regime(regime, pop, bpr):
    """Each point solves into its stated regime and agrees with the grid oracle."""
    cfg = OracleConfig(grid_n=ORACLE_GRID_N)
    worst = 0.0
    regimes_ok = True
    for rho, tau in REGIME_POINTS[regime]:
        design = DesignParams(rho=rho, tau=tau, occupancy=2.5)
        outcome = solve(design, pop, bpr)
        regimes_ok = regimes_ok and outcome.regime is regime
        oracle_shares, _ = oracle_equilibrium(design, pop, bpr, cfg)
        worst = max(worst, *(abs(a - b) for a, b in zip(outcome.shares.as_tuple(), oracle_shares.as_tuple())))
    ok = regimes_ok and worst <= ORACLE_TOL
    points = len(REGIME_POINTS[regime])
    _report(ok, f"oracle equivalence, regime {regime.value}", f"{points} points, worst {worst:.3e} <= {ORACLE_TOL}")
    assert ok


def test_self_consistency(solved, pop, bpr):
    """Region measures reproduce the solved shares (equilibrium condition)."""
    worst = 0.0
    for design, outcome in solved:
        gap = latency_gap(outcome.shares, design, pop.demand, bpr)
        measured = region_measures_at_gap(gap, design.tau, pop)
        worst = max(
            worst,
            abs(measured.toll - outcome.shares.toll),
            abs(measured.pool - outcome.shares.pool),
            abs(measured.ordinary - outcome.shares.ordinary),
        )
    ok = worst <= SELF_CONSISTENCY_TOL
    _report(ok, "self-consistency", f"worst measure gap {worst:.3e} <= {SELF_CONSISTENCY_TOL}")
    assert ok


def test_interior_usage_invariants(solved):
    """Pool and ordinary shares are interior; toll is zero exactly on Regime A."""
    ok = all(
        outcome.shares.pool > 0
        and outcome.shares.ordinary > 0
        and (outcome.shares.toll == 0.0) == (outcome.regime is not RegimeLabel.B)
        for _, outcome in solved
    )
    regimes = {"A1": 0, "A2": 0, "B": 0}
    for _, outcome in solved:
        regimes[outcome.regime.value] += 1
    _report(ok, "interior usage", f"all 60 points interior; regime counts {regimes}")
    assert ok


def test_fixed_point_residuals(solved):
    """Printed-equation residuals and the bisection iteration budget."""
    worst_residual = max(outcome.residual for _, outcome in solved)
    worst_iterations = max(outcome.iterations for _, outcome in solved)
    ok = worst_residual <= RESIDUAL_TOL and worst_iterations <= MAX_BISECT
    _report(
        ok,
        "fixed-point residuals",
        f"worst residual {worst_residual:.3e} <= {RESIDUAL_TOL}, "
        f"max iterations {worst_iterations} <= {MAX_BISECT}",
    )
    assert ok


def test_probe_share_side_conditions(solved, pop):
    """A1 roots sit below the probe share, A2 roots above it."""
    a1 = a2 = 0
    ok = True
    for design, outcome in solved:
        probe = design.tau / (2.0 * pop.gamma_max)
        if outcome.regime is RegimeLabel.A1:
            a1 += 1
            ok = ok and outcome.shares.pool < probe
        elif outcome.regime is RegimeLabel.A2 and probe < 1.0:
            a2 += 1
            ok = ok and outcome.shares.pool > probe
    _report(ok, "probe-share side conditions", f"checked {a1} A1 points, {a2} A2 points")
    assert ok


def test_auxiliary_monotonicity(solved, pop, bpr):
    """The solver's auxiliary is monotone on 100 samples of its bracket.

    Samples cover the positive-gap portion of the bracket: past the
    zero-gap point every auxiliary sits strictly on the far side of its
    target (the published monotonicity claims hold only up to there, and
    the solvers rely on nothing beyond it).
    """
    auxiliaries = {
        RegimeLabel.A1: (a1_auxiliary, +1),
        RegimeLabel.A2: (a2_auxiliary, -1),
        RegimeLabel.B: (b_auxiliary, -1),
    }
    ok = True
    checked = 0
    for design, outcome in solved:
        func, direction = auxiliaries[outcome.regime]
        lo, hi = positive_gap_bracket(outcome.regime, design, pop, bpr)
        samples = np.linspace(lo, hi, 100)
        values = [func(x, design, pop, bpr) for x in samples]
        diffs = [direction * (b - a) for a, b in zip(values, values[1:])]
        ok = ok and all(d >= -MONOTONE_NOISE for d in diffs)
        ok = ok and all(d > 0 for d in diffs)  # strict at interior points
        checked += 1
    _report(ok, "auxiliary monotonicity", f"{checked} designs x 100 bracket samples, strict")
    assert ok


def test_pareto_against_brute_force(grid, pop, bpr):
    """Fast front extraction equals the quadratic dominance scan exactly."""
    table = solve_batch([d.tau for d in grid], [d.rho for d in grid], [d.occupancy for d in grid], pop, bpr)
    assert not table.errors
    results = [table.outcome(i) for i in range(len(table))]
    assert all(isinstance(r, EquilibriumOutcome) for r in results)
    ok = [results[i] for i in pareto_front(results)] == brute_force_front(results)

    # A Regime-B carrier, so that a positive synthetic revenue agrees with its regime.
    template = next(r for r in results if r.regime is RegimeLabel.B)
    rng = np.random.default_rng(99)
    random_sets = 0
    for _ in range(1000):
        size = int(rng.integers(1, 201))
        times = np.round(rng.uniform(20.0, 40.0, size=size), 2)
        revenues = np.round(rng.uniform(0.0, 50.0, size=size), 2)
        synthetic = [
            dataclasses.replace(template, avg_time=float(t), revenue=float(r))
            for t, r in zip(times, revenues)
        ]
        if [synthetic[i] for i in pareto_front(synthetic)] != brute_force_front(synthetic):
            ok = False
            break
        random_sets += 1
    _report(ok, "pareto oracle", f"60-point sweep exact; {random_sets}/1000 random sets exact")
    assert ok


def test_uniqueness_probe(pop, bpr, resolve_in_shrunk_bracket):
    """Re-solving from a perturbed gap bracket reproduces the same root."""
    sampled = [
        (0.25, 0.5), (0.25, 4.0), (0.25, 10.0), (0.5, 1.5), (0.5, 5.0),
        (0.5, 9.5), (0.75, 0.5), (0.75, 1.0), (0.75, 6.0), (0.75, 10.0),
    ]
    worst = 0.0
    for rho, tau in sampled:
        design = DesignParams(rho=rho, tau=tau, occupancy=2.5)
        baseline = solve(design, pop, bpr)
        perturbed = resolve_in_shrunk_bracket(design, pop, bpr)
        for a, b in zip(baseline.shares.as_tuple(), perturbed.as_tuple()):
            worst = max(worst, abs(a - b))
    ok = worst <= UNIQUENESS_TOL
    _report(ok, "uniqueness probe", f"10 designs, worst perturbed-root shift {worst:.3e} <= {UNIQUENESS_TOL}")
    assert ok


def test_regime_switch_monotone_in_rho(solved):
    """At fixed tau the regime may switch A -> B at most once along rho."""
    by_tau: dict[float, list[tuple[float, RegimeLabel]]] = {}
    for design, outcome in solved:
        by_tau.setdefault(design.tau, []).append((design.rho, outcome.regime))
    ok = True
    switches = 0
    for tau, rows in by_tau.items():
        labels = [regime is RegimeLabel.B for _, regime in sorted(rows)]
        ok = ok and labels == sorted(labels)  # False (A) before True (B), one switch
        switches += int(any(labels))
    _report(ok, "regime-size monotonicity", f"20 tau columns, {switches} with an A->B switch")
    assert ok


def test_latency_assumptions(bpr):
    """Randomized monotonicity (strict) and exact equal free-flow times."""
    rng = np.random.default_rng(4242)
    strict_ok = True
    for _ in range(1000):
        rho_pair = np.sort(rng.uniform(0.05, 0.95, size=2))
        flow_pair = np.sort(rng.uniform(0.0, 300.0, size=2))
        ordinary = bpr.v_cap * (1 - rho_pair)
        hot = bpr.v_cap * rho_pair
        if flow_pair[0] < flow_pair[1]:
            strict_ok = strict_ok and bpr_time(flow_pair[0], ordinary[0], bpr) < bpr_time(
                flow_pair[1], ordinary[0], bpr
            )
            strict_ok = strict_ok and bpr_time(flow_pair[0], hot[1], bpr) < bpr_time(
                flow_pair[1], hot[1], bpr
            )
        if rho_pair[0] < rho_pair[1]:
            flow = rng.uniform(1.0, 300.0)
            strict_ok = strict_ok and bpr_time(flow, ordinary[0], bpr) < bpr_time(flow, ordinary[1], bpr)
            strict_ok = strict_ok and bpr_time(flow, hot[0], bpr) > bpr_time(flow, hot[1], bpr)
    exact_ok = all(
        bpr_time(0.0, bpr.v_cap * (1 - rho), bpr) == bpr.t_free
        and bpr_time(0.0, bpr.v_cap * rho, bpr) == bpr.t_free
        for rho in np.linspace(0.01, 0.99, 99)
    )
    ok = strict_ok and exact_ok
    _report(
        ok,
        "latency assumptions",
        "1000 randomized strict-monotonicity trials; exact free-flow equality on 99 rho values",
    )
    assert ok
