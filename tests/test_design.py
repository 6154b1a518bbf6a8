"""Objectives, sweeps, Pareto extraction, and comparative statics."""

import numpy as np
import pytest

from hotlane import (
    DesignParams,
    DesignPointResult,
    EmptyInput,
    FailedDesignPoint,
    HotLaneError,
    RegimeLabel,
    ValidationError,
    comparative_statics_scan,
    evaluate_design,
    pareto_front,
    sweep,
)
from hotlane import design as design_mod
from hotlane.latency import bpr_time


def i880_grid():
    return [
        DesignParams(rho=rho, tau=0.5 * k, occupancy=2.5)
        for rho in (0.25, 0.5, 0.75)
        for k in range(1, 21)
    ]


def test_evaluate_design_regime_a_revenue(i880_pop, i880_bpr):
    result = evaluate_design(DesignParams(0.25, 4.0, 2.5), i880_pop, i880_bpr)
    assert result.outcome.regime is RegimeLabel.A1
    assert result.revenue == 0.0


def test_evaluate_design_objectives(i880_pop, i880_bpr):
    design = DesignParams(0.75, 1.0, 2.5)
    result = evaluate_design(design, i880_pop, i880_bpr)
    flow_ordinary, flow_hot = result.outcome.flows
    hot_time = bpr_time(flow_hot, i880_bpr.v_cap * design.rho, i880_bpr)
    ordinary_time = bpr_time(flow_ordinary, i880_bpr.v_cap * (1 - design.rho), i880_bpr)
    # The average is a convex combination of the two lane latencies.
    assert min(hot_time, ordinary_time) <= result.avg_time <= max(hot_time, ordinary_time)
    assert result.avg_time >= i880_bpr.t_free
    # Revenue recovers the toll share to machine precision.
    assert result.revenue / design.tau / i880_pop.demand == pytest.approx(
        result.outcome.shares.toll, rel=1e-14
    )


def test_evaluate_design_frozen_point(i880_pop, i880_bpr):
    result = evaluate_design(DesignParams(0.25, 1.0, 2.5), i880_pop, i880_bpr)
    # Pinned by the grid oracle: tiny pool share, empty toll lane.
    assert result.avg_time == pytest.approx(22.0159065658243, rel=1e-10)
    assert result.revenue == 0.0


def test_sweep_i880_grid(i880_pop, i880_bpr):
    grid = i880_grid()
    results = sweep(grid, i880_pop, i880_bpr)
    assert len(results) == 60
    assert all(isinstance(r, DesignPointResult) for r in results)
    assert [r.design for r in results] == grid  # input order preserved
    assert all(r.avg_time >= i880_bpr.t_free for r in results)
    # Interior HOT usage keeps the solved gap positive everywhere.
    assert all(r.outcome.gap > 0 for r in results)


def test_sweep_empty_and_duplicates(i880_pop, i880_bpr):
    assert sweep([], i880_pop, i880_bpr) == []
    design = DesignParams(0.5, 2.0, 2.5)
    twice = sweep([design, design], i880_pop, i880_bpr)
    assert twice[0] == twice[1]


def test_sweep_records_failures(i880_pop, i880_bpr, monkeypatch):
    bad = DesignParams(0.5, 2.0, 2.5)
    good = DesignParams(0.25, 1.0, 2.5)
    original = design_mod.solve_batch

    def failing_solve_batch(designs, pop, bpr):
        outcomes = original(designs, pop, bpr)
        return [HotLaneError("synthetic failure") if d == bad else o for d, o in zip(designs, outcomes)]

    monkeypatch.setattr(design_mod, "solve_batch", failing_solve_batch)
    results = sweep([good, bad], i880_pop, i880_bpr)
    assert isinstance(results[0], DesignPointResult)
    assert isinstance(results[1], FailedDesignPoint)
    assert "synthetic failure" in results[1].error


def _brute_force_front(results):
    kept = []
    for i, candidate in enumerate(results):
        dominated = False
        for j, other in enumerate(results):
            better_or_equal = (
                other.avg_time <= candidate.avg_time and other.revenue >= candidate.revenue
            )
            strictly_better = (
                other.avg_time < candidate.avg_time or other.revenue > candidate.revenue
            )
            duplicate_later_copy = (
                other.avg_time == candidate.avg_time
                and other.revenue == candidate.revenue
                and j < i
            )
            if (better_or_equal and strictly_better) or duplicate_later_copy:
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    kept.sort(key=lambda r: r.avg_time)
    return kept


def _synthetic_result(template, avg_time, revenue):
    return DesignPointResult(template.design, template.outcome, avg_time, revenue)


@pytest.fixture(scope="module")
def b_template(i880_pop, i880_bpr):
    # A Regime-B outcome so synthetic revenues are unconstrained.
    return evaluate_design(DesignParams(0.75, 0.5, 2.5), i880_pop, i880_bpr)


def test_pareto_front_trivial_cases(b_template):
    single_dominator = [
        _synthetic_result(b_template, 30.0, 5.0),
        _synthetic_result(b_template, 28.0, 7.0),
        _synthetic_result(b_template, 29.0, 6.0),
    ]
    front = pareto_front(single_dominator)
    assert [(p.avg_time, p.revenue) for p in front.points] == [(28.0, 7.0)]

    chain = [
        _synthetic_result(b_template, 28.0, 5.0),
        _synthetic_result(b_template, 29.0, 6.0),
        _synthetic_result(b_template, 30.0, 7.0),
    ]
    front = pareto_front(chain)
    assert [(p.avg_time, p.revenue) for p in front.points] == [(28.0, 5.0), (29.0, 6.0), (30.0, 7.0)]

    lone = [_synthetic_result(b_template, 25.0, 1.0)]
    assert pareto_front(lone).points == tuple(lone)

    with pytest.raises(EmptyInput):
        pareto_front([])


def test_pareto_front_keeps_first_seen_duplicate(b_template):
    first = _synthetic_result(b_template, 28.0, 5.0)
    second = _synthetic_result(b_template, 28.0, 5.0)
    front = pareto_front([first, second])
    assert len(front.points) == 1
    assert front.points[0] is first


def test_pareto_front_matches_brute_force_random(b_template):
    rng = np.random.default_rng(99)
    for _ in range(1000):
        size = int(rng.integers(1, 201))
        times = np.round(rng.uniform(20.0, 40.0, size=size), 2)
        revenues = np.round(rng.uniform(0.0, 50.0, size=size), 2)
        results = [
            _synthetic_result(b_template, float(t), float(r)) for t, r in zip(times, revenues)
        ]
        fast = list(pareto_front(results).points)
        slow = _brute_force_front(results)
        assert fast == slow


def test_pareto_front_on_i880_sweep(i880_pop, i880_bpr):
    results = sweep(i880_grid(), i880_pop, i880_bpr)
    front = pareto_front(results)
    assert set(front.points) <= set(results)
    assert list(front.points) == _brute_force_front(results)
    # Per-rho fronts are themselves valid non-dominated chains.
    for rho in (0.25, 0.5, 0.75):
        subset = [r for r in results if r.design.rho == rho]
        pareto_front(subset)  # construction validates the chain invariant


def test_statics_scan_i880(i880_pop, i880_bpr):
    table = comparative_statics_scan(3.0, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
    assert len(table.rows) == 3
    assert all(isinstance(row, DesignPointResult) for row in table.rows)
    assert [row.design.rho for row in table.rows] == [0.25, 0.5, 0.75]
    assert set(table.flags) == {"sigma_toll", "sigma_pool", "sigma_o", "c_delta"}
    assert all(flag in {"non-decreasing", "non-increasing", "neither"} for flag in table.flags.values())


def test_statics_regime_transitions_once(i880_pop, i880_bpr):
    # Along ascending rho the regime may switch A -> B at most once and
    # never back: the probe gap grows with the HOT allocation.
    for k in range(1, 21):
        table = comparative_statics_scan(0.5 * k, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
        labels = [row.outcome.regime.is_regime_a for row in table.rows]
        # Once False (Regime B), never True again.
        assert labels == sorted(labels, reverse=True)


def test_statics_scan_validation(i880_pop, i880_bpr):
    with pytest.raises(EmptyInput):
        comparative_statics_scan(1.0, [], 2.5, i880_pop, i880_bpr)
    with pytest.raises(ValidationError):
        comparative_statics_scan(1.0, [0.5, 0.5], 2.5, i880_pop, i880_bpr)
    with pytest.raises(ValidationError):
        comparative_statics_scan(1.0, [0.75, 0.25], 2.5, i880_pop, i880_bpr)


def test_statics_scan_deterministic(i880_pop, i880_bpr):
    first = comparative_statics_scan(2.0, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
    second = comparative_statics_scan(2.0, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
    assert first.rows == second.rows
    assert first.flags == second.flags
