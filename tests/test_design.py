"""Objective columns, Pareto extraction, and comparative statics."""

import dataclasses

import numpy as np
import pytest

from hotlane import (
    DesignParams,
    EquilibriumOutcome,
    HotLaneError,
    RegimeLabel,
    ValidationError,
    comparative_statics_scan,
    pareto_front,
    solve_batch,
)
from hotlane.design import evaluate_design
from hotlane.latency import bpr_time
from paper_reference import brute_force_front


def i880_grid():
    return [
        DesignParams(rho=rho, tau=0.5 * k, occupancy=2.5)
        for rho in (0.25, 0.5, 0.75)
        for k in range(1, 21)
    ]


def columns(designs):
    """The (tau, rho, occupancy) columns that :func:`solve_batch` takes."""
    return [d.tau for d in designs], [d.rho for d in designs], [d.occupancy for d in designs]


def rows(table):
    """Every point of a batch as an EquilibriumOutcome."""
    return [table.outcome(i) for i in range(len(table))]


def test_evaluate_design_regime_a_revenue(i880_pop, i880_bpr):
    result = evaluate_design(DesignParams(0.25, 4.0, 2.5), i880_pop, i880_bpr)
    assert result.regime is RegimeLabel.A1
    assert result.revenue == 0.0


def test_evaluate_design_objectives(i880_pop, i880_bpr):
    design = DesignParams(0.75, 1.0, 2.5)
    result = evaluate_design(design, i880_pop, i880_bpr)
    flow_ordinary, flow_hot = result.flows
    hot_time = bpr_time(flow_hot, i880_bpr.v_cap * design.rho, i880_bpr)
    ordinary_time = bpr_time(flow_ordinary, i880_bpr.v_cap * (1 - design.rho), i880_bpr)
    # The average is a convex combination of the two lane latencies.
    assert min(hot_time, ordinary_time) <= result.avg_time <= max(hot_time, ordinary_time)
    assert result.avg_time >= i880_bpr.t_free
    # Revenue recovers the toll share to machine precision.
    assert result.revenue / design.tau / i880_pop.demand == pytest.approx(
        result.shares.toll, rel=1e-14
    )


def test_evaluate_design_frozen_point(i880_pop, i880_bpr):
    result = evaluate_design(DesignParams(0.25, 1.0, 2.5), i880_pop, i880_bpr)
    # Pinned by the grid oracle: tiny pool share, empty toll lane.
    assert result.avg_time == pytest.approx(22.0159065658243, rel=1e-10)
    assert result.revenue == 0.0


def test_sweep_i880_grid(i880_pop, i880_bpr):
    grid = i880_grid()
    table = solve_batch(*columns(grid), i880_pop, i880_bpr)
    assert len(table) == 60 and not table.errors
    results = rows(table)
    assert all(isinstance(r, EquilibriumOutcome) for r in results)
    assert [DesignParams(rho=r.rho, tau=r.tau, occupancy=r.occupancy) for r in results] == grid  # input order preserved
    assert all(r.avg_time >= i880_bpr.t_free for r in results)
    # Interior HOT usage keeps the solved gap positive everywhere.
    assert all(r.gap > 0 for r in results)


def test_sweep_empty_and_duplicates(i880_pop, i880_bpr):
    assert len(solve_batch([], [], [], i880_pop, i880_bpr)) == 0
    design = DesignParams(0.5, 2.0, 2.5)
    twice = solve_batch(*columns([design, design]), i880_pop, i880_bpr)
    assert twice.outcome(0) == twice.outcome(1)


def test_sweep_records_failures(i880_pop, i880_bpr):
    bad = DesignParams(0.5, 2.0, 2.5)
    good = DesignParams(0.25, 1.0, 2.5)

    def failing_solve_batch(tau, rho, occupancy, pop, bpr):
        """The real columnar result, with the bad point's error added."""
        batch = solve_batch(tau, rho, occupancy, pop, bpr)
        failed = np.flatnonzero((batch.tau == bad.tau) & (batch.rho == bad.rho)).tolist()
        errors = {**batch.errors, **{i: HotLaneError("synthetic failure") for i in failed}}
        return dataclasses.replace(batch, errors=errors)

    table = failing_solve_batch(*columns([good, bad]), i880_pop, i880_bpr)
    assert isinstance(table.outcome(0), EquilibriumOutcome)
    assert list(table.solved) == [True, False]
    assert "synthetic failure" in str(table.errors[1])
    with pytest.raises(HotLaneError, match="synthetic failure"):
        table.outcome(1)
    # Taking rows renumbers the errors, and a front skips the failed point.
    assert list(table.take([1, 0]).errors) == [0] and not table.take(slice(0, 1)).errors
    assert rows(table.take(pareto_front(table))) == [table.outcome(0)]


def test_pareto_front_positions_skip_a_failed_point(i880_pop, i880_bpr):
    """With a front point failed, the positions still index the original batch, skip
    the failed index and match the list path over the solved points."""
    table = solve_batch(*columns(i880_grid()), i880_pop, i880_bpr)
    failed = int(pareto_front(table).min())  # a front point, before the other front points
    broken = dataclasses.replace(table, errors={failed: HotLaneError("synthetic failure")})
    positions = pareto_front(broken).tolist()
    assert failed not in positions and max(positions) > failed
    kept = [i for i in range(len(table)) if i != failed]
    assert positions == [kept[i] for i in pareto_front([table.outcome(i) for i in kept])]


def _synthetic_result(template, avg_time, revenue):
    return dataclasses.replace(template, avg_time=avg_time, revenue=revenue)


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
    assert [(single_dominator[i].avg_time, single_dominator[i].revenue) for i in front] == [(28.0, 7.0)]

    chain = [
        _synthetic_result(b_template, 28.0, 5.0),
        _synthetic_result(b_template, 29.0, 6.0),
        _synthetic_result(b_template, 30.0, 7.0),
    ]
    front = pareto_front(chain)
    assert [(chain[i].avg_time, chain[i].revenue) for i in front] == [(28.0, 5.0), (29.0, 6.0), (30.0, 7.0)]

    lone = [_synthetic_result(b_template, 25.0, 1.0)]
    assert [lone[i] for i in pareto_front(lone)] == lone

    with pytest.raises(ValidationError):
        pareto_front([])


def test_pareto_front_keeps_first_seen_duplicate(b_template):
    first = _synthetic_result(b_template, 28.0, 5.0)
    second = _synthetic_result(b_template, 28.0, 5.0)
    pair = [first, second]
    front = pareto_front(pair)
    assert len(front) == 1
    assert pair[front[0]] is first


def _fronts_one_group_at_a_time(results, groups):
    """The grouped front as separate calls: each label's front alone, labels ascending."""
    fronts = []
    for label in sorted(set(groups)):
        members = [i for i, g in enumerate(groups) if g == label]
        fronts += [members[i] for i in pareto_front([results[i] for i in members])]
    return fronts


def test_pareto_front_matches_brute_force_random(b_template):
    """The front equals the brute-force one and, with random labels (few of them, so revenues
    tie across groups), the grouped front equals each group's front taken alone."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        size = int(rng.integers(1, 201))
        times = np.round(rng.uniform(20.0, 40.0, size=size), 2)
        revenues = np.round(rng.uniform(0.0, 50.0, size=size), 2)
        results = [
            _synthetic_result(b_template, float(t), float(r)) for t, r in zip(times, revenues)
        ]
        fast = [results[i] for i in pareto_front(results)]
        slow = brute_force_front(results)
        assert fast == slow
        groups = rng.integers(-3, int(rng.integers(-2, 6)), size=size)
        assert pareto_front(results, groups).tolist() == _fronts_one_group_at_a_time(results, groups.tolist())
        assert pareto_front(results, np.zeros(size, dtype=int)).tolist() == pareto_front(results).tolist()


def test_pareto_front_groups_with_revenue_ties_across_groups(b_template):
    """A group's front is not cut short by an equal or higher revenue in an earlier group,
    and exact duplicates in different groups are both kept."""
    objectives = [(28.0, 9.0), (30.0, 5.0), (27.5, 5.0), (28.0, 9.0), (31.0, 9.0), (27.0, 1.0), (32.0, 12.0)]
    groups = [4, 4, 7, 7, 7, 9, 9]
    results = [_synthetic_result(b_template, *pair) for pair in objectives]
    front = pareto_front(results, groups).tolist()
    assert front == [0, 2, 3, 5, 6]
    assert front == _fronts_one_group_at_a_time(results, groups)
    assert pareto_front(results).tolist() == [5, 2, 0, 6]
    with pytest.raises(ValidationError):
        pareto_front(results, groups[:-1])
    with pytest.raises(ValidationError):
        pareto_front(results, np.array(groups, dtype=float))


def test_pareto_front_groups_skip_a_group_whose_every_point_failed(i880_pop, i880_bpr):
    """On the I-880 batch grouped by rho, a rho whose every point failed has no front, and
    the other rhos' fronts are their slices' fronts, offset into the batch. With every point
    failed the front is empty, and the groups are still checked."""
    table = solve_batch(*columns(i880_grid()), i880_pop, i880_bpr)
    by_rho = np.arange(len(table)) // 20
    sliced = [20 * k + pareto_front(table.take(slice(20 * k, 20 * k + 20))) for k in range(3)]
    assert pareto_front(table, by_rho).tolist() == np.concatenate(sliced).tolist()
    broken = dataclasses.replace(table, errors={i: HotLaneError("synthetic failure") for i in range(20, 40)})
    assert pareto_front(broken, by_rho).tolist() == np.concatenate([sliced[0], sliced[2]]).tolist()
    everything = dataclasses.replace(table, errors={i: HotLaneError("synthetic failure") for i in range(60)})
    for groups in (by_rho, None):
        front = pareto_front(everything, groups)
        assert front.dtype == np.intp and front.size == 0
    with pytest.raises(ValidationError):
        pareto_front(everything, by_rho[:-1])


def test_pareto_front_on_i880_sweep(i880_pop, i880_bpr):
    table = solve_batch(*columns(i880_grid()), i880_pop, i880_bpr)
    results = rows(table)
    front = [results[i] for i in pareto_front(results)]
    assert set(front) <= set(results)
    assert front == brute_force_front(results)
    # The columnar path keeps the same points.
    assert rows(table.take(pareto_front(table))) == front
    # Per-rho fronts: the batch slice and the list give the same points.
    for k, rho in enumerate((0.25, 0.5, 0.75)):
        subset = [r for r in results if r.rho == rho]
        batch = table.take(slice(20 * k, 20 * k + 20))
        assert rows(batch.take(pareto_front(batch))) == [subset[i] for i in pareto_front(subset)]


def test_pareto_front_ties_in_a_slice(i880_pop, i880_bpr):
    # Exact (avg_time, revenue) ties inside each rho's contiguous slice: the
    # lexsort path keeps the first-seen point of each tie, as the list path does.
    grid = [DesignParams(rho, 0.5 * k, 2.5) for rho in (0.5, 0.75) for k in range(1, 7)]
    objectives = [(30.0, 5.0), (28.0, 7.0), (28.0, 7.0), (30.0, 5.0), (29.0, 9.0), (29.0, 9.0)] * 2
    avg_time, revenue = (np.array(column) for column in zip(*objectives))
    table = dataclasses.replace(solve_batch(*columns(grid), i880_pop, i880_bpr), avg_time=avg_time, revenue=revenue)
    results = [_synthetic_result(table.outcome(i), *objectives[i]) for i in range(len(table))]
    for start in (0, 6):
        batch = table.take(slice(start, start + 6))
        front = batch.take(pareto_front(batch))
        assert front.tau.tolist() == [1.0, 2.5]  # the first of each tied pair
        assert front.avg_time.tolist() == [28.0, 29.0] and front.revenue.tolist() == [7.0, 9.0]
        listed = tuple(results[start + i] for i in pareto_front(results[start : start + 6]))
        assert listed == (results[start + 1], results[start + 4])
        assert listed == tuple(brute_force_front(results[start : start + 6]))


def test_statics_scan_i880(i880_pop, i880_bpr):
    batch, flags = comparative_statics_scan(3.0, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
    assert len(batch) == 3
    assert all(isinstance(row, EquilibriumOutcome) for row in rows(batch))
    assert [row.rho for row in rows(batch)] == [0.25, 0.5, 0.75]
    assert set(flags) == {"sigma_toll", "sigma_pool", "sigma_o", "c_delta"}
    assert all(flag in {"non-decreasing", "non-increasing", "neither"} for flag in flags.values())


def test_statics_regime_transitions_once(i880_pop, i880_bpr):
    # Along ascending rho the regime may switch A -> B at most once and
    # never back: the probe gap grows with the HOT allocation.
    for k in range(1, 21):
        batch, _ = comparative_statics_scan(0.5 * k, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
        labels = [row.regime is not RegimeLabel.B for row in rows(batch)]
        # Once False (Regime B), never True again.
        assert labels == sorted(labels, reverse=True)


def test_statics_scan_validation(i880_pop, i880_bpr):
    with pytest.raises(ValidationError):
        comparative_statics_scan(1.0, [], 2.5, i880_pop, i880_bpr)
    with pytest.raises(ValidationError):
        comparative_statics_scan(1.0, [0.5, 0.5], 2.5, i880_pop, i880_bpr)
    with pytest.raises(ValidationError):
        comparative_statics_scan(1.0, [0.75, 0.25], 2.5, i880_pop, i880_bpr)
    # A numpy grid is named by the floats it holds, not by numpy scalar reprs.
    with pytest.raises(ValidationError, match=r"got \(0\.75, 0\.25\)$"):
        comparative_statics_scan(1.0, np.array([0.75, 0.25]), 2.5, i880_pop, i880_bpr)


def test_statics_scan_takes_only_a_sequence_of_numbers(i880_pop, i880_bpr):
    """The grid follows the rho_values rule of RunConfig: a scalar, a string, a nested list or a
    string entry is a ValidationError, not a TypeError, a bare ValueError or a silent float()."""
    for rho_grid in (0.5, ("x",), [[0.25, 0.5]], [0.25, "0.5"], "0.5", np.array(0.5)):
        with pytest.raises(ValidationError, match="^rho_values must be a sequence of numbers, got "):
            comparative_statics_scan(1.0, rho_grid, 2.5, i880_pop, i880_bpr)
    listed, _ = comparative_statics_scan(1.0, [0.25, 0.5], 2.5, i880_pop, i880_bpr)
    from_array, _ = comparative_statics_scan(1.0, np.array([0.25, 0.5]), 2.5, i880_pop, i880_bpr)
    assert rows(from_array) == rows(listed)


def test_statics_scan_deterministic(i880_pop, i880_bpr):
    first, first_flags = comparative_statics_scan(2.0, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
    second, second_flags = comparative_statics_scan(2.0, [0.25, 0.5, 0.75], 2.5, i880_pop, i880_bpr)
    assert rows(first) == rows(second)  # every column of every point
    assert first_flags == second_flags
