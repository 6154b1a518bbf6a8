"""Brute-force oracle: exact labeling semantics and fixed-point behavior."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotlane import (
    BprParams,
    DesignParams,
    GapNonPositive,
    NoConvergence,
    OracleConfig,
    PopulationParams,
    RegimeLabel,
    StrategyShares,
    ValidationError,
    oracle_equilibrium,
    solve,
)
from hotlane import oracle
from hotlane.latency import latency_gap
from hotlane.population import region_measures_at_gap
from paper_reference import ActionLabel, best_response_at_gap, column_label_counts, empirical_shares

# The congested calibration: I-880 with demand 250 and a = 0.6.
CONGESTED_POP = PopulationParams(demand=250.0, beta_max=1.5, gamma_max=8.0)
CONGESTED_BPR = BprParams(a=0.6, b=4.0, t_free=22.0, v_cap=140.0)
I880_POINTS = [(rho, 0.5 * k) for rho in (0.25, 0.5, 0.75) for k in range(1, 21)]


def test_oracle_config_validation():
    OracleConfig()
    with pytest.raises(ValidationError):
        OracleConfig(grid_n=5)
    # An infinite grid once reached numpy as an untyped "Maximum allowed size exceeded".
    with pytest.raises(ValidationError, match="^grid_n must be finite, got inf$"):
        OracleConfig(grid_n=math.inf)


def _loop_shares(sigma, design, pop, bpr, grid_n):
    """Reference implementation: label every midpoint agent one by one."""
    counts = {label: 0 for label in ActionLabel}
    gap = latency_gap(sigma, design, pop.demand, bpr)
    for i in range(grid_n):
        beta = (i + 0.5) * pop.beta_max / grid_n
        for j in range(grid_n):
            gamma = (j + 0.5) * pop.gamma_max / grid_n
            label = best_response_at_gap(beta, gamma, gap, design.tau)
            counts[label] += 1
    total = grid_n * grid_n
    return (
        counts[ActionLabel.TOLL] / total,
        counts[ActionLabel.POOL] / total,
        counts[ActionLabel.ORDINARY] / total,
    )


def test_empirical_shares_matches_per_agent_loop(i880_pop, i880_bpr, congested_bpr):
    """The counting implementation reproduces per-agent labeling exactly."""
    cases = [
        (DesignParams(0.75, 0.5, 2.5), StrategyShares(0.1, 0.1, 0.8), i880_bpr),
        (DesignParams(0.25, 1.0, 2.5), StrategyShares(0.0, 0.01, 0.99), i880_bpr),
        (DesignParams(0.5, 0.5, 2.5), StrategyShares(0.3, 0.1, 0.6), congested_bpr),
        (DesignParams(0.5, 4.0, 2.5), StrategyShares(0.0, 0.5, 0.5), congested_bpr),
        # Both lane times overflow, so the gap is nan and every agent rides the ordinary lane.
        (DesignParams(0.5, 1.0, 2.5), StrategyShares(0.1, 0.1, 0.8), BprParams(1e80, 4.0, 22.0, 140.0)),
    ]
    for grid_n in (10, 37):
        cfg = OracleConfig(grid_n=grid_n)
        # tau on gamma midpoint 2, the same float as the loop's (2 + 0.5) * gamma_max / grid_n:
        # those agents pool, and the columns with beta*gap >= tau toll above it.
        tie = DesignParams(0.25, float(oracle._midpoints(i880_pop.gamma_max, grid_n)[2]), 2.5)
        for design, sigma, bpr in cases + [(tie, StrategyShares(0.1, 0.1, 0.8), congested_bpr)]:
            fast = empirical_shares(sigma, design, i880_pop, bpr, cfg)
            slow = _loop_shares(sigma, design, i880_pop, bpr, grid_n)
            assert fast.as_tuple() == slow


def test_empirical_shares_nonpositive_gap(i880_pop, i880_bpr):
    # Everyone on the HOT lane makes it the slow lane; every midpoint agent
    # picks ordinary.
    sigma = StrategyShares(0.5, 0.5, 0.0)
    design = DesignParams(0.25, 1.0, 2.5)
    cfg = OracleConfig(grid_n=50)
    assert empirical_shares(sigma, design, i880_pop, i880_bpr, cfg) == StrategyShares(0.0, 0.0, 1.0)


def test_empirical_shares_tracks_region_measures(i880_pop, congested_bpr):
    """Quadrature converges to the closed-form areas at O(1/grid_n)."""
    rng = np.random.default_rng(3)
    cfg = OracleConfig(grid_n=500)
    for _ in range(20):
        toll = rng.uniform(0, 0.5)
        pool = rng.uniform(0, 1.0 - toll)
        sigma = StrategyShares(toll, pool, 1.0 - toll - pool)
        design = DesignParams(rng.uniform(0.2, 0.8), rng.uniform(0.3, 10.0), 2.5)
        grid = empirical_shares(sigma, design, i880_pop, congested_bpr, cfg)
        gap = latency_gap(sigma, design, i880_pop.demand, congested_bpr)
        exact = region_measures_at_gap(gap, design.tau, i880_pop)
        for a, b in zip(grid.as_tuple(), exact.as_tuple()):
            assert abs(a - b) <= 2.0 / cfg.grid_n


def test_oracle_equilibrium_fixed_point(i880_pop, i880_bpr, oracle_cfg):
    # Includes design points whose exact equilibrium straddles a grid
    # labeling boundary, where no grid state is exactly self-consistent.
    for rho, tau in [(0.25, 1.0), (0.75, 0.5), (0.75, 1.0)]:
        design = DesignParams(rho, tau, 2.5)
        shares, iterations = oracle_equilibrium(design, i880_pop, i880_bpr, oracle_cfg)
        again = empirical_shares(shares, design, i880_pop, i880_bpr, oracle_cfg)
        floor = 2.0 / oracle_cfg.grid_n
        for a, b in zip(shares.as_tuple(), again.as_tuple()):
            assert abs(a - b) <= floor
        assert 1 <= iterations <= oracle.MAX_LABELINGS


def test_oracle_matches_solver_named_point(i880_pop, i880_bpr, oracle_cfg):
    design = DesignParams(0.25, 1.0, 2.5)
    shares, _ = oracle_equilibrium(design, i880_pop, i880_bpr, oracle_cfg)
    out = solve(design, i880_pop, i880_bpr)
    for a, b in zip(shares.as_tuple(), out.shares.as_tuple()):
        assert abs(a - b) <= 5e-3


def test_oracle_regime_a_toll_share(i880_pop, i880_bpr, oracle_cfg):
    design = DesignParams(0.25, 4.0, 2.5)
    assert solve(design, i880_pop, i880_bpr).regime is RegimeLabel.A1
    shares, _ = oracle_equilibrium(design, i880_pop, i880_bpr, oracle_cfg)
    assert shares.toll <= 2.0 / oracle_cfg.grid_n


def test_oracle_grid_refinement(i880_pop, i880_bpr):
    """Doubling the grid moves the result by at most 4/grid_n."""
    base = OracleConfig(grid_n=2000)
    fine = OracleConfig(grid_n=4000)
    sampled = [
        (0.25, 0.5), (0.25, 5.0), (0.25, 10.0), (0.5, 1.0), (0.5, 4.5),
        (0.5, 9.0), (0.75, 0.5), (0.75, 1.0), (0.75, 5.5), (0.75, 10.0),
    ]
    for rho, tau in sampled:
        design = DesignParams(rho, tau, 2.5)
        coarse_shares, _ = oracle_equilibrium(design, i880_pop, i880_bpr, base)
        fine_shares, _ = oracle_equilibrium(design, i880_pop, i880_bpr, fine)
        for a, b in zip(coarse_shares.as_tuple(), fine_shares.as_tuple()):
            assert abs(a - b) <= 4.0 / base.grid_n


def _self_residual(shares, design, pop, bpr, cfg):
    """Largest agent-count change when the grid state is labeled against itself."""
    total = cfg.grid_n * cfg.grid_n
    again = empirical_shares(shares, design, pop, bpr, cfg)
    d_toll = round((again.toll - shares.toll) * total)
    d_pool = round((again.pool - shares.pool) * total)
    return max(abs(d_toll), abs(d_pool), abs(d_toll + d_pool))


def test_oracle_self_residual_within_one_agent(i880_pop, i880_bpr, oracle_cfg):
    """Exact or straddling, the returned grid state relabels at most one agent."""
    sampled = [(0.25, 1.0), (0.25, 7.5), (0.5, 3.0), (0.75, 4.0), (0.75, 10.0)]
    for rho, tau in sampled:
        design = DesignParams(rho, tau, 2.5)
        shares, _ = oracle_equilibrium(design, i880_pop, i880_bpr, oracle_cfg)
        assert _self_residual(shares, design, i880_pop, i880_bpr, oracle_cfg) <= 1


@pytest.mark.parametrize(
    "rho, tau",
    [
        (0.05, 8.514141414141413),  # A1
        (0.19693877551020406, 4.908080808080808),  # B
        (0.2520408163265306, 2.504040404040404),  # B
    ],
)
def test_oracle_converges_on_congested_points(rho, tau):
    """Congested points where damped best-response iteration cycles without freezing."""
    design = DesignParams(rho, tau, 2.5)
    cfg = OracleConfig(grid_n=500)
    shares, _ = oracle_equilibrium(design, CONGESTED_POP, CONGESTED_BPR, cfg)
    out = solve(design, CONGESTED_POP, CONGESTED_BPR)
    tolerance = oracle._solve_tolerance(cfg.grid_n)
    assert max(abs(a - b) for a, b in zip(shares.as_tuple(), out.shares.as_tuple())) <= tolerance


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    demand=st.floats(50.0, 300.0),
    a=st.floats(0.1, 1.0),
    b=st.floats(1.0, 6.0),
    beta_max=st.floats(0.5, 3.0),
    gamma_max=st.floats(1.0, 12.0),
    rho=st.floats(0.05, 0.95),
    tau=st.floats(0.1, 15.0),
    occupancy=st.floats(2.0, 4.0),
)
def test_solve_matches_oracle_over_a_wide_box(demand, a, b, beta_max, gamma_max, rho, tau, occupancy):
    """solve never fails in the box, and the grid oracle at grid_n=500 agrees with it.

    A straddle has no self-consistent grid state, so its nearest state may
    sit a further self-residual away; the cap must never be reached.
    """
    pop = PopulationParams(demand=demand, beta_max=beta_max, gamma_max=gamma_max)
    bpr = BprParams(a=a, b=b, t_free=22.0, v_cap=140.0)
    design = DesignParams(rho, tau, occupancy)
    cfg = OracleConfig(grid_n=500)
    out = solve(design, pop, bpr)
    tolerance = oracle._solve_tolerance(cfg.grid_n)
    try:
        shares, _ = oracle_equilibrium(design, pop, bpr, cfg)
    except NoConvergence as exc:
        assert "straddle" in str(exc), str(exc)
        shares, tolerance = exc.last_value, tolerance + exc.residual
    assert max(abs(x - y) for x, y in zip(shares.as_tuple(), out.shares.as_tuple())) <= tolerance


def test_oracle_labelings_per_point(i880_pop, i880_bpr, oracle_cfg, monkeypatch):
    """Grid labelings per I-880 point: the work, not the time."""
    calls = []
    label_counts = oracle._label_counts

    def counted(*args):
        calls[-1] += 1
        return label_counts(*args)

    monkeypatch.setattr(oracle, "_label_counts", counted)
    for rho, tau in I880_POINTS:
        calls.append(0)
        _, labelings = oracle_equilibrium(DesignParams(rho, tau, 2.5), i880_pop, i880_bpr, oracle_cfg)
        assert labelings == calls[-1]
    assert np.median(calls) <= 3
    assert max(calls) <= 20
    # The 19 points whose equilibrium straddles two grid labelings stop once
    # the bracket ends are adjacent labelings, not at float resolution, and
    # relabel an end's own gap only outside every interval already labeled.
    straddles = [count for (rho, tau), count in zip(I880_POINTS, calls) if rho == 0.75 and tau >= 1.0]
    assert len(straddles) == 19
    assert sum(straddles) <= 142


def test_oracle_labels_nothing_below_the_first_threshold(i880_bpr, monkeypatch):
    """At demand 1 the all-ordinary gap lies below the first gap at which any
    agent pools, so everyone ordinary is returned without a grid labeling."""
    calls = [0]
    label_counts = oracle._label_counts

    def counted(*args):
        calls[-1] += 1
        return label_counts(*args)

    monkeypatch.setattr(oracle, "_label_counts", counted)
    pop = PopulationParams(demand=1.0, beta_max=1.5, gamma_max=8.0)
    result = oracle_equilibrium(DesignParams(0.5, 1.0, 2.5), pop, i880_bpr, OracleConfig(grid_n=2000))
    assert result == (StrategyShares(0.0, 0.0, 1.0), 0)
    assert calls == [0]


def test_oracle_i880_shares_pinned(i880_pop, i880_bpr, oracle_cfg):
    """The 60 I-880 oracle states at grid_n=2000, bit for bit.

    The digest was taken from a search that narrowed every bracket to float
    resolution. The states are unique, so a faster search must reproduce it.
    """
    lines = []
    for rho, tau in I880_POINTS:
        shares, _ = oracle_equilibrium(DesignParams(rho, tau, 2.5), i880_pop, i880_bpr, oracle_cfg)
        lines.append(repr(shares.as_tuple()))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "20a484ca0094442e38fc353dc8a77ef93e184213e8a6d7e538b5af1a5026b9cf"



def test_oracle_search_path_pinned(i880_pop, i880_bpr, oracle_cfg, monkeypatch):
    """The oracle's search path, bit for bit: at the 60 I-880 points at grid_n=2000, and at rho 1e-100
    and 1e-300 with tau=1, where the HOT lane time overflows to inf, each point's state, its labeling
    count and the gap of every labeling in order. The states are unique, so
    :func:`test_oracle_i880_shares_pinned` holds whatever the path; this digest moves with any change
    to the gaps the search labels at, such as a change to ``gap_at``."""
    gaps = []
    label_counts = oracle._label_counts

    def recorded(gap, *args):
        gaps.append(float(gap).hex())
        return label_counts(gap, *args)

    monkeypatch.setattr(oracle, "_label_counts", recorded)
    lines = []
    for rho, tau in [*I880_POINTS, (1e-100, 1.0), (1e-300, 1.0)]:
        shares, labelings = oracle_equilibrium(DesignParams(rho, tau, 2.5), i880_pop, i880_bpr, oracle_cfg)
        lines.append(repr((shares.as_tuple(), labelings, gaps)))
        gaps.clear()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e12184d47625323a193a4353e8ee422ce99fa37a9ca67eaf15bf148760ce98b1"

def test_oracle_straddle_pinned():
    """The congested straddle names the same grid state and self-residual, bit for bit."""
    design = DesignParams(0.8397959183673469, 0.1, 2.5)
    with pytest.raises(NoConvergence) as excinfo:
        oracle_equilibrium(design, CONGESTED_POP, CONGESTED_BPR, OracleConfig(grid_n=2000))
    assert excinfo.value.last_value == StrategyShares(0.82900625, 0.01149575, 0.159498)
    assert excinfo.value.residual == 0.0367665


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    grid_n=st.integers(10, 500),
    beta_max=st.floats(0.2, 4.0),
    gamma_max=st.floats(0.5, 15.0),
    tau=st.floats(0.01, 20.0),
    reach=st.floats(0.0, 1.5),
    snap=st.none() | st.sampled_from([1, 3, 5]),
    tie=st.booleans(),
)
# At the CLI default grid_n: a toll below gamma_max; a full-length row (tau
# >= gamma_max, so the row is every gamma midpoint), also at a snapped gap;
# the row's two equal entries at a near-tie; and tau at gamma_max with the
# top columns saturated.
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=1.0, reach=0.7, snap=None, tie=False)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=9.0, reach=0.9, snap=None, tie=False)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=9.0, reach=0.6, snap=1, tie=False)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=1.0, reach=0.4, snap=3, tie=True)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=8.0, reach=1.2, snap=None, tie=False)
def test_label_interval_is_exact(grid_n, beta_max, gamma_max, tau, reach, snap, tie):
    """The kernel's gap interval [start, end) is exactly where its labeling holds.

    ``reach`` places the gap so that the largest ``beta*gap`` runs from 0 to
    1.5 times the larger of ``tau`` and ``gamma_max``. ``snap`` instead puts
    it at ``snap * gamma_max / beta_max``, written as the ratio of two
    midpoints ``(2j+1)/(2i+1)``: there every column ``i`` with a midpoint
    ``j = snap*i + (snap-1)/2`` crosses a threshold within a few ulps of the
    gap, so the interval edges are near-ties between many columns. With
    ``snap``, ``tie`` also puts ``tau`` on the snapped midpoint ``j``: the one
    place where the threshold row holds two equal entries.
    """
    pop = PopulationParams(demand=100.0, beta_max=beta_max, gamma_max=gamma_max)
    gamma_mid = oracle._midpoints(gamma_max, grid_n)
    if snap is not None:
        i = round(reach / 1.5 * (grid_n // snap - 1))
        j = snap * i + (snap - 1) // 2
        if tie:
            tau = float(gamma_mid[j])
    beta_mid, gamma_pool, above_tau = oracle._grid(tau, pop, grid_n)

    def labeling(g):
        return oracle._label_counts(g, beta_mid, gamma_pool, above_tau)[0]

    gaps = [reach * max(tau, gamma_max) / beta_max]
    if snap is not None:
        ratio = float(gamma_mid[j] / beta_mid[i])
        gaps = [math.nextafter(ratio, -math.inf), ratio]
    for gap in gaps:
        state, start, end = oracle._label_counts(gap, beta_mid, gamma_pool, above_tau)
        assert start <= gap < end
        if start > 0.0:
            assert labeling(start) == state
            assert labeling(math.nextafter(start, -math.inf)) != state
        else:  # nobody tolls or pools: the labeling holds down to zero gap
            assert start == -math.inf and state == (0, 0) == labeling(0.0)
        if end < math.inf:
            assert labeling(math.nextafter(end, -math.inf)) == state
            assert labeling(end) != state
        else:  # every column is saturated
            assert labeling(2.0 * gap) == state


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    grid_n=st.integers(10, 2000),
    beta_max=st.floats(0.2, 4.0),
    gamma_max=st.floats(0.5, 15.0),
    tau=st.floats(0.001, 2.0) | st.sampled_from(["midpoint"]),
    gap=st.sampled_from(["reach", "snap", "saturate"]) | st.sampled_from([0.0, math.nan, 5e-324, 1e300, math.inf]),
    pick=st.floats(0.0, 1.0),
    snap=st.sampled_from([1, 3, 5]),
    ulps=st.integers(-2, 2),
)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=1.0, gap="snap", pick=0.0, snap=1, ulps=0)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=1.125, gap="reach", pick=0.5, snap=1, ulps=0)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau="midpoint", gap="snap", pick=0.3, snap=3, ulps=-1)
@example(grid_n=2000, beta_max=1.5, gamma_max=8.0, tau=0.5, gap="saturate", pick=1.0, snap=1, ulps=0)
@example(grid_n=10, beta_max=1.5, gamma_max=8.0, tau=0.001, gap="reach", pick=1.0, snap=1, ulps=0)
@example(grid_n=10, beta_max=1.5, gamma_max=8.0, tau=0.5, gap=0.0, pick=0.0, snap=1, ulps=-1)
def test_label_runs_match_columns(grid_n, beta_max, gamma_max, tau, gap, pick, snap, ulps):
    """The run kernel returns the column-wise reference's counts and interval, bit for bit.

    A float ``tau`` is that multiple of ``gamma_max``: below, at (1.0) or
    above it, where the row holds every gamma midpoint. "midpoint" puts
    ``tau`` on the gamma midpoint at fraction ``pick`` of the axis, so the
    row ends in two equal entries. A float ``gap`` is zero, NaN, subnormal
    or saturating. "reach" places the largest ``beta*gap`` at ``1.5*pick``
    times the larger of ``tau`` and ``gamma_max``. "snap" is
    ``snap * gamma_max / beta_max``, written as the ratio of two midpoints,
    where many columns cross a threshold within a few ulps of each other
    (with "midpoint", the same ``pick`` puts ``tau`` near that threshold).
    "saturate" is where the column at fraction ``pick`` reaches the whole
    row. Each gap is then moved ``ulps`` floats, below zero from zero.
    """
    pop = PopulationParams(demand=100.0, beta_max=beta_max, gamma_max=gamma_max)
    gamma_mid = oracle._midpoints(gamma_max, grid_n)
    tau = float(gamma_mid[round(pick * (grid_n - 1))]) if tau == "midpoint" else tau * gamma_max
    beta_mid, row, above_tau = oracle._grid(tau, pop, grid_n)
    if gap == "reach":
        gap = 1.5 * pick * max(tau, gamma_max) / beta_max
    elif gap == "snap":
        i = round(pick * (grid_n // snap - 1))
        gap = float(gamma_mid[snap * i + (snap - 1) // 2] / beta_mid[i])
    elif gap == "saturate":
        gap = float(row[-1] / beta_mid[round(pick * (grid_n - 1))])
    for _ in range(abs(ulps)):
        gap = math.nextafter(gap, math.copysign(math.inf, ulps))
    with np.errstate(over="ignore"):  # beta*gap overflows to inf near the largest float, as in the oracle
        runs = oracle._label_counts(gap, beta_mid, row, above_tau)
        columns = column_label_counts(gap, beta_mid, row, above_tau)
    assert runs == columns


def test_oracle_straddle_surfaced():
    """No grid state lies within the 2/grid_n floor: a straddle, not the cap."""
    design = DesignParams(0.8397959183673469, 0.1, 2.5)
    cfg = OracleConfig(grid_n=2000)
    with pytest.raises(NoConvergence) as excinfo:
        oracle_equilibrium(design, CONGESTED_POP, CONGESTED_BPR, cfg)
    message = str(excinfo.value)
    assert "straddle" in message and "cap" not in message
    assert excinfo.value.residual > 2.0 / cfg.grid_n
    best = excinfo.value.last_value
    total = cfg.grid_n * cfg.grid_n
    assert _self_residual(best, design, CONGESTED_POP, CONGESTED_BPR, cfg) == round(excinfo.value.residual * total)


def test_oracle_no_convergence_surfaced(i880_pop, i880_bpr, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_LABELINGS", 3)
    with pytest.raises(NoConvergence) as excinfo:
        oracle_equilibrium(DesignParams(0.75, 0.5, 2.5), i880_pop, i880_bpr, OracleConfig())
    assert "cap" in str(excinfo.value) and "straddle" not in str(excinfo.value)
    assert isinstance(excinfo.value.last_value, StrategyShares)
    assert excinfo.value.residual is not None


def test_oracle_deterministic(i880_pop, i880_bpr):
    cfg = OracleConfig(grid_n=400)
    design = DesignParams(0.75, 1.0, 2.5)
    first = oracle_equilibrium(design, i880_pop, i880_bpr, cfg)
    second = oracle_equilibrium(design, i880_pop, i880_bpr, cfg)
    assert first == second


def test_oracle_zero_hot_capacity_is_gap_non_positive():
    """A valid HOT capacity ``v_cap * rho`` that underflows to 0.0 leaves no positive
    all-ordinary gap (it is ``nan``): the oracle raises ``GapNonPositive``, as the solver does."""
    design = DesignParams(1e-320, 1.0, 2.5)
    pop, bpr = PopulationParams(115.0, 1.5, 8.0), BprParams(0.15, 4.0, 22.0, v_cap=1e-10)
    with pytest.raises(GapNonPositive, match="all-ordinary latency gap nan"):
        oracle_equilibrium(design, pop, bpr, OracleConfig(grid_n=100))
    with pytest.raises(GapNonPositive, match="all-ordinary latency gap nan"):
        solve(design, pop, bpr)


@pytest.mark.parametrize("rho", [1e-100, 1e-300])
def test_oracle_tiny_capacity_fraction(i880_pop, i880_bpr, rho):
    """At a valid but tiny HOT capacity, one pooling agent overflows the HOT lane's
    float volume-delay power: its time is ``inf`` and the gap ``-inf``, not an
    ``OverflowError``, and the oracle stops one agent away from everyone ordinary."""
    design = DesignParams(rho, 1.0, 2.5)
    shares, _ = oracle_equilibrium(design, i880_pop, i880_bpr, OracleConfig(grid_n=2000))
    assert shares == StrategyShares(0.0, 2.5e-07, 0.99999975)
    assert latency_gap(shares, design, i880_pop.demand, i880_bpr) == -math.inf
