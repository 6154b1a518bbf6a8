"""Brute-force equilibrium oracle, independent of the closed-form solver.

A dense grid of agent types (cell midpoints of the type rectangle) is
labeled agent by agent with the best-response inequalities of
:mod:`hotlane.population` and their pool > toll > ordinary tie-break, and
the oracle looks for a grid labeling that reproduces itself. Nothing here
touches the closed-form region areas or the regime equations, so agreement
with :func:`hotlane.equilibrium.solve` is a genuine cross-check of both.

Labeling the full ``grid_n x grid_n`` grid is done by counting: for a fixed
value-of-time column the pool condition ``beta*gap >= gamma and gamma <= tau``
selects exactly the gamma midpoints up to ``min(beta*gap, tau)``, and the
toll condition selects the midpoints strictly above ``tau`` whenever
``beta*gap >= tau`` (ties on ``gamma == tau`` belong to pool by the fixed
priority). So a column's state is the count of the entries of one
ascending threshold row that ``fl(beta*gap)`` reaches: the gamma midpoints
``<= tau``, then ``tau`` itself when a midpoint lies above it, which the
column reaches exactly when it tolls. The beta midpoints ascend, and so
does ``fl(beta*gap)`` at a fixed gap, so the columns that reach a threshold
are a suffix of the grid. One binary search per threshold finds the first
of them, and the columns from the first one of threshold ``k`` up to that
of threshold ``k+1`` form a run that reaches exactly thresholds ``0..k``.
A labeling therefore costs ``len(row) <= grid_n`` binary searches over the
``grid_n`` columns, and its counts reproduce the per-agent comparisons bit
for bit.

A column's state changes only where ``fl(beta*gap)`` crosses its next
threshold, so each labeling holds on a float interval of gaps ``[start, end)``,
returned with the counts: ``start`` is the latest gap at which some column
reaches its last threshold, ``end`` the earliest at which some column
reaches its next one. Both are exact floats. A run's first column (its
smallest beta) is the last of the run to reach the run's last threshold,
and its last column the first to reach the next one, so only those two
columns of each run are searched.

The search is a scalar root find in the latency gap. Write ``L(g)`` for the
grid labeling (toll and pool counts) at gap ``g`` and ``gap(s)`` for the
lane-latency gap when the grid plays labeling ``s``; a self-consistent grid
state is an ``s`` with ``L(gap(s)) == s``, i.e. ``gap(s)`` inside ``s``'s
own interval. Both counts are non-decreasing in ``g``, and more HOT users
(tolling or pooling) slow the HOT lanes and relieve the ordinary ones, so
``H(g) = gap(L(g)) - g`` is strictly decreasing on
``[0, gap(everyone ordinary)]``. A self-consistent state is therefore unique
when it exists; when it does not, the sign change of ``H`` falls between
two adjacent labelings, and that pair is unique too. The intervals let the
search stop at either without narrowing the bracket to float resolution:
exactly when a labeling's own gap lies in its interval, as a straddle when
the two bracket ends are adjacent labelings, or at the labeling cap (see
:func:`oracle_equilibrium`).

Because the sign change of ``H`` is fixed by the labels alone, the search
may start anywhere in the bracket: ``start`` names the gap of its first
labeling (``verify`` passes the gap :func:`hotlane.equilibrium.solve`
returned), and only the labeling count, and the ends reported at the cap,
depend on it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GapNonPositive, NoConvergence, ValidationError, check_fields
from .latency import BprParams, DesignParams, StrategyShares, _capacities, lane_gap
from .population import PopulationParams

__all__ = ["OracleConfig", "oracle_equilibrium", "MAX_LABELINGS"]

MAX_LABELINGS = 10000


@dataclass(frozen=True)
class OracleConfig:
    """Grid resolution: agent types per axis."""

    grid_n: int = 2000

    def __post_init__(self):
        check_fields(self)


def _solve_tolerance(grid_n: int) -> float:
    """Largest max-norm share distance at which the oracle at ``grid_n`` agrees with ``solve``."""
    return max(5e-3, 4.0 / grid_n)


@functools.lru_cache(maxsize=16)
def _midpoints(upper: float, n: int) -> np.ndarray:
    """The ``n`` cell midpoints of ``[0, upper]``, ascending: built once per ``(upper, n)``, read-only.

    Every midpoint must be a positive float: a first midpoint that underflows to 0.0 is a
    ``ValidationError``, since a zero beta reaches no threshold and a zero gamma midpoint is a
    threshold that every gap from 0 down reaches.
    """
    mid = (np.arange(n) + 0.5) * (upper / n)
    if not mid[0] > 0.0:
        raise ValidationError(f"oracle grid: the first of {n} cell midpoints of [0, {upper}] underflows to 0")
    mid.flags.writeable = False
    return mid


def _grid(tau: float, pop: PopulationParams, grid_n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-design constants of the labeling.

    The beta midpoints, the ascending threshold row (the gamma midpoints a
    column can pool on, those ``<= tau``, then ``tau`` itself when any
    midpoint lies above it), and the count of gamma midpoints strictly above
    ``tau``, which every tolling column adds to the toll count. Every
    midpoint and every threshold is positive.
    """
    gamma_mid = _midpoints(pop.gamma_max, grid_n)
    pooling = int(np.searchsorted(gamma_mid, tau, side="right"))
    row = np.concatenate((gamma_mid[:pooling], [tau])) if pooling < grid_n else gamma_mid
    return _midpoints(pop.beta_max, grid_n), row, grid_n - pooling


# One-float steps a search takes from its first guess before it bisects. The guesses are
# fl(threshold/beta) or another entry's answer, which lie within a float or two of the answer
# unless a product is subnormal.
_NEAR_STEPS = 4
_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _first_float(reaches, g: float, reached: bool) -> float:
    """Smallest float ``x >= 0`` with ``reaches(x)``, for a predicate that is false at 0.0, true at
    ``inf`` and monotone in between, given a guess ``g >= 0`` and ``reached = reaches(g)``.

    It steps one float at a time from ``g`` toward the answer, at most ``_NEAR_STEPS`` times, and
    then halves the count of floats between the last two ends, whose bit patterns order like the
    floats: at most 63 halvings span all of ``[0, inf]``. So ``reaches`` runs at most
    ``_NEAR_STEPS + 63`` times.
    """
    if reached:
        lo, hi = 0.0, g
        for _ in range(_NEAR_STEPS):
            below = math.nextafter(hi, -math.inf)
            if not reaches(below):
                return hi
            hi = below
    else:
        lo, hi = g, math.inf
        for _ in range(_NEAR_STEPS):
            lo = math.nextafter(lo, math.inf)
            if reaches(lo):
                return lo
    (lo,), (hi,) = _INT64.unpack(_DOUBLE.pack(lo)), _INT64.unpack(_DOUBLE.pack(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(_DOUBLE.unpack(_INT64.pack(mid))[0]):
            hi = mid
        else:
            lo = mid
    return _DOUBLE.unpack(_INT64.pack(hi))[0]


def _first_reaching(beta: float, threshold: float) -> float:
    """Smallest float ``g`` with ``fl(beta*g) >= threshold``, for positive arguments: at most
    ``_NEAR_STEPS + 65`` products (see :func:`_first_float`), starting from ``fl(threshold/beta)``."""
    g = threshold / beta
    reached = beta * g >= threshold
    if reached and beta * math.nextafter(g, -math.inf) < threshold:
        return g  # most often the first guess is the answer
    return _first_float(lambda x: beta * x >= threshold, g, reached)


def _first_reaching_all(beta: np.ndarray, threshold: np.ndarray) -> float:
    """Smallest float ``g`` with ``fl(beta*g) >= threshold`` in every entry.

    The entry with the largest ``threshold/beta`` gives a first answer, and
    no other entry's own answer lies more than a few ulps above it while the
    products are normal floats: the answer steps up one float at a time
    while some entry still falls short, and bisects after ``_NEAR_STEPS``
    such steps (see :func:`_first_float`). So it tests the entries together
    at most ``_NEAR_STEPS + 64`` times, after one :func:`_first_reaching`.
    """
    i = (threshold / beta).argmax()
    g = _first_reaching(float(beta[i]), float(threshold[i]))
    if not np.count_nonzero(beta * g < threshold):
        return g
    return _first_float(lambda x: not np.count_nonzero(beta * x < threshold), g, False)


def _first_reaching_any(beta: np.ndarray, threshold: np.ndarray) -> float:
    """Smallest float ``g`` with ``fl(beta*g) >= threshold`` in some entry.

    The mirror of :func:`_first_reaching_all`: from the entry with the
    smallest ``threshold/beta``, the answer steps down one float at a time
    while some entry still reaches its threshold one float lower, and
    bisects after ``_NEAR_STEPS`` such steps: at most ``_NEAR_STEPS + 64``
    tests of the entries together, after one :func:`_first_reaching`.
    """
    i = (threshold / beta).argmin()
    g = _first_reaching(float(beta[i]), float(threshold[i]))
    below = math.nextafter(g, -math.inf)
    if not np.count_nonzero(beta * below >= threshold):
        return g
    return _first_float(lambda x: bool(np.count_nonzero(beta * x >= threshold)), below, True)


def _label_counts(
    gap: float, beta_mid: np.ndarray, row: np.ndarray, above_tau: int
) -> tuple[tuple[int, int], float, float]:
    """(toll, pool) agent counts over the midpoint grid at the given gap, and
    the float interval ``[start, end)`` of gaps on which they hold.

    ``row`` and ``above_tau`` come from :func:`_grid`. One binary search per
    threshold (``len(row)`` searches over the ``grid_n`` columns) finds
    ``first[k]``, the first column whose ``fl(beta*gap)`` reaches ``row[k]``;
    the columns from ``first[k]`` up to ``first[k+1]`` reach exactly the
    thresholds up to ``row[k]``. ``start`` is ``-inf`` when no agent tolls or
    pools, and ``end`` is ``inf`` when every column reaches the whole row.
    """
    n = beta_mid.size
    # beta_mid is ascending, so is fl(beta*gap) at a fixed gap >= 0. A
    # negative gap reaches no (positive) threshold, so every search ends past
    # the last column. A nan gap (both lane times overflow) reaches nothing,
    # as per agent; searchsorted sorts nan last, past every threshold.
    first = np.full(row.size, n) if math.isnan(gap) else np.searchsorted(beta_mid * gap, row, side="left")
    # When the row closes with tau, the columns reaching all of it are the tolling ones.
    tolling = n - int(first[-1]) if above_tau else 0
    pool = row.size * n - int(first.sum()) - tolling

    # The runs are the columns between consecutive edges; the one from
    # first[k] reaches exactly row[:k+1]. A run enters its state where its
    # first column reaches its last threshold and leaves it where its last
    # column reaches the next one (see the module docstring).
    edges = np.concatenate(([0], first, [n]))
    nonempty = edges[:-1] < edges[1:]
    starts_run, ends_run = nonempty[1:], nonempty[:-1]  # per k: a run starts at first[k], one ends before it
    start, end = -math.inf, math.inf
    if first[0] < n:  # some column reaches a threshold
        start = _first_reaching_all(beta_mid[first[starts_run]], row[starts_run])
    if first[-1] > 0:  # some column falls short of the whole row
        end = _first_reaching_any(beta_mid[first[ends_run] - 1], row[ends_run])
    return (above_tau * tolling, pool), start, end


@np.errstate(all="ignore")
def oracle_equilibrium(
    design: DesignParams,
    pop: PopulationParams,
    bpr: BprParams,
    cfg: OracleConfig = OracleConfig(),
    start: float | None = None,
) -> tuple[StrategyShares, int]:
    """Self-consistent grid state, plus the number of grid labelings made to find it.

    ``H(g) = gap(L(g)) - g`` (see the module docstring) is bracketed by
    ``[0, gap(everyone ordinary)]`` and narrowed by Illinois secant steps
    with a midpoint fallback, keeping ``H(lo) > 0 > H(hi)``. On a
    labeling's interval ``H`` is ``gap(s) - g``, so once a labeling is known
    not to be self-consistent its whole interval has one sign of ``H``: the
    lower end moves to the last float of its labeling's interval, the upper
    end to the first.

    ``start`` is the gap of the first labeling, such as the gap
    :func:`hotlane.equilibrium.solve` returned for the design. When that
    labeling is not self-consistent, the next one probes the neighbouring
    labeling across its interval's edge toward the sign change: the first
    float at or past its end when ``H > 0`` there, the last float below its
    start when ``H < 0``. While the upper end is still unknown the search
    labels ``gap(everyone ordinary)``, then the secant steps run. The default
    ``None``, and any ``start`` not strictly between the first gap at which
    some agent pools or tolls and ``gap(everyone ordinary)`` (nan
    included), start at ``gap(everyone ordinary)``, where ``H <= 0``.

    The search stops in one of three ways:

    * Exact: a labeling ``s`` has ``gap(s)`` inside its own interval. ``s``
      is exactly self-consistent and is returned.
    * Straddle: the two ends' labelings are adjacent (the lower one's
      interval ends where the upper one's starts), so no grid state is
      self-consistent: the exact equilibrium falls between them. The
      self-residual of a state is the largest count change when it is
      labeled against itself. The end with the smaller self-residual (the
      lower end on a tie) is returned if that residual is within the
      discretization floor ``2/grid_n`` in share units. Otherwise
      :class:`NoConvergence` says "straddle", with that end's shares as
      ``last_value`` and its self-residual, in share units, as
      ``residual``.
    * Cap: ``MAX_LABELINGS`` labelings are spent. :class:`NoConvergence` says
      "cap". Its ``last_value`` is the lower end's labeling, and its
      ``residual`` is the max-norm share distance between the two ends'
      labelings, which bounds the distance to a self-consistent state if one
      exists (``None`` while no upper end is labeled, which a ``start``
      allows for the first two labelings).

    Each pass of the search loop makes one labeling, so the loop ends
    within ``MAX_LABELINGS`` passes, and a labeling's interval takes a
    bounded number of float steps (see :func:`_first_reaching_all`).

    :class:`~hotlane.errors.ValidationError` is raised first when a cell
    midpoint of either axis underflows to 0.0 (see :func:`_midpoints`), and
    :class:`GapNonPositive` when ``gap(everyone ordinary)`` is not positive.
    Labels are monotone in ``g``, so the state returned (or named by a
    straddle) does not depend on the path the bracket takes, and so not on
    ``start``. The cap is the one exception: its ``last_value`` and
    ``residual`` are the ends the path had reached when the labelings ran
    out.
    """
    beta_mid, row, above_tau = _grid(design.tau, pop, cfg.grid_n)
    capacities = _capacities(design.rho, bpr)
    total = cfg.grid_n * cfg.grid_n

    def as_shares(state: tuple[int, int]) -> StrategyShares:
        toll, pool = state
        return StrategyShares(toll / total, pool / total, (total - toll - pool) / total)

    def gap_at(state: tuple[int, int]) -> float:
        toll, pool = state
        # numpy float scalars: an overflow is inf, under this function's np.errstate, not an OverflowError.
        shares = np.float64(toll) / total, np.float64(pool) / total, np.float64(total - toll - pool) / total
        return float(lane_gap(shares, pop.demand, design.occupancy, capacities, bpr))

    def distance(a: tuple[int, int], b: tuple[int, int]) -> int:
        """Max-norm count distance over the toll, pool and ordinary counts."""
        d_toll, d_pool = b[0] - a[0], b[1] - a[1]
        return max(abs(d_toll), abs(d_pool), abs(d_toll + d_pool))

    def label(g: float) -> tuple[tuple[int, int], float, float]:
        if len(known) > MAX_LABELINGS:  # the first entry of known is no labeling
            raise NoConvergence(
                f"oracle bracket still open after the cap of {MAX_LABELINGS} labelings",
                last_value=as_shares(s_lo),
                residual=None if s_hi is None else distance(s_lo, s_hi) / total,
            )
        known.append(_label_counts(g, beta_mid, row, above_tau))
        return known[-1]

    def relabel(g: float) -> tuple[int, int]:
        """The labeling at ``g``, from the labelings already made when one of their intervals holds ``g``."""
        return next((state for state, start, end in known if start <= g < end), None) or label(g)[0]

    # Nobody tolls or pools at zero gap (every threshold is positive), and
    # that lasts until the largest beta midpoint reaches the first threshold:
    # the lower end needs no labeling.
    s_lo = (0, 0)
    first = _first_reaching(float(beta_mid[-1]), float(row[0]))
    known = [(s_lo, -math.inf, first)]  # the lower end's state, then every labeling made, with its interval
    lo, top = math.nextafter(first, -math.inf), gap_at(s_lo)
    if not top > 0.0:
        raise GapNonPositive(top)
    if top <= lo:
        return as_shares(s_lo), len(known) - 1
    f_lo = top - lo
    hi, f_hi, s_hi = math.inf, math.inf, None  # no upper end until a labeling has H < 0
    # The first labeling is at start, or at gap(everyone ordinary), where H <= 0.
    x = start if start is not None and first < start < top else top
    probe = x != top  # a search from start next probes the labeling across its interval's edge
    moved_lo = moved_hi = False  # ends the last step replaced
    while True:
        s_x, start_x, end_x = label(x)
        gap_x = gap_at(s_x)
        if start_x <= gap_x < end_x:
            return as_shares(s_x), len(known) - 1
        # Illinois: an end kept twice running has its stored value halved.
        if gap_x > x:  # H > 0 on the whole interval: the lower end takes its last float
            if moved_lo:
                f_hi *= 0.5
            lo, s_lo = math.nextafter(end_x, -math.inf), s_x
            f_lo = gap_x - lo
        else:  # H < 0 on the whole interval: the upper end takes its first float
            if moved_hi:
                f_lo *= 0.5
            hi, s_hi = start_x, s_x
            f_hi = gap_x - hi
        moved_lo = gap_x > x
        moved_hi = not moved_lo
        if math.nextafter(lo, math.inf) == hi:  # adjacent labelings: a straddle
            break
        if probe:
            x = math.nextafter(lo, math.inf) if moved_lo else math.nextafter(hi, -math.inf)
            probe = False
        elif s_hi is None:
            x = top
        else:
            x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            if not lo < x < hi:
                x = 0.5 * (lo + hi)

    residual, best = min((distance(s, relabel(gap_at(s))), s) for s in (s_lo, s_hi))
    if residual <= 2 * cfg.grid_n:  # 2/grid_n in count units
        return as_shares(best), len(known) - 1
    raise NoConvergence(
        f"oracle straddle: the nearest grid state relabels {residual} agents, "
        f"above the 2/grid_n floor of {2 * cfg.grid_n}",
        last_value=as_shares(best),
        residual=residual / total,
    )
