"""Population equilibrium: one root in the latency gap, solved in batches.

Against a latency gap ``g`` (ordinary minus HOT latency, minutes) the
closed-form region measures give the share of travelers best-responding
with each action, and those shares produce a latency gap of their own. An
equilibrium is a fixed point of that map, the root of

    F(g) = lane_gap(region_fractions(g)) - g.

The region measures grow with ``g`` and moving travelers onto the HOT lanes
closes the gap, so ``F`` falls strictly from ``F(0) = gap(everyone
ordinary) > 0`` and has exactly one root on ``[0, gap(everyone ordinary)]``.
:func:`solve_batch` brackets that root for every design point at once, in
elementwise numpy: each step is a secant step with the Anderson-Bjorck
weighting, and a point stops when its bracket reaches float resolution. A
wide bracket, ``hi > 4 * lo > 0``, is halved in its count of floats instead,
whatever its secant point. A secant point that would leave a narrow bracket
is replaced by the float next to the end it rounds onto, or by the float
halfway in count between the ends (see :func:`_gap_root`).

Nobody pays the toll at a gap below ``tau / beta_max``, where ``F`` is the
toll-free ``F``, that is ``F`` at ``tau = gamma_max``. So
:func:`solve_batch` solves each point's ``F`` at an effective toll:
``gamma_max``, unless the point has ``tau < gamma_max`` and ``F`` at its
toll floor, the float below ``tau / beta_max``, is positive or NaN. Then it
is the point's own ``tau``, and the bracket is ``[floor, gap(everyone
ordinary)]`` for ``F > 0`` (Regime B) and ``[0, gap(everyone ordinary)]``
for a NaN (the floor underflowed to 0). At ``gamma_max`` the root is
``g_A``, that of the toll-free ``F``: it does not depend on the toll, and a
point is in Regime B exactly when ``tau < tau_AB = min(gamma_max,
beta_max * g_A)``. The effective toll, ``rho`` and occupancy fix a point's
bracket and ``F``, so points equal in all three share one root wherever
they sit in the batch: one stable sort groups them. The effective toll
only decides which points share a root: every root is still the float
that halving alone reaches from ``[0, gap(everyone ordinary)]``, and the
shares, regime, residual and objectives come from each point's own root
and toll.

The batch is numpy columns end to end: the points come in as ``tau``,
``rho`` and ``occupancy`` arrays, checked against the parameter domain
once, and go out as one :class:`EquilibriumBatch` whose invariants are
checked once, vectorised; a failed point keeps its typed error by index.
The batch also carries the authority's two objectives as columns: the
demand-weighted average travel time ``avg_time = (toll + pool) *
hot_latency + ordinary * ordinary_latency`` (minutes, to minimize) and the
toll revenue ``revenue = demand * toll * tau`` ($/min, to maximize).
:func:`solve` is row 0 of a batch of one, from the same kernel without a
second check of its ``DesignParams``. There is no other solver.

The regime is read off the solution: B if a positive mass pays the toll,
A2 if ``beta_max * g > gamma_max`` (which forces ``tau > gamma_max``),
otherwise A1. A design on the boundary, where nobody pays at the root, is
Regime A. The residual reported is that of the regime's printed equation at
the solved shares, in share units:

* A1: ``(beta_max/(2*gamma_max)) * gap = pool``;
* A2: ``(gamma_max/(2*beta_max)) / gap = ordinary``;
* B: ``(1 - tau/(beta_max*gap)) * (gamma_max-tau)/gamma_max = toll``.

The paper's per-regime brackets and auxiliary functions are not a second
solver here: the tests keep them as references (``tests/paper_reference.py``)
and check them at the solved points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .errors import GapNonPositive, HotLaneError, NoConvergence, ValidationError, check
from .latency import BprParams, DesignParams, StrategyShares, _capacities, bpr_time, lane_flows, lane_gap, on_simplex
from .population import PopulationParams, _toll_levels, region_fractions

__all__ = [
    "RegimeLabel",
    "EquilibriumOutcome",
    "EquilibriumBatch",
    "solve",
    "solve_batch",
    "RESIDUAL_TOL",
    "MAX_BISECT",
]

RESIDUAL_TOL = 1e-10
# A guard against a bracket that never closes, not a derived bound. Halving the count of floats
# closes any bracket in at most 63 steps, and every wide bracket is halved so, but a narrow bracket
# (or one from 0) takes secant steps, and nothing bounds how little a secant step shrinks it. The
# most measured: 16 and 29 steps on the dense and congested benchmark grids, 67 on I-880 at tau=1
# over rho = logspace(-320, -1, 300), and 108 on twelve wide random calibrations.
MAX_BISECT = 2140


class RegimeLabel(enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B = "B"


_LABELS = tuple(RegimeLabel)  # the batch's regime codes index this


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Solved equilibrium of one design point: shares, diagnostics and objectives.

    One row of an :class:`EquilibriumBatch`, whose columns are these fields:
    ``tau``, ``rho`` and ``occupancy`` are the design point, which
    ``DesignParams(rho=o.rho, tau=o.tau, occupancy=o.occupancy)`` rebuilds
    from an outcome ``o``. ``gap`` is the ordinary-minus-HOT latency
    difference at the solved shares (minutes), ``flows`` the (ordinary, HOT)
    vehicle flows, ``residual`` the absolute fixed-point residual of the
    solved equation in its printed units, ``iterations`` the step count of
    the root of ``F`` at the point's effective toll (see :func:`solve_batch`),
    ``latencies`` the (ordinary, HOT) lane travel times in minutes at the
    solved flows, and ``avg_time`` (minutes) and ``revenue`` ($/min) the two
    objectives. :func:`_failures` states the invariants of a solved point.
    """

    tau: float
    rho: float
    occupancy: float
    shares: StrategyShares
    regime: RegimeLabel
    gap: float
    flows: tuple[float, float]
    residual: float
    iterations: int
    latencies: tuple[float, float]
    avg_time: float
    revenue: float


# ---------------------------------------------------------------------------
# Batched gap-space solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EquilibriumBatch:
    """Equilibria of many design points as numpy columns, in input order.

    The columns are the fields of :class:`EquilibriumOutcome`, in the same
    order and under the same names, and :meth:`outcome` reads a row back.
    ``shares`` is the ``(3, n)`` array of (toll, pool, ordinary) shares,
    ``flows`` and ``latencies`` are ``(2, n)`` arrays of (ordinary, HOT)
    values, and ``regime`` holds codes into ``tuple(RegimeLabel)`` (0 A1,
    1 A2, 2 B).
    ``errors`` maps the index of every point without a valid equilibrium to
    its typed error; the columns hold no meaningful value at those indices.
    """

    tau: np.ndarray
    rho: np.ndarray
    occupancy: np.ndarray
    shares: np.ndarray
    regime: np.ndarray
    gap: np.ndarray
    flows: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    latencies: np.ndarray
    avg_time: np.ndarray
    revenue: np.ndarray
    errors: dict[int, HotLaneError]

    def __len__(self) -> int:
        return self.tau.size

    @property
    def solved(self) -> np.ndarray:
        """Boolean mask of the points that have an equilibrium."""
        mask = np.ones(len(self), dtype=bool)
        mask[list(self.errors)] = False
        return mask

    def take(self, index):
        """The points at the numpy index ``index`` (a slice, mask or positions), errors renumbered."""
        positions = np.arange(len(self))[index].tolist() if self.errors else []
        errors = {new: self.errors[old] for new, old in enumerate(positions) if old in self.errors}
        columns = {name: value[..., index] for name, value in vars(self).items() if name != "errors"}
        return type(self)(**columns, errors=errors)

    def outcome(self, i: int) -> EquilibriumOutcome:
        """Point ``i`` as an :class:`EquilibriumOutcome`, each field read from the column of its name;
        raises the point's typed error if it failed."""
        i = range(len(self))[i]  # a negative index names the same point as its error key
        if i in self.errors:
            raise self.errors[i]
        row = {name: getattr(self, name)[..., i].tolist() for name in _OUTCOME_COLUMNS}
        row.update(
            shares=StrategyShares(*row["shares"]),
            regime=_LABELS[row["regime"]],
            flows=tuple(row["flows"]),
            latencies=tuple(row["latencies"]),
        )
        return EquilibriumOutcome(**row)


_OUTCOME_COLUMNS = tuple(f.name for f in fields(EquilibriumOutcome))  # the batch's columns, in order


def _check_designs(tau, rho, occupancy) -> list[np.ndarray]:
    """The design points as equal-length float arrays, checked once against the
    :class:`DesignParams` domain; the first bad index of a column raises ``ValidationError``."""
    try:
        columns = [np.asarray(x, dtype=float).ravel() for x in (tau, rho, occupancy)]
        shape = np.broadcast(*columns).shape
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"tau, rho and occupancy must be numbers that broadcast to one length: {exc}") from None
    tau, rho, occupancy = (x if x.shape == shape else np.full(shape, x) for x in columns)
    check(rho=rho, tau=tau, occupancy=occupancy)
    return [tau, rho, occupancy]


def _excess(g, pop: PopulationParams, bpr: BprParams, tau, cap, toll_height, occupancy, *capacities):
    """``F(g)`` at a positive gap, elementwise over the design points' constants (see :func:`_gap_root`)."""
    return lane_gap(region_fractions(g, (tau, cap, toll_height), pop), pop.demand, occupancy, capacities, bpr) - g


def _gap_root(lo, hi, f_lo, pop: PopulationParams, bpr: BprParams, points: list[np.ndarray]):
    """Root of ``F`` on the bracket ``[lo, hi]`` of each point, and its step count.

    ``points`` are the points' constants of ``F``, computed once per batch: the
    three ``_toll_levels``, occupancy and the two ``_capacities``. ``F(lo) > 0`` is
    passed in because ``F`` cannot be evaluated at a zero gap, and
    ``F(hi) < 0`` must hold. A root is NaN where the bracket is still open
    after ``MAX_BISECT`` steps.

    Each step evaluates ``F`` at one trial point per point. In a wide bracket,
    ``hi > 4 * lo > 0``, it is the midpoint of the ends' IEEE-754 bit
    patterns, which order like the floats as both ends are non-negative:
    halving the count of floats between the ends closes any bracket in at
    most 63 steps, where a secant point in a bracket many binades wide can
    creep up from ``lo`` (781 steps on I-880 at ``tau=1``, ``rho=9.6e-82``;
    22 with this rule). In a narrow bracket, ``hi <= 4 * lo`` or ``lo == 0``,
    it is the secant point when that lies strictly inside the bracket. When
    it lands on or past an end instead, that end is usually within a few
    floats of the root, and every later secant point would round onto it
    too. So if the secant point is finite, the trial point is the float next
    to that end, toward the other end: a one-float step, never two in a row.
    Otherwise it is the bit-pattern midpoint. The factor 4 is not tuned:
    with 2, 4 and 16, the total steps on the dense and congested benchmark
    grids lay within 3% of each other, and every root was the same.

    The secant points carry the Anderson-Bjorck weighting: an end kept twice
    running has its stored ``F`` scaled by ``m = 1 - F(x) / F(replaced end)``,
    or halved where ``m`` is not positive (the Illinois rule halves it
    always). ``m`` is computed only on a step where some end was kept twice;
    on any other step the scaling would change nothing. A point stops when
    the midpoint of its bracket equals an end, and that midpoint is its root:
    the same float that halving alone reaches, so the step rule moves only
    the step count. The loop ends on the step that stops the last open
    point, and drops the stopped points from its working arrays only while
    some stay open.

    The arguments are left unchanged: the bracket arrays are copied, and the
    working arrays are rebuilt, not written into, when points stop.
    """
    root = np.full(lo.shape, np.nan)
    iterations = np.zeros(lo.shape, dtype=int)
    # Working arrays hold the points still open; ``index`` maps them back. The
    # bracket arrays are this function's own copies, updated in place each step.
    index = np.arange(lo.size)
    lo, hi, f_lo = (np.array(a, dtype=float) for a in (lo, hi, f_lo))
    f_hi = _excess(hi, pop, bpr, *points)
    moved_lo = moved_hi = np.zeros(lo.size, dtype=bool)  # ends the last step replaced
    may_nudge = np.ones(lo.size, dtype=bool)  # points whose last step was not a one-float step
    for step in range(1, MAX_BISECT + 1):
        if not index.size:
            break
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        inside = (lo < x) & (x < hi)
        narrow = (hi <= 4.0 * lo) | (lo == 0.0)  # a wide bracket, hi > 4 * lo > 0, takes no secant point
        secant = inside & narrow
        # np.count_nonzero is the cheapest all/any test on a few points.
        if np.count_nonzero(secant) == secant.size:
            may_nudge = secant  # all True: no point takes a one-float step
        else:
            # A finite secant point on or past an end of a narrow bracket: that end sits next to the
            # root, so step one float off it; any other point halves the count of floats between the ends.
            nudge = ~inside & narrow & may_nudge & np.isfinite(x)
            may_nudge = ~nudge
            bits = lo.view(np.int64)  # both ends are non-negative, so their bits order like them
            halved = (bits + (hi.view(np.int64) - bits) // 2).view(float)
            if np.count_nonzero(nudge):
                np.putmask(halved, nudge, np.nextafter(np.clip(x, lo, hi), halved))
            np.putmask(halved, secant, x)
            x = halved
        fx = _excess(x, pop, bpr, *points)
        # F(x) == 0 replaces both ends, closing the bracket on the root.
        to_lo, to_hi = fx >= 0.0, fx <= 0.0
        # Anderson-Bjorck: an end kept twice running has its stored value scaled by
        # m = 1 - F(x) / F(replaced end), or halved where m is not positive.
        kept_hi, kept_lo = to_lo & moved_lo, to_hi & moved_hi
        if np.count_nonzero(kept_hi | kept_lo):
            m = 1.0 - fx / np.where(to_lo, f_lo, f_hi)
            m = np.where(m > 0.0, m, 0.5)
            np.putmask(f_hi, kept_hi, m * f_hi)
            np.putmask(f_lo, kept_lo, m * f_lo)
        np.putmask(lo, to_lo, x)
        np.putmask(f_lo, to_lo, fx)
        np.putmask(hi, to_hi, x)
        np.putmask(f_hi, to_hi, fx)
        moved_lo, moved_hi = to_lo, to_hi
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        closed = np.count_nonzero(done)
        if closed:
            root[index[done]] = mid[done]
            iterations[index[done]] = step
            if closed == done.size:
                break
            keep = ~done
            index, lo, hi, f_lo, f_hi, moved_lo, moved_hi, may_nudge = (
                a[keep] for a in (index, lo, hi, f_lo, f_hi, moved_lo, moved_hi, may_nudge)
            )
            points = [a[keep] for a in points]
    return root, iterations


def _failures(top, root, shares, regime, residual, avg_time, revenue) -> dict[int, HotLaneError]:
    """The typed error of every point without a valid equilibrium, by index.

    The one definition of the outcome invariants, checked at all points at
    once: one tuple of ``(mask of the points that pass, error of index)``
    checks in order of precedence, and a point gets the error of the first
    check it fails. A
    valid equilibrium has a positive all-ordinary gap, a root, a printed
    residual of at most ``RESIDUAL_TOL``, shares on the simplex
    (:func:`on_simplex`) with positive pool and ordinary shares, and finite
    objectives ``avg_time`` and ``revenue``: an overflowed lane latency makes
    the gap infinite, and the printed residual of such a gap can still be small.
    """
    toll, pool, ordinary = shares
    # A root is NaN, so not >= 0, while its bracket is still open.
    checks = (
        (top > 0.0, lambda i: GapNonPositive(top[i])),
        (root >= 0.0, lambda i: NoConvergence(f"the gap bracket is still open after {MAX_BISECT} steps")),
        (residual <= RESIDUAL_TOL, lambda i: NoConvergence(
            f"fixed-point residual {residual[i]} exceeds {RESIDUAL_TOL}",
            last_value=tuple(shares[:, i].tolist()),
            residual=residual[i].item(),
        )),
        (on_simplex(toll, pool, ordinary) & (pool > 0.0) & (ordinary > 0.0), lambda i: ValidationError(
            f"equilibrium shares {tuple(shares[:, i].tolist())} are not valid in regime {_LABELS[regime[i]].value}"
        )),
        (np.isfinite(avg_time) & np.isfinite(revenue), lambda i: ValidationError(
            f"objectives (avg_time, revenue) {avg_time[i].item(), revenue[i].item()} are not finite: a value overflowed"
        )),
    )
    held = np.array([mask for mask, _ in checks])
    if np.count_nonzero(held) == held.size:
        return {}
    first = held.argmin(axis=0).tolist()  # each point's first failed check
    return {i: checks[first[i]][1](i) for i in (~held.all(axis=0)).nonzero()[0].tolist()}


def solve_batch(tau, rho, occupancy, pop: PopulationParams, bpr: BprParams) -> EquilibriumBatch:
    """Equilibria of many design points at once, as numpy columns in input order.

    ``tau``, ``rho`` and ``occupancy`` are array-likes that broadcast to one
    length (a scalar occupancy serves every point); a point outside the
    :class:`DesignParams` domain raises ``ValidationError``. A point that
    cannot be solved gets its typed error in ``errors`` (``GapNonPositive``
    when the all-ordinary gap is not a positive float, ``NoConvergence`` when
    the bracket is still open after ``MAX_BISECT`` steps or the printed
    residual exceeds ``RESIDUAL_TOL``), so one bad point never aborts the
    batch.

    All roots are found in one :func:`_gap_root` call, each that of ``F`` at
    the point's effective toll: its own ``tau`` where ``tau < gamma_max`` and
    ``F`` at its toll floor is positive (Regime B, solved from the floor) or
    NaN, and ``gamma_max`` everywhere else (see the module docstring). Points
    with equal effective toll, ``rho`` and occupancy are solved once wherever
    they sit in the batch, and each of them takes that root and step count:
    the dense benchmark grid solves 555 roots for its 5,000 points in
    rho-major, tau-major or shuffled order. So a point's result, its step
    count included, depends only on that point, never on the rest of the
    batch or its order.
    """
    return _solve_columns(*_check_designs(tau, rho, occupancy), pop, bpr)


def _solve_columns(tau, rho, occupancy, pop: PopulationParams, bpr: BprParams) -> EquilibriumBatch:
    """The kernel of :func:`solve_batch` and :func:`solve`: equal-length float columns already checked."""
    # Extreme but valid points overflow or divide by zero on the way to a NaN or
    # infinite column; _failures turns those into typed errors, so numpy stays quiet.
    with np.errstate(all="ignore"):
        levels, capacities = _toll_levels(tau, pop), _capacities(rho, bpr)
        points = [*levels, occupancy, *capacities]

        # The bracket ends: 0 and F(0), the gap with everyone on the ordinary lanes.
        lo = np.zeros(tau.shape)
        top = lane_gap((lo, lo, 1.0), pop.demand, occupancy, capacities, bpr)
        # Each point's root is that of F at its effective toll, root_tau. Nobody pays the toll at a gap
        # below tau / beta_max, where F is the toll-free F (F at tau = gamma_max), so root_tau is gamma_max
        # unless the floor test keeps the point's own tau. The floor is the float below that quotient,
        # which may round up to a gap where a few pay. F > 0 at the floor puts the root above it, in
        # Regime B, bracketed by [floor, top]; a NaN there (the floor underflowed to 0) leaves the bracket
        # [0, top]. F is not evaluated at a floor at or above top: [0, top] then lies wholly below the floor.
        # f_floor holds F at the floor of the points the test applies to, and -1 at every other point,
        # which leaves it gamma_max and [0, top]. With no point tested, the bracket ends stay [0, top] as built.
        floor = np.nextafter(tau / pop.beta_max, 0.0)
        tested = ((floor < top) & (tau < pop.gamma_max)).nonzero()[0]
        f_lo, f_floor = top, np.full(tau.shape, -1.0)
        if tested.size:
            f_floor[tested] = _excess(floor[tested], pop, bpr, *(a[tested] for a in points))
            above = f_floor > 0.0
            lo, f_lo = np.where(above, floor, lo), np.where(above, f_floor, top)
        root_tau = np.where(f_floor <= 0.0, pop.gamma_max, tau)
        # (root_tau, rho, occupancy) fix a point's bracket and F, so the open points equal in all three
        # share one root wherever they sit in the batch. A stable sort on the three puts equal points
        # next to each other; each first of its key is solved, and group holds every open point's index
        # among those firsts. The two size tests skip work that would change nothing, a fixed cost for
        # a batch of one.
        opened = (top > 0.0).nonzero()[0]
        heads, group = opened, np.zeros(opened.size, dtype=int)
        if opened.size > 1:
            order = np.lexsort((occupancy[opened], rho[opened], root_tau[opened]))
            keys = np.array([root_tau, rho, occupancy]).take(opened[order], axis=1)
            first = np.ones(opened.size, dtype=bool)
            first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
            group[order] = np.cumsum(first) - 1
            heads = opened[order[first]]
        root_points = [*_toll_levels(root_tau[heads], pop), *(a[heads] for a in (occupancy, *capacities))]
        root, iterations = np.full(tau.shape, np.nan), np.zeros(tau.shape, dtype=int)
        solved = _gap_root(lo[heads], top[heads], f_lo[heads], pop, bpr, root_points)
        root[opened], iterations[opened] = (a[group] for a in solved)

        shares = np.array(region_fractions(np.where(root > 0.0, root, 1.0), levels, pop))
        toll, pool, ordinary = shares
        flows = np.array(lane_flows(toll, pool, ordinary, pop.demand, occupancy))
        latencies = bpr_time(flows, np.array(capacities), bpr)
        gap = lane_gap(shares, pop.demand, occupancy, capacities, bpr)
        paid, a2 = toll > 0.0, pop.beta_max * root > pop.gamma_max
        regime = np.where(paid, 2, a2)  # codes into _LABELS: B (2), else A2 (True, 1) or A1 (False, 0)
        a1_printed = 0.5 * pop.beta_max / pop.gamma_max * gap - pool
        a2_printed = 0.5 * pop.gamma_max / pop.beta_max / gap - ordinary
        b_printed = (1.0 - tau / (pop.beta_max * gap)) * (pop.gamma_max - tau) / pop.gamma_max - toll
        residual = np.abs(np.where(paid, b_printed, np.where(a2, a2_printed, a1_printed)))
        avg_time = (toll + pool) * latencies[1] + ordinary * latencies[0]
        revenue = pop.demand * toll * tau
        errors = _failures(top, root, shares, regime, residual, avg_time, revenue)
    return EquilibriumBatch(
        tau, rho, occupancy, shares, regime, gap, flows, residual, iterations, latencies, avg_time, revenue, errors
    )


def solve(design: DesignParams, pop: PopulationParams, bpr: BprParams) -> EquilibriumOutcome:
    """Equilibrium of one design point: row 0 of :func:`solve_batch`'s kernel on a batch of one.

    ``design`` was checked when it was built, so it is not checked again.
    Raises the point's typed error instead of returning it.
    """
    columns = (np.array([x], dtype=float) for x in (design.tau, design.rho, design.occupancy))
    return _solve_columns(*columns, pop, bpr).outcome(0)
