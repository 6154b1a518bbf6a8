"""Output checks on the CSVs a workload pass wrote.

Structural defects (wrong header, a missing or extra row, a row for the
wrong design point, an unparseable number, a Pareto row that is not a sweep
row, a front that keeps a dominated point) raise ``OutputError`` and make
the run incorrect. Solver defects the program reports or hides (``ERROR``
rows, shares that differ from the reference) are counted, not raised.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

SWEEP_HEADER = (
    "tau,rho,regime,sigma_toll,sigma_pool,sigma_o,c_delta,latency_hot,latency_ordinary,avg_time,revenue,residual"
)
STATICS_HEADER = "rho,regime,sigma_toll,sigma_pool,sigma_o,c_delta"
REGIMES = ("A1", "A2", "B")
DIRECTIONS = ("non-decreasing", "non-increasing", "neither")
WRONG_TOL = 1e-6  # max-norm share distance from the reference that counts as a wrong answer
# Relative slack for comparisons of values printed with 12 significant digits.
PRINT_TOL = 1e-10


class OutputError(Exception):
    """A CSV the program wrote is malformed or inconsistent."""


def fmt(value: float) -> str:
    return format(value, ".12g")


def _lines(path: str | Path) -> list[str]:
    text = Path(path).read_text()
    if not text.endswith("\n"):
        raise OutputError(f"{Path(path).name}: missing final newline")
    return text[:-1].split("\n")


def _floats(cells: list[str], where: str) -> list[float]:
    try:
        values = [float(cell) for cell in cells]
    except ValueError:
        raise OutputError(f"{where}: unparseable number in {cells}") from None
    if not all(math.isfinite(v) for v in values):
        raise OutputError(f"{where}: non-finite number in {cells}")
    return values


def check_sweep(path, grid: list[tuple[float, float]], reference: np.ndarray) -> dict:
    """One row per grid point in grid order; counts ERROR rows and wrong shares."""
    lines = _lines(path)
    if lines[0] != SWEEP_HEADER:
        raise OutputError(f"sweep: header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(grid):
        raise OutputError(f"sweep: {len(rows)} rows for {len(grid)} design points")
    errors, wrong, worst = 0, 0, 0.0
    regimes = dict.fromkeys(REGIMES + ("ERROR",), 0)
    values: list[list[float] | None] = []
    for i, (cells, (rho, tau)) in enumerate(zip(rows, grid)):
        where = f"sweep row {i + 1}"
        if len(cells) != 12 or cells[0] != fmt(tau) or cells[1] != fmt(rho):
            raise OutputError(f"{where}: expected tau={fmt(tau)}, rho={fmt(rho)}, got {cells}")
        if cells[2] == "ERROR":
            if any(cells[3:]):
                raise OutputError(f"{where}: ERROR row with values {cells}")
            errors += 1
            regimes["ERROR"] += 1
            values.append(None)
            continue
        if cells[2] not in REGIMES:
            raise OutputError(f"{where}: unknown regime {cells[2]!r}")
        regimes[cells[2]] += 1
        numbers = _floats(cells[3:], where)
        distance = float(np.max(np.abs(np.array(numbers[:3]) - reference[i])))
        worst = max(worst, distance)
        wrong += distance > WRONG_TOL
        values.append(numbers)
    return {"rows": rows, "values": values, "errors": errors, "wrong": wrong, "regimes": regimes, "worst": worst}


def _check_front(front: list[int], subset: list[int], objectives: np.ndarray, where: str) -> None:
    """``front`` (row indices) is the non-dominated part of ``subset`` under
    (minimise avg_time, maximise revenue), up to print rounding."""
    if len(set(front)) != len(front) or not set(front) <= set(subset):
        raise OutputError(f"{where}: front rows are repeated or outside the solved grid points")
    t, r = objectives[front, 0], objectives[front, 1]
    slack_t, slack_r = PRINT_TOL * (1 + np.abs(t)), PRINT_TOL * (1 + np.abs(r))
    if np.any(np.diff(t) < -slack_t[1:]) or np.any(np.diff(r) < -slack_r[1:]):
        raise OutputError(f"{where}: front is not sorted by avg_time and revenue")
    all_t, all_r = objectives[subset, 0], objectives[subset, 1]
    # No front point is strictly dominated beyond rounding ...
    for ft, fr, st, sr in zip(t, r, slack_t, slack_r):
        if np.any((all_t < ft - st) & (all_r > fr + sr)):
            raise OutputError(f"{where}: a front point is dominated")
    # ... and every other point is weakly dominated by a front point.
    off = np.setdiff1d(subset, front)
    if off.size:
        ot, orv = objectives[off, 0][:, None], objectives[off, 1][:, None]
        covered = (t[None, :] <= ot + PRINT_TOL * (1 + np.abs(ot))) & (r[None, :] >= orv - PRINT_TOL * (1 + np.abs(orv)))
        if not covered.any(axis=1).all():
            raise OutputError(f"{where}: a point missing from the front is not dominated")


def check_pareto(path, sweep: dict, rho_values: tuple[float, ...]) -> None:
    """Every row repeats a solved sweep row; the global and per-rho fronts are right."""
    lines = _lines(path)
    if lines[0] != SWEEP_HEADER + ",front_id":
        raise OutputError(f"pareto: header {lines[0]!r}")
    index = {tuple(cells[:2]): i for i, cells in enumerate(sweep["rows"])}
    solved = [i for i, v in enumerate(sweep["values"]) if v is not None]
    objectives = np.array([v[6:8] if v is not None else [np.nan, np.nan] for v in sweep["values"]])
    fronts: dict[str, list[int]] = {}
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        i = index.get(tuple(cells[:2]))
        if i is None or cells[:-1] != sweep["rows"][i] or sweep["values"][i] is None:
            raise OutputError(f"pareto line {n}: not a solved sweep row: {line!r}")
        fronts.setdefault(cells[-1], []).append(i)
    expected = ["global"] + [f"rho={fmt(rho)}" for rho in rho_values]
    if list(fronts) != [f for f in expected if f in fronts] or "global" not in fronts:
        raise OutputError(f"pareto: front ids {list(fronts)}")
    _check_front(fronts["global"], solved, objectives, "pareto global")
    for rho in rho_values:
        subset = [i for i in solved if sweep["rows"][i][1] == fmt(rho)]
        front = fronts.get(f"rho={fmt(rho)}", [])
        if bool(subset) != bool(front):
            raise OutputError(f"pareto: front rho={fmt(rho)} missing or unexpected")
        if subset:
            _check_front(front, subset, objectives, f"pareto rho={fmt(rho)}")


def _direction(values: list[float]) -> set[str]:
    found = {"neither"}
    if all(b >= a for a, b in zip(values, values[1:])):
        found.add("non-decreasing")
    if all(b <= a for a, b in zip(values, values[1:])):
        found.add("non-increasing")
    return found


def check_statics(path, rho_values: tuple[float, ...]) -> None:
    """One row per rho in config order, then four monotonicity flags that the
    printed columns do not contradict (rounding keeps a monotone column monotone)."""
    lines = _lines(path)
    if lines[0] != STATICS_HEADER:
        raise OutputError(f"statics: header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1 : 1 + len(rho_values)]]
    flags = lines[1 + len(rho_values) :]
    columns: list[list[float]] = [[], [], [], []]
    for rho, cells in zip(rho_values, rows):
        if len(cells) != 6 or cells[0] != fmt(rho):
            raise OutputError(f"statics: expected a row for rho={fmt(rho)}, got {cells}")
        if cells[1] == "ERROR":
            if any(cells[2:]):
                raise OutputError(f"statics: ERROR row with values {cells}")
            continue
        if cells[1] not in REGIMES:
            raise OutputError(f"statics: unknown regime {cells[1]!r}")
        for column, value in zip(columns, _floats(cells[2:], f"statics rho={cells[0]}")):
            column.append(value)
    names = ("sigma_toll", "sigma_pool", "sigma_o", "c_delta")
    if len(rows) != len(rho_values) or len(flags) != len(names):
        raise OutputError(f"statics: {len(lines) - 1} lines for {len(rho_values)} rho values and 4 flags")
    for name, column, line in zip(names, columns, flags):
        prefix, _, flag = line.rpartition(",")
        if prefix != f"# monotonicity,{name}" or flag not in DIRECTIONS:
            raise OutputError(f"statics: bad monotonicity line {line!r}")
        if flag not in _direction(column):
            raise OutputError(f"statics: {name} flagged {flag} but the printed column is not")
