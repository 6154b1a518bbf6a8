"""Command-line interface: config handling, reports, CSV emission.

Configs are flat ``key = value`` text with ``#`` comments and dotted section
prefixes, such as ``population.demand = 115.0`` or ``rho_values = 0.25, 0.5``;
the keys are the :class:`RunConfig` fields, and ``--dump-config`` prints a
complete config. Monetary values are dollars, times are minutes. All CSV
floats are written with 12 significant digits, so repeated runs produce
byte-identical files.
"""

import argparse
import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import comparative_statics_scan, pareto_front
from .equilibrium import EquilibriumBatch, RegimeLabel, solve, solve_batch
from .errors import HotLaneError, NoConvergence, ParseError, ValidationError, as_rho_values, check_fields
from .latency import BprParams, DesignParams
from .oracle import OracleConfig, _solve_tolerance, oracle_equilibrium
from .population import PopulationParams

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config_text",
    "dump_config",
    "i880_config",
    "cmd_equilibrium",
    "cmd_verify",
    "cmd_sweep",
    "cmd_pareto",
    "cmd_statics",
    "main",
]

# The sweep CSV columns in order, one row each: the column name (also its key in the equilibrium
# JSON report), its label in the text report (None for tau and rho, which it does not print) and
# its values in a batch (the regime as codes into ``_REGIME_CELLS``).
_LAYOUT = (
    ("tau", None, lambda table: table.tau),
    ("rho", None, lambda table: table.rho),
    ("regime", "regime", lambda table: table.regime),
    ("sigma_toll", "toll share", lambda table: table.shares[0]),
    ("sigma_pool", "pool share", lambda table: table.shares[1]),
    ("sigma_o", "ordinary share", lambda table: table.shares[2]),
    ("c_delta", "c_delta (min)", lambda table: table.gap),
    ("latency_hot", "latency_hot (min)", lambda table: table.latencies[1]),
    ("latency_ordinary", "latency_ordinary (min)", lambda table: table.latencies[0]),
    ("avg_time", "avg_time (min)", lambda table: table.avg_time),
    ("revenue", "revenue ($/min)", lambda table: table.revenue),
    ("residual", "residual", lambda table: table.residual),
)
SWEEP_COLUMNS = tuple(column for column, _, _ in _LAYOUT)
# The two formats of a row's tail (its cells after tau), each taking the tail's cells as one tuple;
# a failed point keeps rho, then "ERROR" and blanks. "%.12g" % x is format(x, ".12g") for every float.
_ROW_FORMAT = ",".join("%s" if column == "regime" else "%.12g" for column in SWEEP_COLUMNS[1:]).__mod__
_ERROR_FORMAT = ("%.12g,ERROR" + "," * (len(SWEEP_COLUMNS) - 3)).__mod__
_REGIME_CELLS = tuple(label.value for label in RegimeLabel)
# A statics row is a slice of the sweep row.
_STATICS_CELLS = slice(1, 7)
STATICS_COLUMNS = SWEEP_COLUMNS[_STATICS_CELLS]


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration: the model and the design grid.

    The oracle's grid is not part of it; ``verify --grid-n`` sets that per run.
    """

    population: PopulationParams
    bpr: BprParams
    occupancy: float
    rho_values: tuple[float, ...]
    tau_min: float
    tau_max: float
    tau_step: float

    def __post_init__(self):
        # Kept as a tuple of floats, so the frozen config hashes and cannot change after this check.
        object.__setattr__(self, "rho_values", as_rho_values(self.rho_values))
        check_fields(self)
        if not self.tau_min <= self.tau_max:
            raise ValidationError(f"tau_min must be <= tau_max, got {self.tau_min} > {self.tau_max}")
        if not self._tau_steps() < np.iinfo(np.intp).max:
            raise ValidationError(f"tau_step {self.tau_step} gives too many tolls from tau_min to tau_max")

    def _tau_steps(self) -> float:
        """Steps from tau_min to tau_max, padded so that a step landing on tau_max counts."""
        return (self.tau_max - self.tau_min) / self.tau_step + 1e-9

    def design_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tau, rho, occupancy) arrays of the grid, rho outer ascending, tau inner ascending."""
        tau = self.tau_min + np.arange(int(self._tau_steps()) + 1, dtype=float) * self.tau_step
        rho = np.array(self.rho_values)
        return np.tile(tau, rho.size), np.repeat(rho, tau.size), np.full(rho.size * tau.size, self.occupancy)


def i880_config() -> RunConfig:
    """Built-in calibration for the I-880 study segment."""
    return RunConfig(
        population=PopulationParams(demand=115.0, beta_max=1.5, gamma_max=8.0),
        bpr=BprParams(a=0.15, b=4.0, t_free=22.0, v_cap=140.0),
        occupancy=2.5,
        rho_values=(0.25, 0.5, 0.75),
        tau_min=0.5,
        tau_max=10.0,
        tau_step=0.5,
    )


def _schema(cls: type = RunConfig, prefix: tuple[str, ...] = ()):
    """(attribute path, type) of every config key, in file order.

    Read off the dataclass fields: a nested dataclass becomes a dotted section.
    Every key is required. ``field.type`` must be the type itself, not its
    name, so the modules defining the config dataclasses must not postpone
    the evaluation of annotations.
    """
    for field in dataclasses.fields(cls):
        path = (*prefix, field.name)
        if dataclasses.is_dataclass(field.type):
            yield from _schema(field.type, path)
        else:
            yield path, field.type


_KEYS = {".".join(path): kind for path, kind in _schema()}


def _build(cls: type, values):
    """Instance of the config dataclass ``cls``, its keys' values taken from the iterator ``values`` in
    ``_KEYS`` order: the order ``_schema`` walks the fields in, a nested dataclass's keys in its place."""
    return cls(**{
        field.name: _build(field.type, values) if dataclasses.is_dataclass(field.type) else next(values)
        for field in dataclasses.fields(cls)
    })


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate configuration text in the key=value format."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        kind = _KEYS[key]
        try:
            if typing.get_origin(kind) is tuple:
                raw[key] = tuple(float(item) for item in value.split(","))
            else:
                raw[key] = kind(value)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from None

    missing = sorted(_KEYS.keys() - raw.keys())
    if missing:
        raise ValidationError(f"missing required config keys: {', '.join(missing)}")
    return _build(RunConfig, map(raw.__getitem__, _KEYS))


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def dump_config(config: RunConfig) -> str:
    """Serialize a config so that parsing the output reproduces it exactly."""
    lines = []
    for key, kind in _KEYS.items():
        value = functools.reduce(getattr, key.split("."), config)
        # Every number as a Python float, in the form that parsing reads for the key's kind, so a numpy
        # scalar or a list in the config dumps as the floats that parse back to it.
        text = ", ".join(repr(float(x)) for x in value) if typing.get_origin(kind) is tuple else repr(float(value))
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _bits(column: np.ndarray) -> np.ndarray:
    """The column as same-width ints: equal exactly when bit-identical, so -0.0 and 0.0 differ."""
    return column.view(f"i{column.itemsize}")


def _tails(tail: list[np.ndarray], failed: np.ndarray, first: np.ndarray) -> list[str]:
    """The formatted tails of the rows at the positions ``first``."""
    cells = [column[first].tolist() for column in tail]
    cells[1] = [_REGIME_CELLS[code] for code in cells[1]]
    rows = zip(failed[first].tolist(), zip(*cells))
    return [_ERROR_FORMAT(row[0]) if bad else _ROW_FORMAT(row) for bad, row in rows]


# Rows per CSV chunk. The writer formats and writes one chunk at a time, so the text it holds is one
# chunk's, about 200 bytes a row, whatever the grid: far below the solver's working arrays on a
# 5,000-point grid. A chunk's fixed cost, a few numpy calls and one write, is small against
# formatting this many rows; on those grids chunks of 512 to 2,048 rows wrote as fast as one chunk.
_CHUNK_ROWS = 1024


def _chunks(table: EquilibriumBatch, ends: list[str], end_of_row: np.ndarray | None = None):
    """The table's CSV rows in chunks of at most ``_CHUNK_ROWS`` rows, each chunk one string. A row is
    its tau cell, its tail (the other cells) and its end, ``ends[0]`` or, given ``end_of_row``,
    ``ends[end_of_row[i]]``. Floats have 12 significant digits, and a failed point is tau, rho,
    ``ERROR`` and blank cells. No cell holds a comma, so ``split(",")`` gives the cells back.

    Each bit-distinct tau is formatted once per table. A row whose tail cells equal the row before's,
    bit for bit, reuses its formatted tail, so each run of equal tails is formatted once; a failed row
    formats its own, and the row after it and the first row of each chunk start a new run.
    """
    tau, *tail = (values(table) for _, _, values in _LAYOUT)
    failed = ~table.solved
    new = failed | np.r_[True, failed[:-1]]
    for bits in map(_bits, tail):
        new[1:] |= bits[1:] != bits[:-1]
    new[::_CHUNK_ROWS] = True
    distinct, which = np.unique(_bits(tau), return_inverse=True)
    heads = ["%.12g," % t for t in distinct.view(tau.dtype).tolist()]
    for start in range(0, len(table), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        runs = new[rows]
        tails = _tails(tail, failed, start + np.flatnonzero(runs))
        parts = [""] * (3 * runs.size)
        parts[::3] = map(heads.__getitem__, which[rows].tolist())
        parts[1::3] = map(tails.__getitem__, (np.cumsum(runs) - 1).tolist())
        parts[2::3] = ends * runs.size if end_of_row is None else map(ends.__getitem__, end_of_row[rows].tolist())
        yield "".join(parts)


def _write_csv(out_path: str | Path, header: str, *parts) -> None:
    """Write ``header`` and then every text chunk of each iterable of ``parts``. A write that fails
    removes the partial file before the error propagates."""
    path = Path(out_path)
    out = path.open("w")
    try:
        with out:
            out.write(header)
            for part in parts:
                out.writelines(part)
    except BaseException:
        # Only a file of this name: a symlink such as /dev/stdout, or a device, stays.
        if not path.is_symlink() and path.is_file():
            path.unlink()
        raise


def cmd_equilibrium(config: RunConfig, tau: float, rho: float, json_output: bool = False) -> int:
    """Solve one design point and print its equilibrium report."""
    table = solve_batch([tau], [rho], [config.occupancy], config.population, config.bpr)
    outcome = table.outcome(0)  # raises the point's typed error
    if json_output:
        report = {column: values(table)[0].item() for column, _, values in _LAYOUT}
        print(json.dumps({**report, "regime": outcome.regime.value, "iterations": outcome.iterations}, sort_keys=True))
        return 0
    for (_, label, _), cell in zip(_LAYOUT, next(_chunks(table, [""])).split(",")):
        if label is not None:
            print(f"{label}: {cell}")
    print(f"iterations: {outcome.iterations}")
    return 0


def cmd_verify(config: RunConfig, tau: float, rho: float, grid_n: int = OracleConfig.grid_n) -> int:
    """Compare the analytic equilibrium against the brute-force oracle at ``grid_n`` agents per axis."""
    design = DesignParams(rho=rho, tau=tau, occupancy=config.occupancy)
    oracle_cfg = OracleConfig(grid_n)
    solved = solve(design, config.population, config.bpr)
    try:
        # The oracle's state does not depend on where its search starts; the solved gap is near it.
        oracle_shares, iterations = oracle_equilibrium(
            design, config.population, config.bpr, oracle_cfg, start=solved.gap
        )
    except NoConvergence as exc:
        print(f"oracle failed to converge: {exc}", file=sys.stderr)
        return 2
    solver, oracle = solved.shares.as_tuple(), oracle_shares.as_tuple()
    distance = max(abs(a - b) for a, b in zip(solver, oracle))
    tolerance = _solve_tolerance(oracle_cfg.grid_n)
    print("solver: (%.12g, %.12g, %.12g)" % solver)
    print("oracle: (%.12g, %.12g, %.12g)  [grid_n=%s, iterations=%s]" % (*oracle, oracle_cfg.grid_n, iterations))
    print("max-norm distance: %.12g (tolerance %.12g)" % (distance, tolerance))
    if distance <= tolerance:
        return 0
    print("distance exceeds tolerance", file=sys.stderr)
    return 1


def cmd_sweep(config: RunConfig, out_path: str | Path) -> int:
    """Evaluate the whole design grid and write one CSV row per point."""
    table = solve_batch(*config.design_grid(), config.population, config.bpr)
    _write_csv(out_path, ",".join(SWEEP_COLUMNS) + "\n", _chunks(table, ["\n"]))
    return int(bool(table.errors))


def cmd_pareto(config: RunConfig, out_path: str | Path, per_rho: bool = False) -> int:
    """Write the Pareto front of the sweep; optionally one front per rho."""
    table = solve_batch(*config.design_grid(), config.population, config.bpr)
    parts = [_chunks(table.take(pareto_front(table)), [",global\n"])]
    if per_rho:
        which = np.searchsorted(config.rho_values, table.rho)  # each row's index in rho_values
        front = pareto_front(table, which)
        parts.append(_chunks(table.take(front), [",rho=%.12g\n" % rho for rho in config.rho_values], which[front]))
    _write_csv(out_path, ",".join(SWEEP_COLUMNS) + ",front_id\n", *parts)
    return int(bool(table.errors))


def cmd_statics(config: RunConfig, tau: float, out_path: str | Path) -> int:
    """Scan the config's rho grid at a fixed toll and report directions."""
    rows, flags = comparative_statics_scan(
        tau, list(config.rho_values), config.occupancy, config.population, config.bpr
    )
    cells = (line.split(",")[_STATICS_CELLS] for chunk in _chunks(rows, ["\n"]) for line in chunk.splitlines())
    summary = [f"# monotonicity,{column},{flag}\n" for column, flag in flags.items()]
    _write_csv(out_path, ",".join(STATICS_COLUMNS) + "\n", (",".join(row) + "\n" for row in cells), summary)
    return int(bool(rows.errors))


# Each command once: its name, its help, the cmd_* function it runs and the parameters of that function
# that its flags fill. The parser, main's dispatch and the error naming the commands all read this table.
_COMMANDS = {
    "equilibrium": ("solve one design point", cmd_equilibrium, ("tau", "rho", "json_output")),
    "verify": ("cross-check the solver against the oracle", cmd_verify, ("tau", "rho", "grid_n")),
    "sweep": ("evaluate the full design grid to CSV", cmd_sweep, ("out_path",)),
    "pareto": ("write the Pareto front of the sweep", cmd_pareto, ("out_path", "per_rho")),
    "statics": ("scan rho at a fixed toll", cmd_statics, ("tau", "out_path")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hotlane",
        description="Equilibrium solver and design explorer for high-occupancy toll lanes.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", metavar="PATH", help="configuration file (key = value format)")
    source.add_argument(
        "--i880-defaults", action="store_true", help="use the built-in I-880 calibration"
    )
    parser.add_argument(
        "--dump-config", action="store_true", help="print the effective configuration and exit"
    )
    # The flag of each cmd_* parameter that _COMMANDS names, declared once.
    flags = {
        "tau": ("--tau", {"type": float, "required": True, "help": "toll price in dollars"}),
        "rho": ("--rho", {"type": float, "required": True, "help": "HOT capacity fraction"}),
        "json_output": ("--json", {"action": "store_true", "help": "emit one JSON object"}),
        "grid_n": ("--grid-n", {
            "type": int, "default": OracleConfig.grid_n, "help": "oracle agents per axis (default %(default)s)"
        }),
        "out_path": ("--out", {"required": True, "metavar": "PATH"}),
        "per_rho": ("--per-rho", {"action": "store_true", "help": "also write one front per rho"}),
    }
    commands = parser.add_subparsers(dest="command")
    for name, (help_text, _, params) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        for param in params:
            flag, options = flags[param]
            command.add_argument(flag, dest=param, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.i880_defaults:
            config = i880_config()
        elif args.config is not None:
            config = load_config(args.config)
        else:
            parser.error("one of --config or --i880-defaults is required")
        if args.dump_config:
            print(dump_config(config), end="")
            return 0
        if args.command is None:
            parser.error(f"a command is required ({', '.join(_COMMANDS)})")
        _, run, params = _COMMANDS[args.command]
        return run(config, **{param: getattr(args, param) for param in params})
    except (HotLaneError, OSError) as exc:  # an OSError here is an output file that cannot be written
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a subclass for an array too large to allocate
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
