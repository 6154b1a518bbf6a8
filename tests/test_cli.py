"""Config parsing, commands, CSV schemas, and exit codes."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import hotlane
from hotlane import (
    BprParams,
    DesignParams,
    HotLaneError,
    ParseError,
    PopulationParams,
    RegimeLabel,
    StrategyShares,
    ValidationError,
    pareto_front,
    solve,
    solve_batch,
)
from hotlane.cli import (
    STATICS_COLUMNS,
    SWEEP_COLUMNS,
    cmd_equilibrium,
    cmd_pareto,
    cmd_statics,
    cmd_sweep,
    cmd_verify,
    dump_config,
    i880_config,
    load_config,
    main,
    parse_config_text,
)
from hotlane import cli as cli_mod
from hotlane import oracle
from paper_reference import bisection_gap

I880_TEXT = """
# I-880 calibration
population.demand = 115.0
population.beta_max = 1.5
population.gamma_max = 8.0
bpr.a = 0.15
bpr.b = 4.0
bpr.t_free = 22.0
bpr.v_cap = 140.0
occupancy = 2.5
rho_values = 0.25, 0.5, 0.75
tau_min = 0.5
tau_max = 10.0
tau_step = 0.5
"""


def test_i880_defaults_match_calibration():
    config = i880_config()
    assert config.population.demand == 115.0
    assert config.population.beta_max == 1.5
    assert config.population.gamma_max == 8.0
    assert config.bpr.a == 0.15
    assert config.bpr.b == 4.0
    assert config.bpr.t_free == 22.0
    assert config.bpr.v_cap == 140.0
    assert config.occupancy == 2.5
    assert config.rho_values == (0.25, 0.5, 0.75)
    tau, rho, occupancy = config.design_grid()
    assert tau[:20].tolist() == [0.5 * k for k in range(1, 21)]
    assert len(tau) == len(rho) == len(occupancy) == 60
    # rho outer, tau inner.
    assert tau.tolist() == [0.5 * k for k in range(1, 21)] * 3
    assert rho.tolist() == [r for r in config.rho_values for _ in range(20)]
    assert set(occupancy.tolist()) == {2.5}


def test_parse_config_text_round_trips_i880():
    config = parse_config_text(I880_TEXT)
    assert config == i880_config()


def test_dump_config_round_trip():
    """Parsing a dump gives the config's values back as equal floats, and dumping that gives the same
    bytes, also where the config is given numpy scalars or a list of capacity fractions."""
    i880 = i880_config()
    configs = (
        i880,
        dataclasses.replace(i880, rho_values=tuple(np.linspace(0.25, 0.75, 3))),
        dataclasses.replace(i880, tau_min=np.float64(0.5)),
        dataclasses.replace(i880, rho_values=[0.25, 0.5]),
    )
    for config in configs:
        text = dump_config(config)
        parsed = parse_config_text(text)
        assert parsed == dataclasses.replace(config, rho_values=tuple(config.rho_values))
        assert dump_config(parsed) == text



def test_rho_values_are_stored_as_a_tuple_of_floats():
    """A list or array given as rho_values is stored as a tuple of floats, so the frozen config
    cannot change after its check and hashes; anything but a sequence of numbers is a ValidationError."""
    given = [0.25, 0.5]
    from_list, from_array = (dataclasses.replace(i880_config(), rho_values=x) for x in (given, np.array(given)))
    given.append(1.5)
    for config in (from_list, from_array):
        assert config.rho_values == (0.25, 0.5) and {type(rho) for rho in config.rho_values} == {float}
        assert hash(config) == hash(dataclasses.replace(i880_config(), rho_values=(0.25, 0.5)))
    with pytest.raises(AttributeError):
        from_list.rho_values.append(1.5)
    for rho_values in (("x",), 0.5, "0.5", np.array(0.5), [[0.25]]):
        with pytest.raises(ValidationError, match="^rho_values must be a sequence of numbers, got "):
            dataclasses.replace(i880_config(), rho_values=rho_values)

def test_parse_errors_report_line_and_key():
    with pytest.raises(ParseError, match="line 1"):
        parse_config_text("not a key value line")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config_text("mystery = 1.0")
    with pytest.raises(ParseError, match="unknown key 'oracle.max_iters'"):  # the labeling cap is a constant
        parse_config_text(I880_TEXT + "oracle.max_iters = 5\n")
    with pytest.raises(ParseError, match=r"^line 15: unknown key 'oracle.grid_n'$"):  # verify --grid-n sets it
        parse_config_text(I880_TEXT + "oracle.grid_n = 400\n")
    with pytest.raises(ParseError, match="bad value"):
        parse_config_text("tau_min = abc")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config_text("tau_min = 1.0\ntau_min = 2.0")


def test_missing_keys_rejected():
    with pytest.raises(ValidationError, match="missing required config keys"):
        parse_config_text("tau_min = 1.0")


def test_validation_names_constraint():
    bad_rho = I880_TEXT.replace("rho_values = 0.25, 0.5, 0.75", "rho_values = 1.0")
    with pytest.raises(ValidationError, match=r"\(0, 1\)"):
        parse_config_text(bad_rho)
    bad_step = I880_TEXT.replace("tau_step = 0.5", "tau_step = 0.0")
    with pytest.raises(ValidationError, match="tau_step"):
        parse_config_text(bad_step)
    empty_tolls = I880_TEXT.replace("tau_min = 0.5", "tau_min = 10.5")
    with pytest.raises(ValidationError, match=r"^tau_min must be <= tau_max, got 10.5 > 10.0$"):
        parse_config_text(empty_tolls)


@pytest.mark.parametrize(
    "key, field",
    [
        ("tau_max", "tau_max"),
        ("tau_step", "tau_step"),
        ("occupancy", "occupancy"),
        ("population.demand", "demand"),
        ("population.gamma_max", "gamma_max"),
        ("bpr.t_free", "t_free"),
        ("bpr.v_cap", "v_cap"),
    ],
)
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_config_values_rejected(key, field, value, capsys, tmp_path):
    """A non-finite value is a ValidationError naming its field, never a traceback or ERROR rows."""
    lines = [line for line in I880_TEXT.splitlines() if not line.startswith(f"{key} =")]
    text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
    with pytest.raises(ValidationError, match=field):
        parse_config_text(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "sweep", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("settings", [{"tau_step": "1e-300"}, {"tau_max": "1e300", "tau_step": "1e-300"}])
def test_unbounded_tau_grid_rejected(settings, capsys, tmp_path):
    """A tau grid of more points than an array can index (or of infinitely many) is a
    ValidationError naming tau_step, not an attempt to build it or a traceback."""
    lines = [line for line in I880_TEXT.splitlines() if line.split(" =")[0] not in settings]
    text = "\n".join(lines + [f"{key} = {value}" for key, value in settings.items()]) + "\n"
    with pytest.raises(ValidationError, match="tau_step"):
        parse_config_text(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "sweep", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and "tau_step" in err
    assert not out.exists()


def test_tau_grid_matches_python_arithmetic():
    """The tau column is ``tau_min + i * tau_step`` to the bit, as a Python loop computes it."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        tau_min, tau_step = rng.uniform(0.01, 5.0), rng.uniform(1e-3, 2.0)
        tau_max = tau_min + tau_step * rng.integers(0, 300) + rng.uniform(0.0, tau_step)
        config = dataclasses.replace(i880_config(), tau_min=tau_min, tau_max=tau_max, tau_step=tau_step)
        count = int((tau_max - tau_min) / tau_step + 1e-9) + 1
        assert config.design_grid()[0].tolist() == [tau_min + i * tau_step for i in range(count)] * 3


def test_non_finite_parameters_rejected():
    for make in (
        lambda x: PopulationParams(demand=x, beta_max=1.5, gamma_max=8.0),
        lambda x: PopulationParams(demand=115.0, beta_max=x, gamma_max=8.0),
        lambda x: BprParams(a=0.15, b=4.0, t_free=x, v_cap=140.0),
        lambda x: BprParams(a=0.15, b=x, t_free=22.0, v_cap=140.0),
        lambda x: DesignParams(rho=0.5, tau=x, occupancy=2.5),
        lambda x: DesignParams(rho=0.5, tau=1.0, occupancy=x),
    ):
        with pytest.raises(ValidationError, match="must be finite, got inf"):
            make(float("inf"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_non_utf8_config_is_a_parse_error(capsys, tmp_path):
    """A config file that is not UTF-8 exits 1 with one ParseError line, not a decode traceback."""
    path = tmp_path / "bad.cfg"
    path.write_bytes(I880_TEXT.encode() + b"\xff\n")
    with pytest.raises(ParseError, match="cannot read config"):
        load_config(path)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "sweep", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ParseError: cannot read config {path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(I880_TEXT)
    assert load_config(path) == i880_config()


def test_config_with_a_byte_order_mark_loads(tmp_path):
    """A UTF-8 file that starts with a byte-order mark is the config after it; one that is
    not UTF-8 after the mark is still a ParseError."""
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + dump_config(i880_config()).encode())
    assert load_config(path) == i880_config()
    path.write_bytes(b"\xef\xbb\xbf" + dump_config(i880_config()).encode() + b"\xff\n")
    with pytest.raises(ParseError, match="cannot read config"):
        load_config(path)


def test_cmd_equilibrium_regime_a(capsys):
    assert cmd_equilibrium(i880_config(), tau=4.0, rho=0.25) == 0
    out = capsys.readouterr().out
    assert "regime: A1" in out
    assert "toll share: 0\n" in out


def test_cmd_equilibrium_json_regime_b(capsys):
    assert cmd_equilibrium(i880_config(), tau=0.5, rho=0.75, json_output=True) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "B"
    assert report["sigma_toll"] > 0
    assert report["sigma_pool"] > 0
    assert report["sigma_o"] > 0
    assert report["revenue"] == pytest.approx(115.0 * report["sigma_toll"] * 0.5, rel=1e-12)


def test_cmd_equilibrium_invalid_rho_exit(capsys):
    code = main(["--i880-defaults", "equilibrium", "--tau", "1.0", "--rho", "1.0"])
    assert code == 1
    assert "ValidationError" in capsys.readouterr().err


def test_cmd_verify_passes(capsys):
    assert cmd_verify(i880_config(), tau=1.0, rho=0.75, grid_n=400) == 0
    out = capsys.readouterr().out
    assert "max-norm distance" in out
    assert "solver:" in out and "oracle:" in out


def test_cmd_verify_reports_a_distance_over_tolerance(capsys, monkeypatch):
    """An oracle answer further from the solver than the tolerance exits 1 and says so."""
    def shifted(design, pop, bpr, cfg, start=None):
        toll, pool, ordinary = solve(design, pop, bpr).shares.as_tuple()
        return StrategyShares(toll, pool + 0.02, ordinary - 0.02), 1

    monkeypatch.setattr(cli_mod, "oracle_equilibrium", shifted)
    assert cmd_verify(i880_config(), tau=1.0, rho=0.75, grid_n=400) == 1
    captured = capsys.readouterr()
    assert "max-norm distance: 0.02 (tolerance 0.01)\n" in captured.out
    assert captured.err == "distance exceeds tolerance\n"


def test_cmd_verify_starts_the_oracle_at_the_solved_gap(capsys, monkeypatch):
    """verify hands the oracle the gap solve returned, as the start of its search."""
    starts = []
    original = cli_mod.oracle_equilibrium

    def spy(design, pop, bpr, cfg, start=None):
        starts.append(start)
        return original(design, pop, bpr, cfg, start=start)

    monkeypatch.setattr(cli_mod, "oracle_equilibrium", spy)
    config = i880_config()
    assert cmd_verify(config, tau=1.0, rho=0.75, grid_n=400) == 0
    assert starts == [solve(DesignParams(0.75, 1.0, config.occupancy), config.population, config.bpr).gap]


@pytest.mark.parametrize("grid_n", [400, 2000])
def test_cmd_verify_output_does_not_depend_on_the_start(capsys, monkeypatch, grid_n):
    """At the 60 I-880 points, starting the oracle at the solved gap changes only its labeling count:
    the exit code, the solver and distance lines and the oracle's shares are those of a search from
    the all-ordinary gap, and the labelings made are fewer."""
    original = cli_mod.oracle_equilibrium
    config = i880_config()
    points = [(rho, 0.5 * k) for rho in config.rho_values for k in range(1, 21)]

    def run(oracle_equilibrium):
        monkeypatch.setattr(cli_mod, "oracle_equilibrium", oracle_equilibrium)
        outputs, labelings = [], 0
        for rho, tau in points:
            code = cmd_verify(config, tau=tau, rho=rho, grid_n=grid_n)
            lines = capsys.readouterr().out.splitlines()
            shares, count = lines[1].split("  [grid_n=%d, iterations=" % grid_n)
            outputs.append((code, lines[0], shares, lines[2]))
            labelings += int(count.rstrip("]"))
        return outputs, labelings

    seeded, seeded_labelings = run(original)
    unseeded, unseeded_labelings = run(lambda design, pop, bpr, cfg, start=None: original(design, pop, bpr, cfg))
    assert seeded == unseeded
    assert seeded_labelings < unseeded_labelings
    if grid_n == 2000:
        assert (seeded_labelings, unseeded_labelings) == (113, 232)


def test_cmd_verify_oracle_failure_distinct(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_LABELINGS", 2)
    assert cmd_verify(i880_config(), tau=1.0, rho=0.75) == 2
    assert "failed to converge" in capsys.readouterr().err


def test_cmd_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cmd_sweep(i880_config(), out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 61
    # rho outer ascending, tau inner ascending.
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("0.5", "0.25")
    last = lines[-1].split(",")
    assert (last[0], last[1]) == ("10", "0.75")
    taus = [line.split(",")[0] for line in lines[1:21]]
    assert taus == [format(0.5 * k, ".12g") for k in range(1, 21)]
    # Regime-B rows appear exactly where the wide-HOT cheap-toll points sit.
    regimes = {(row[0], row[1]): row[2] for row in (line.split(",") for line in lines[1:])}
    assert regimes[("0.5", "0.75")] == "B"
    assert regimes[("1", "0.75")] == "B"
    assert sum(1 for r in regimes.values() if r == "B") == 2


def test_cmd_sweep_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    cmd_sweep(i880_config(), first)
    cmd_sweep(i880_config(), second)
    assert first.read_bytes() == second.read_bytes()


def test_cmd_sweep_single_point(tmp_path):
    text = I880_TEXT.replace("rho_values = 0.25, 0.5, 0.75", "rho_values = 0.5").replace(
        "tau_max = 10.0", "tau_max = 0.5"
    )
    config = parse_config_text(text)
    out = tmp_path / "one.csv"
    assert cmd_sweep(config, out) == 0
    assert len(out.read_text().splitlines()) == 2


def test_cmd_sweep_error_rows(tmp_path, monkeypatch):
    bad = DesignParams(0.25, 0.5, 2.5)
    original = cli_mod.solve_batch

    def failing_solve_batch(tau, rho, occupancy, pop, bpr):
        """The real columnar result, with the bad point's error added."""
        batch = original(tau, rho, occupancy, pop, bpr)
        failed = np.flatnonzero((batch.tau == bad.tau) & (batch.rho == bad.rho)).tolist()
        errors = {**batch.errors, **{i: HotLaneError("synthetic failure") for i in failed}}
        return dataclasses.replace(batch, errors=errors)

    monkeypatch.setattr(cli_mod, "solve_batch", failing_solve_batch)
    out = tmp_path / "sweep.csv"
    assert cmd_sweep(i880_config(), out) == 1
    lines = out.read_text().splitlines()
    error_rows = [line for line in lines if ",ERROR," in line]
    assert len(error_rows) == 1
    cells = error_rows[0].split(",")
    assert cells[0] == "0.5" and cells[1] == "0.25"
    assert all(cell == "" for cell in cells[3:])


def test_cmd_pareto_skips_a_rho_whose_every_point_failed(tmp_path, monkeypatch):
    """The per-rho fronts of a grid whose middle rho failed everywhere are the clean run's
    fronts without that rho's rows, and the command exits 1 for the ERROR points."""
    clean = tmp_path / "clean.csv"
    assert cmd_pareto(i880_config(), clean, per_rho=True) == 0
    original = cli_mod.solve_batch

    def failing_solve_batch(tau, rho, occupancy, pop, bpr):
        batch = original(tau, rho, occupancy, pop, bpr)
        failed = np.flatnonzero(batch.rho == 0.5).tolist()
        return dataclasses.replace(batch, errors={i: HotLaneError("synthetic failure") for i in failed})

    monkeypatch.setattr(cli_mod, "solve_batch", failing_solve_batch)
    out = tmp_path / "pareto.csv"
    assert cmd_pareto(i880_config(), out, per_rho=True) == 1
    per_rho = [line for line in out.read_text().splitlines() if ",rho=" in line]
    assert per_rho == [line for line in clean.read_text().splitlines() if ",rho=" in line and not line.endswith("=0.5")]
    assert {line.rsplit("=", 1)[1] for line in per_rho} == {"0.25", "0.75"}


def test_cmd_pareto_on_a_grid_where_every_point_failed(capsys, tmp_path):
    """With every point ``GapNonPositive`` (an underflowing congestion power), ``pareto``
    writes its header and no row and exits 1 for the failed points, as ``sweep`` does."""
    path = tmp_path / "underflow.cfg"
    path.write_text(I880_TEXT.replace("bpr.a = 0.15", "bpr.a = 1e-100"))
    out = tmp_path / "pareto.csv"
    assert main(["--config", str(path), "pareto", "--per-rho", "--out", str(out)]) == 1
    assert out.read_text() == ",".join(SWEEP_COLUMNS) + ",front_id\n"
    assert capsys.readouterr().err == ""


def _dense_config():
    step = (12.0 - 0.1) / 99
    rho = tuple(float(r) for r in np.linspace(0.05, 0.95, 50))
    return dataclasses.replace(
        i880_config(), rho_values=rho, tau_min=0.1, tau_max=0.1 + 99.5 * step, tau_step=step
    )


def _congested_config():
    """The dense grid at demand 250 on a steeper curve (a = 0.6): mostly Regime B."""
    config = _dense_config()
    return dataclasses.replace(
        config,
        population=dataclasses.replace(config.population, demand=250.0),
        bpr=dataclasses.replace(config.bpr, a=0.6),
    )


@pytest.mark.parametrize("make_config", [i880_config, _dense_config, _congested_config])
def test_revenue_is_zero_exactly_in_regime_a(make_config):
    """Revenue is exactly 0 at every solved Regime-A point and positive at every Regime-B point."""
    config = make_config()
    table = solve_batch(*config.design_grid(), config.population, config.bpr)
    regime, revenue = table.regime[table.solved], table.revenue[table.solved]
    regime_b = regime == list(RegimeLabel).index(RegimeLabel.B)
    assert regime_b.any() and not regime_b.all()
    assert (revenue[~regime_b] == 0.0).all()
    assert (revenue[regime_b] > 0.0).all()


@pytest.mark.parametrize("make_config", [i880_config, _dense_config, _congested_config])
def test_regime_a_does_not_depend_on_tau(make_config):
    """Every solved Regime-A point equals, bit for bit, the point at ``tau = gamma_max`` with
    the same rho, and a point is in Regime B exactly when ``tau < min(gamma_max, beta_max * g_A)``,
    with ``g_A`` the gap solved at ``tau = gamma_max``. The step counts may differ."""
    config = make_config()
    pop = config.population
    table = solve_batch(*config.design_grid(), pop, config.bpr)
    at_cap = solve_batch(pop.gamma_max, table.rho, table.occupancy, pop, config.bpr)
    assert not at_cap.errors
    regime_b = table.regime == list(RegimeLabel).index(RegimeLabel.B)
    regime_a = table.solved & ~regime_b
    assert regime_a.any()
    for name in ("shares", "gap", "latencies", "avg_time", "revenue"):
        column, reference = getattr(table, name)[..., regime_a], getattr(at_cap, name)[..., regime_a]
        assert column.tobytes() == reference.tobytes(), name
    tau_ab = np.minimum(pop.gamma_max, pop.beta_max * at_cap.gap)
    assert ((table.tau < tau_ab) == regime_b)[table.solved].all()


@pytest.mark.parametrize("make_config", [_dense_config, _congested_config])
def test_root_does_not_depend_on_the_step_rule(make_config):
    """Halving alone reaches the solver's root bit for bit: each root is a unique float, so the
    rule that picks the trial points moves only the step counts, never an output byte."""
    config = make_config()
    grid = config.design_grid()
    table = solve_batch(*grid, config.population, config.bpr)
    assert not table.errors
    assert table.gap.tobytes() == bisection_gap(*grid, config.population, config.bpr).tobytes()


def test_stalled_bracket_end_takes_a_one_float_step():
    """A secant point that rounds onto a bracket end next to the root steps one float off it.

    At this congested point (``tau ~ 0.70101``, ``rho ~ 0.89490``) the solver takes 15 steps, and
    41 without the one-float step. With Illinois weighting and secant points in wide brackets,
    27 secant steps brought ``hi`` within 6 ulps of the root; halving the bracket, still 1.16e-5
    wide, took 34 more steps.
    """
    config = _congested_config()
    tau, rho, occupancy = config.design_grid()
    point = 46 * 100 + 5
    assert solve(DesignParams(rho[point], tau[point], occupancy[point]), config.population, config.bpr).iterations <= 25


@pytest.mark.parametrize("make_config, most", [(_dense_config, 20), (_congested_config, 32)])
def test_largest_step_count(make_config, most):
    """The largest counts are 16 and 29. With Illinois weighting and secant points in wide
    brackets they were 25 and 41; with midpoint steps alone after a stalled secant, 49 and 61."""
    config = make_config()
    assert solve_batch(*config.design_grid(), config.population, config.bpr).iterations.max() <= most


def _off_grid_config():
    """The dense grid with every toll moved off it by 0.37 of a step: tolls that need all 12 digits."""
    config = _dense_config()
    shift = 0.37 * config.tau_step
    return dataclasses.replace(config, tau_min=config.tau_min + shift, tau_max=config.tau_max + shift)


@hypothesis.settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@hypothesis.given(x=st.floats())
@hypothesis.example(x=-0.0)
@hypothesis.example(x=5e-324)
@hypothesis.example(x=float("-inf"))
@hypothesis.example(x=float("nan"))
def test_percent_format_is_format_spec(x):
    """The row formats' "%.12g" writes every float as format(x, ".12g") does."""
    assert "%.12g" % x == format(x, ".12g")


# The sweep rows as the formatter wrote them before it reused runs of equal
# tails: one format string per row, and a failed row overwritten.
_REFERENCE_ROW = ",".join("{}" if column == "regime" else "{:.12g}" for column in SWEEP_COLUMNS).format
_REFERENCE_ERROR = ("{:.12g},{:.12g},ERROR" + "," * (len(SWEEP_COLUMNS) - 3)).format


def _reference_lines(table) -> list[str]:
    toll, pool, ordinary = table.shares.tolist()
    time_ordinary, time_hot = table.latencies.tolist()
    regime = [list(RegimeLabel)[code].value for code in table.regime.tolist()]
    tau, rho, gap, avg_time, revenue, residual = (
        column.tolist() for column in (table.tau, table.rho, table.gap, table.avg_time, table.revenue, table.residual)
    )
    columns = [tau, rho, regime, toll, pool, ordinary, gap, time_hot, time_ordinary, avg_time, revenue, residual]
    lines = list(map(_REFERENCE_ROW, *columns))
    for i in table.errors:
        lines[i] = _REFERENCE_ERROR(table.tau[i], table.rho[i])
    return lines


def _lines(table) -> list[str]:
    """The table's rows as ``cli._chunks`` writes them, one line each."""
    return "".join(cli_mod._chunks(table, ["\n"])).splitlines()


@pytest.mark.parametrize(
    "make_config, tails", [(i880_config, 5), (_dense_config, 555), (_congested_config, 2991), (_off_grid_config, 542)]
)
def test_lines_match_per_row_formatting(make_config, tails, monkeypatch):
    """The rows equal the per-row reference on a whole grid, its Pareto front and one row,
    and a grid in one chunk formats one tail per run: its Regime-B rows plus one per rho."""
    config = make_config()
    table = solve_batch(*config.design_grid(), config.population, config.bpr)
    monkeypatch.setattr(cli_mod, "_CHUNK_ROWS", len(table))
    calls = []
    row_format = cli_mod._ROW_FORMAT

    def counted(*cells):
        calls.append(cells)
        return row_format(*cells)

    monkeypatch.setattr(cli_mod, "_ROW_FORMAT", counted)
    assert _lines(table) == _reference_lines(table)
    assert len(calls) == tails
    for part in (table.take(pareto_front(table)), table.take([len(table) // 2]), table.take([])):
        assert _lines(part) == _reference_lines(part)


def _crafted(case: str):
    """Six Regime-A rows of one dense-grid rho, their tails bit for bit equal, with ``case`` edited in."""
    config = _dense_config()
    rows = solve_batch(*config.design_grid(), config.population, config.bpr).take(slice(94, 100))
    assert len({line.split(",", 1)[1] for line in _reference_lines(rows)}) == 1
    if case == "signed zero":  # 0.0 == -0.0, but the cells read "0" and "-0"
        revenue, tau = rows.revenue.copy(), rows.tau.copy()
        revenue[[2, 4]] = -0.0
        tau[[1, 3]] = 0.0, -0.0
        return dataclasses.replace(rows, revenue=revenue, tau=tau)
    if case == "nan":  # two NaN payloads next to each other
        gap = rows.gap.copy()
        gap[1:3] = np.nan
        gap[3:4] = np.array([0x7FF8000000000001], dtype=np.int64).view(float)
        return dataclasses.replace(rows, gap=gap)
    # Errors first, last and between rows 1 and 3, whose tails are equal.
    return dataclasses.replace(rows, errors={i: HotLaneError("synthetic failure") for i in (0, 2, 5)})


@pytest.mark.parametrize("case", ["signed zero", "nan", "errors"])
def test_lines_match_per_row_formatting_on_crafted_rows(case):
    rows = _crafted(case)
    assert _lines(rows) == _reference_lines(rows)


def _whole_table_csv(config, per_rho: bool | None = None) -> bytes:
    """The bytes of ``cmd_sweep`` (``per_rho`` None) or ``cmd_pareto``, built in one piece from
    the per-row reference lines."""
    table = cli_mod.solve_batch(*config.design_grid(), config.population, config.bpr)
    if per_rho is None:
        return ("\n".join([",".join(SWEEP_COLUMNS), *_reference_lines(table)]) + "\n").encode()
    lines = [",".join(SWEEP_COLUMNS) + ",front_id"]
    lines += [f"{line},global" for line in _reference_lines(table.take(pareto_front(table)))]
    if per_rho:
        which = np.searchsorted(config.rho_values, table.rho)
        front = pareto_front(table, which)
        rows = zip(_reference_lines(table.take(front)), which[front].tolist())
        lines += [f"{line},rho={config.rho_values[k]:.12g}" for line, k in rows]
    return ("\n".join(lines) + "\n").encode()


def _errors_at_chunk_edges(monkeypatch):
    """The dense grid, with ``solve_batch`` failing its points on both sides of several 7-row chunk
    edges, one run of three failures across an edge included."""
    original = cli_mod.solve_batch

    def failing_solve_batch(tau, rho, occupancy, pop, bpr):
        batch = original(tau, rho, occupancy, pop, bpr)
        failed = (6, 7, 13, 21, 27, 28, 29, 104, 105, len(batch) - 1)
        return dataclasses.replace(batch, errors={**batch.errors, **{i: HotLaneError("synthetic failure") for i in failed}})

    monkeypatch.setattr(cli_mod, "solve_batch", failing_solve_batch)
    return _dense_config()


@pytest.mark.parametrize("make_config", [i880_config, _dense_config, _congested_config, _errors_at_chunk_edges])
def test_chunks_keep_every_byte(make_config, monkeypatch, tmp_path):
    """In chunks of 7 rows, runs of equal tails, ERROR rows and pareto suffixes cross chunk edges, and
    sweep and pareto still write the bytes of the whole-table lines. Each chunk starts a run of equal
    tails, so a chunked sweep formats at most one tail more per chunk edge."""
    config = make_config(monkeypatch) if make_config is _errors_at_chunk_edges else make_config()
    expected = {per_rho: _whole_table_csv(config, per_rho) for per_rho in (None, False, True)}
    calls = []
    row_format = cli_mod._ROW_FORMAT

    def counted(cells):
        calls.append(cells)
        return row_format(cells)

    monkeypatch.setattr(cli_mod, "_ROW_FORMAT", counted)
    table = cli_mod.solve_batch(*config.design_grid(), config.population, config.bpr)
    monkeypatch.setattr(cli_mod, "_CHUNK_ROWS", len(table))
    _lines(table)
    whole_table_tails = len(calls)
    calls.clear()
    monkeypatch.setattr(cli_mod, "_CHUNK_ROWS", 7)
    out = tmp_path / "out.csv"
    cmd_sweep(config, out)
    assert out.read_bytes() == expected[None]
    rows = expected[None].count(b"\n") - 1
    assert whole_table_tails <= len(calls) <= whole_table_tails + (rows - 1) // 7
    for per_rho in (False, True):
        cmd_pareto(config, out, per_rho=per_rho)
        assert out.read_bytes() == expected[per_rho]
    if make_config is not i880_config:  # whose 5 front rows fit in one chunk
        assert expected[True].count(b"\n") > 2 * 7 + 1
    if make_config is _errors_at_chunk_edges:
        assert expected[None].count(b",ERROR,") == 10


def _traced_peak(run) -> int:
    """Peak bytes that ``run()`` allocates, after one untraced call has warmed every cache."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded_by_the_chunk(tmp_path):
    """On the congested grid, sweep and pareto peak no more than one chunk's text above solve_batch
    alone. Built whole, the CSV text peaked about 1.8 MB (sweep) and 0.5 MB (pareto) above it."""
    config = _congested_config()
    # A row has under 256 characters, held at most three times at once (its formatted tail, the
    # joined chunk and the chunk's encoding), and its 11 tail cells as Python floats (32 bytes each).
    bound = cli_mod._CHUNK_ROWS * (3 * 256 + 11 * 32)
    solved = _traced_peak(lambda: solve_batch(*config.design_grid(), config.population, config.bpr))
    out = tmp_path / "out.csv"
    assert _traced_peak(lambda: cmd_sweep(config, out)) - solved <= bound
    assert _traced_peak(lambda: cmd_pareto(config, out, per_rho=True)) - solved <= bound


@pytest.mark.parametrize("command", ["sweep", "pareto", "statics"])
def test_failed_write_leaves_no_file(command, monkeypatch, capsys, tmp_path):
    """A write that fails part way exits 1 with one stderr line and removes the partial file: a full
    disk that takes part of a write's text, and a row that fails to format in the second chunk, with
    the first chunk's file open."""
    out = tmp_path / f"{command}.csv"
    argv = ["--i880-defaults", command, *(["--tau", "3.0"] if command == "statics" else []), "--out", str(out)]
    sizes = []
    path_open = Path.open

    def full_disk(path, *args, **kwargs):
        file = path_open(path, *args, **kwargs)
        write = file.write

        def write_half(text):
            write(text[: len(text) // 2])
            file.flush()
            sizes.append(path.stat().st_size)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        file.write = write_half
        return file

    with monkeypatch.context() as patch:
        patch.setattr(Path, "open", full_disk)
        assert main(argv) == 1
    assert capsys.readouterr().err == f"OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert len(sizes) == 1 and sizes[0] > 0
    assert not out.exists()

    calls = []
    row_format = cli_mod._ROW_FORMAT

    def failing(cells):
        calls.append(out.exists())
        if len(calls) > 1:
            raise MemoryError("out of memory formatting a row")
        return row_format(cells)

    monkeypatch.setattr(cli_mod, "_CHUNK_ROWS", 1)  # so each chunk formats one tail
    monkeypatch.setattr(cli_mod, "_ROW_FORMAT", failing)
    assert main(argv) == 1
    assert capsys.readouterr().err == "MemoryError: out of memory formatting a row\n"
    assert calls == [True, True]
    assert not out.exists()


def test_failed_write_keeps_a_symlink(monkeypatch, capsys, tmp_path):
    """A write that fails through a symlink, as ``--out /dev/stdout`` writes, leaves the link and its
    target: the writer removes only a regular file of the output's name."""
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)

    def failing(cells):
        raise MemoryError("out of memory formatting a row")

    monkeypatch.setattr(cli_mod, "_ROW_FORMAT", failing)
    assert main(["--i880-defaults", "statics", "--tau", "3.0", "--out", str(link)]) == 1
    assert capsys.readouterr().err == "MemoryError: out of memory formatting a row\n"
    assert link.is_symlink() and target.read_text() == ",".join(STATICS_COLUMNS) + "\n"


@pytest.mark.parametrize("make_config", [i880_config, _dense_config, _congested_config])
def test_pareto_front_is_a_strict_chain(make_config):
    """Both objectives strictly increase along the global front of each grid and, on the
    I-880 grid, along each rho's front, where the list path gives the same positions."""
    config = make_config()
    table = solve_batch(*config.design_grid(), config.population, config.bpr)
    fronts = [pareto_front(table)]
    if make_config is i880_config:
        results = [table.outcome(i) for i in range(len(table))]
        assert pareto_front(results).tolist() == fronts[0].tolist()
        n_tau = len(table) // len(config.rho_values)
        for start in range(0, len(table), n_tau):
            front = pareto_front(table.take(slice(start, start + n_tau)))
            assert pareto_front(results[start : start + n_tau]).tolist() == front.tolist()
            fronts.append(start + front)
    assert fronts[0].size > 1
    for front in fronts:
        assert (np.diff(table.avg_time[front]) > 0.0).all()
        assert (np.diff(table.revenue[front]) > 0.0).all()


@pytest.mark.parametrize("make_config, stride", [(i880_config, 1), (_dense_config, 50)])
def test_equilibrium_json_matches_sweep_row(make_config, stride, tmp_path, capsys):
    config = make_config()
    out = tmp_path / "sweep.csv"
    assert cmd_sweep(config, out) == 0
    rows = out.read_text().splitlines()[1:]
    tau, rho, _ = config.design_grid()
    for index in range(0, len(rows), stride):
        assert cmd_equilibrium(config, tau[index], rho[index], json_output=True) == 0
        report = json.loads(capsys.readouterr().out)
        cells = [report[c] if c == "regime" else format(report[c], ".12g") for c in SWEEP_COLUMNS]
        assert ",".join(cells) == rows[index]


def test_cmd_pareto_csv(tmp_path):
    sweep_path = tmp_path / "sweep.csv"
    pareto_path = tmp_path / "pareto.csv"
    cmd_sweep(i880_config(), sweep_path)
    assert cmd_pareto(i880_config(), pareto_path, per_rho=True) == 0
    lines = pareto_path.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS) + ",front_id"
    sweep_rows = set(sweep_path.read_text().splitlines()[1:])
    global_rows = [line for line in lines[1:] if line.endswith(",global")]
    assert global_rows, "global front must be non-empty"
    for line in global_rows:
        assert line.rsplit(",", 1)[0] in sweep_rows  # front is a subset of the sweep
    # Front rows sorted ascending in both objectives.
    times = [float(line.split(",")[9]) for line in global_rows]
    revenues = [float(line.split(",")[10]) for line in global_rows]
    assert times == sorted(times) and all(b > a for a, b in zip(times, times[1:]))
    assert all(b > a for a, b in zip(revenues, revenues[1:]))
    # Per-rho front rows carry their own rho in the front_id.
    for line in lines[1:]:
        cells = line.split(",")
        if cells[-1] != "global":
            assert cells[-1] == f"rho={cells[1]}"


def test_cmd_statics_csv(tmp_path):
    out = tmp_path / "statics.csv"
    assert cmd_statics(i880_config(), tau=3.0, out_path=out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(STATICS_COLUMNS)
    data = [line for line in lines[1:] if not line.startswith("#")]
    summary = [line for line in lines[1:] if line.startswith("# monotonicity,")]
    assert len(data) == 3
    assert len(summary) == 4
    rhos = [line.split(",")[0] for line in data]
    assert rhos == ["0.25", "0.5", "0.75"]
    # Regime column transitions at most once along rho (A before B).
    labels = [line.split(",")[1] != "B" for line in data]
    assert labels == sorted(labels, reverse=True)


def test_cmd_statics_non_ascending_rho(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(I880_TEXT.replace("rho_values = 0.25, 0.5, 0.75", "rho_values = 0.75, 0.25"))
    code = main(["--config", str(path), "statics", "--tau", "1.0", "--out", str(tmp_path / "statics.csv")])
    assert code == 1
    assert "ValidationError" in capsys.readouterr().err


@pytest.mark.parametrize("rho_values", ["0.75, 0.25", "0.25, 0.5, 0.5"])
def test_rho_values_must_strictly_increase(rho_values, capsys, tmp_path):
    """Every command reads the same grid, so the config rejects an unordered one."""
    text = I880_TEXT.replace("rho_values = 0.25, 0.5, 0.75", f"rho_values = {rho_values}")
    message = rf"^rho_values must be non-empty and strictly increasing within \(0, 1\), got \({rho_values}\)$"
    with pytest.raises(ValidationError, match=message):
        parse_config_text(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "sweep", "--out", str(out)]) == 1
    assert "ValidationError: rho_values must be non-empty and strictly increasing" in capsys.readouterr().err
    assert not out.exists()


def test_main_dump_config_round_trip(capsys):
    assert main(["--i880-defaults", "--dump-config"]) == 0
    assert parse_config_text(capsys.readouterr().out) == i880_config()


def test_main_twice_in_one_process(capsys):
    """The parser is built once per process; no flag carries over between calls."""
    argv = ["--i880-defaults", "equilibrium", "--tau", "0.5", "--rho", "0.75"]
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"regime: {report['regime']}\n")
    assert f"toll share: {format(report['sigma_toll'], '.12g')}\n" in text
    assert main(["--i880-defaults", "--dump-config"]) == 0
    assert parse_config_text(capsys.readouterr().out) == i880_config()
    assert main(argv) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("module", ["hotlane", "hotlane.cli"])
def test_python_m_hotlane(module, capsys):
    """``python -m hotlane`` and ``python -m hotlane.cli`` run the console script without leaking a warning."""
    argv = ["--i880-defaults", "equilibrium", "--tau", "1", "--rho", "0.5"]
    path = os.pathsep.join(filter(None, [str(Path(hotlane.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out


def test_main_requires_config_source(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["equilibrium", "--tau", "1.0", "--rho", "0.5"])
    assert excinfo.value.code == 2


def test_main_requires_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--i880-defaults"])
    assert excinfo.value.code == 2
    # The error names the five commands, in the order of the help.
    assert "error: a command is required (equilibrium, verify, sweep, pareto, statics)\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("equilibrium", ["--tau TAU", "--rho RHO", "--json"]),
        ("verify", ["--tau TAU", "--rho RHO", "--grid-n GRID_N"]),
        ("sweep", ["--out PATH"]),
        ("pareto", ["--out PATH", "--per-rho"]),
        ("statics", ["--tau TAU", "--out PATH"]),
    ],
)
def test_command_help_lists_its_flags(command, flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: hotlane {command} [-h]")
    assert all(flag in out for flag in flags)


def test_main_config_and_defaults_conflict():
    with pytest.raises(SystemExit) as excinfo:
        main(["--config", "x.cfg", "--i880-defaults", "sweep", "--out", "y.csv"])
    assert excinfo.value.code == 2


def test_main_runs_verify(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(I880_TEXT)
    code = main(["--config", str(path), "verify", "--tau", "4.0", "--rho", "0.25", "--grid-n", "400"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max-norm distance" in out and "[grid_n=400, " in out


@pytest.mark.parametrize("command", ["sweep", "pareto"])
def test_out_of_memory_grid_reported(command, monkeypatch, capsys, tmp_path):
    """A grid too large to allocate is reported like a HotLaneError: one stderr line, exit 1, no output file."""

    class _ArrayMemoryError(MemoryError):
        """Stands in for the MemoryError subclass that numpy raises."""

    message = "Unable to allocate 6.91 TiB for an array with shape (950000000001,) and data type float64"

    def unallocatable_grid(self):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(cli_mod.RunConfig, "design_grid", unallocatable_grid)
    out = tmp_path / f"{command}.csv"
    assert main(["--i880-defaults", command, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"MemoryError: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep"], ["pareto"], ["statics", "--tau", "3.0"]])
def test_unwritable_output_reported(command, capsys, tmp_path):
    """An output path in a missing directory is reported like a HotLaneError: one stderr line, exit 1."""
    out = tmp_path / "missing" / "out.csv"
    assert main(["--i880-defaults", *command, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"FileNotFoundError: [Errno 2] No such file or directory: '{out}'\n"



_I880_VALUES = dict(line.split(" = ") for line in dump_config(i880_config()).splitlines())
# Config values as text: floats of any sign, size or kind, the domain's ends, and text that is no number.
_NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from([5e-324, 1e-300, 1.0 - 2.0**-53, 1.0, 2.0, 1.7e308]).map(repr),
    st.integers(-3, 300).map(str),
)
_VALUE_TEXT = st.one_of(_NUMBER_TEXT, st.sampled_from(["", "abc", "1,2", "0x10", "1 2", "--1", "\u00e9"]))


@st.composite
def _config_and_argv(draw):
    """Config text over every key, up to three of them off their I-880 values, with missing, duplicate
    and unknown keys, comments and a byte-order mark, and the argv of one command. A grid has at most
    3 x 101 points: where tau_min and tau_max read as a toll range, tau_step divides it into at most 100 steps."""
    values = dict(_I880_VALUES)
    for key in draw(st.sets(st.sampled_from(list(values)), max_size=3)):
        kind = draw(st.sampled_from(["scaled", "number", "text"]))
        texts = _VALUE_TEXT if kind == "text" else _NUMBER_TEXT
        if kind == "scaled":  # the I-880 value times a power of ten: mostly in the domain
            scale = 10.0 ** draw(st.integers(-3, 3))
            values[key] = ", ".join(repr(float(x) * scale) for x in values[key].split(","))
        elif key == "rho_values":
            values[key] = ", ".join(draw(st.lists(texts, min_size=1, max_size=3)))
        else:
            values[key] = draw(texts)
    try:
        tau_min, tau_max = float(values["tau_min"]), float(values["tau_max"])
    except ValueError:
        tau_min = tau_max = math.nan
    if 0.0 < tau_min <= tau_max < math.inf:
        values["tau_step"] = repr((tau_max - tau_min) / draw(st.integers(1, 100)))
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines = draw(st.permutations(lines)) + draw(st.lists(st.sampled_from(["", "# a comment"]), max_size=2))
    fault = draw(st.sampled_from([None, None, None, "missing", "duplicate", "unknown.key = 1", "no equals sign"]))
    if fault == "missing":
        lines.remove(draw(st.sampled_from(sorted(lines))))
    elif fault == "duplicate":
        lines.append(draw(st.sampled_from(sorted(lines))))
    elif fault is not None:
        lines.insert(draw(st.integers(0, len(lines))), fault)
    text = draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    command = draw(st.sampled_from(["--dump-config", "equilibrium", "sweep", "pareto", "statics"]))
    tau, rho = (st.one_of(st.floats(0.0, top).map(repr), _NUMBER_TEXT) for top in (20.0, 1.0))
    argv = {
        "--dump-config": ["--dump-config"],
        "equilibrium": ["equilibrium", f"--tau={draw(tau)}", f"--rho={draw(rho)}", "--json"],
        "sweep": ["sweep"],
        "pareto": ["pareto", "--per-rho"],
        "statics": ["statics", f"--tau={draw(tau)}"],
    }[command]
    if command == "equilibrium" and draw(st.booleans()):
        argv.pop()
    return text, argv


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(case=_config_and_argv())
def test_main_on_generated_configs_and_argv(case, tmp_path_factory):
    """Whatever the config text and the command's values, main returns 0, 1 or 2 with no traceback. A
    failure prints exactly one stderr line, except a grid command whose file holds failed rows, which
    exits 1 silently; a dumped config parses back to the config read."""
    text, argv = case
    folder = tmp_path_factory.getbasetemp()
    config, out = folder / "fuzz.cfg", folder / "fuzz.csv"
    config.write_bytes(text.encode())
    out.unlink(missing_ok=True)
    writes = argv[0] in ("sweep", "pareto", "statics")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(config), *argv, *(["--out", str(out)] if writes else [])])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 0 or not err:
        assert err == "" and (code == 0 or writes and out.exists())
    else:
        assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err
    if code == 0 and argv == ["--dump-config"]:
        assert parse_config_text(stdout.getvalue()) == load_config(config)

# sha256 of the CLI outputs. Every entry but i880_statics_tau3 was re-pinned
# once when the latency gap became t_free * (x_o**b - x_h**b) instead of a
# difference of two lane times: that moves residual cells and, on some dense
# rows, share cells in the 12th digit. The four equilibrium_* entries were re-pinned
# again when the root finder took Anderson-Bjorck weighting and float-count halving of
# wide brackets: only their "iterations" line moved (A1 6 -> 4 steps, B 13 -> 9). A
# change to the step rule may move those four entries' step count, and nothing else in
# them; any other change must keep every byte.
GOLDEN_SHA256 = {
    "i880_sweep": "df61e96c2069ef1e7458c8b303908d6dcdc25d9aa478b5df4895b933765de6dc",
    "i880_pareto_per_rho": "30be5bd2278c8f68fdef238754598c03d041125b9a7a1f5f54395e62b8c1bb0d",
    "i880_statics_tau3": "6da167c478881b91198096b7b57e11f641c6f15b800ee701c9693ba2d5fb67ae",
    "dense_sweep": "c9c46f6603273db0de9ebba4c8de34f8da561f4d6e8bdc6888321437cbe2cabe",
    "equilibrium_A1_text": "b80ae76e863677624a28f18c241cfa9abc98f9cdb312cae1969fb5b9c15b35a0",
    "equilibrium_A1_json": "29dfbf86585ef7109f20288117669a0f39565a489455024dee89e59b4df58512",
    "equilibrium_B_text": "48ab4ea88721201457311fe1d88ad71ef525007edac04347acf90bb9b5e62dfb",
    "equilibrium_B_json": "56e5a04e1f2a561d81966e64c76ec70e76bc3b403abeead4d83f1fb54088997e",
    "dense_pareto_per_rho": "be4d0ec038066c7eac8b0e211a420bdd3feef473f2bda6b54106932f317f7ab4",
    "dense_statics_tau0.5": "73222defff3e50c44308285b8a9d59978ce3ab2ca3bb531a678b369ffbdef2d1",
    "dense_statics_tau3": "b30bf73f2a6f20006cbcc3f706ad34fb79886eda1b91baa7ff52d424b32f5c8e",
    "dense_statics_tau10": "f72aa46995af2b586a46c3d1bc5382a2221ee54bd877b18e309690a057c06fb5",
    "congested_sweep": "8c1f3421663784818003539d60270d1e0da5a4df53a32e0696155cfaeb42f45b",
    "congested_pareto_per_rho": "9b9ae74ecae9fd5347684f2695ef28d66db8b3cc03bda195113056d37f13b65e",
}


def _golden_outputs(tmp_path, capsys) -> dict[str, bytes]:
    outputs = {}
    for name, command in (
        ("i880_sweep", lambda out: cmd_sweep(i880_config(), out)),
        ("i880_pareto_per_rho", lambda out: cmd_pareto(i880_config(), out, per_rho=True)),
        ("i880_statics_tau3", lambda out: cmd_statics(i880_config(), 3.0, out)),
        ("dense_sweep", lambda out: cmd_sweep(_dense_config(), out)),
        ("dense_pareto_per_rho", lambda out: cmd_pareto(_dense_config(), out, per_rho=True)),
        ("dense_statics_tau0.5", lambda out: cmd_statics(_dense_config(), 0.5, out)),
        ("dense_statics_tau3", lambda out: cmd_statics(_dense_config(), 3.0, out)),
        ("dense_statics_tau10", lambda out: cmd_statics(_dense_config(), 10.0, out)),
        ("congested_sweep", lambda out: cmd_sweep(_congested_config(), out)),
        ("congested_pareto_per_rho", lambda out: cmd_pareto(_congested_config(), out, per_rho=True)),
    ):
        out = tmp_path / f"{name}.csv"
        assert command(out) == 0
        outputs[name] = out.read_bytes()
    for label, tau, rho in (("A1", 4.0, 0.25), ("B", 0.5, 0.75)):
        for kind, json_output in (("text", False), ("json", True)):
            assert cmd_equilibrium(i880_config(), tau, rho, json_output=json_output) == 0
            outputs[f"equilibrium_{label}_{kind}"] = capsys.readouterr().out.encode()
    return outputs


def test_golden_outputs(tmp_path, capsys):
    digests = {
        name: hashlib.sha256(data).hexdigest() for name, data in _golden_outputs(tmp_path, capsys).items()
    }
    assert digests == GOLDEN_SHA256
