"""Config parsing, commands, CSV schemas, and exit codes."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hotlane import (
    BprParams,
    DesignParams,
    HotLaneError,
    ParseError,
    PopulationParams,
    RegimeLabel,
    ValidationError,
    pareto_front,
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
    config = i880_config()
    assert parse_config_text(dump_config(config)) == config


def test_parse_errors_report_line_and_key():
    with pytest.raises(ParseError, match="line 1"):
        parse_config_text("not a key value line")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config_text("mystery = 1.0")
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


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(I880_TEXT)
    assert load_config(path) == i880_config()


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


def test_cmd_verify_oracle_failure_distinct(capsys):
    import dataclasses

    config = i880_config()
    config = dataclasses.replace(config, oracle=dataclasses.replace(config.oracle, max_iters=2))
    assert cmd_verify(config, tau=1.0, rho=0.75) == 2
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
    message = rf"rho_values must be strictly increasing, got \({rho_values}\)"
    with pytest.raises(ValidationError, match=message):
        parse_config_text(text)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(path), "sweep", "--out", str(out)]) == 1
    assert "ValidationError: rho_values must be strictly increasing" in capsys.readouterr().err
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


def test_main_requires_config_source(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["equilibrium", "--tau", "1.0", "--rho", "0.5"])
    assert excinfo.value.code == 2


def test_main_requires_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--i880-defaults"])
    assert excinfo.value.code == 2


def test_main_config_and_defaults_conflict():
    with pytest.raises(SystemExit) as excinfo:
        main(["--config", "x.cfg", "--i880-defaults", "sweep", "--out", "y.csv"])
    assert excinfo.value.code == 2


def test_main_runs_verify(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(I880_TEXT + "oracle.grid_n = 400\n")
    code = main(["--config", str(path), "verify", "--tau", "4.0", "--rho", "0.25"])
    assert code == 0
    assert "max-norm distance" in capsys.readouterr().out


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


# sha256 of the CLI outputs, taken before the row formatter and the lane
# times were each given a single definition (the i880, dense_sweep and
# equilibrium entries) and before the batch became numpy columns (the
# dense_pareto, dense_statics and congested entries); every byte must stay
# the same.
GOLDEN_SHA256 = {
    "i880_sweep": "9f7d6c386e1b4ed47a6ef969db5899391266f90f7dedba13e2a922aff38b82cb",
    "i880_pareto_per_rho": "55ddd4e929db8bb03ebb482b4ad9971192c7836cc473b340f1aa87c399931d8e",
    "i880_statics_tau3": "6da167c478881b91198096b7b57e11f641c6f15b800ee701c9693ba2d5fb67ae",
    "dense_sweep": "24355b093c1d178a6bb309584880105159853a02444af8cb9dc06646d057cc9e",
    "equilibrium_A1_text": "b80ae76e863677624a28f18c241cfa9abc98f9cdb312cae1969fb5b9c15b35a0",
    "equilibrium_A1_json": "772288945385fb199e51284f7d20c4c74b0b2ae76f81c4e8afb764770827d711",
    "equilibrium_B_text": "46e3422d39b3776ad9076e9f2bbd770bf802d706a1428a587ac2c0c3a3a70045",
    "equilibrium_B_json": "8f89db304ac9b3134eb935374dc4ede7139d02f74cb5a12e5e14532be4f2b0ec",
    "dense_pareto_per_rho": "ec20cf32a40b0818d7e611e60503e5e95a50d78a80d5352e0dd6932379667e15",
    "dense_statics_tau0.5": "1dd2b3e979cdfc4f60a40e4d9f3170a9e1ede0a6dd81c324645e9ee02a1d0d51",
    "dense_statics_tau3": "8678d8aaf7a5470842dd4dd35396170a2b3ed5f36831feb9a8a54df8a1676690",
    "dense_statics_tau10": "0e651fa6b476ff62e53c23333ed79947c27876c488d2e2425786854cae5f3d0f",
    "congested_sweep": "05b4f374be32121dbece007e1b46ee21e5ea660004093543b37d44cc3401753c",
    "congested_pareto_per_rho": "d60e7589824922d8df3c2f9dc672851b5adce18f61c36ca029e21ff43b44d883",
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
