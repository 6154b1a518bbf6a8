"""Workload definitions: calibrations, design grids and CLI command sequences.

Everything hotlane receives is generated here from the workload name and
the seed: a config file in the ``key = value`` format (or the
``--i880-defaults`` flag) and the argument lists of the CLI commands. Seed 0
gives evenly spaced grids; any other seed moves every ``rho`` and the first
toll of the dense and congested grids by up to half a grid step, so a
held-out seed keeps the grid size and the regime mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The I-880 calibration published with the paper (and built into the CLI as
# --i880-defaults). Copied here so the reference and the checks do not read
# it from the code under test.
I880 = {
    "demand": 115.0,
    "beta_max": 1.5,
    "gamma_max": 8.0,
    "a": 0.15,
    "b": 4.0,
    "t_free": 22.0,
    "v_cap": 140.0,
    "occupancy": 2.5,
}
I880_RHO = (0.25, 0.5, 0.75)
I880_TAU = tuple(0.5 + 0.5 * i for i in range(20))
I880_STATICS_TAU = 3.0

# Heavier demand on a steeper curve: Regime B dominates and the solver's
# failure paths (NoConvergence, BracketFailure) are exercised.
CONGESTED = dict(I880, demand=250.0, a=0.6)

# Dense grid: rho in [0.05, 0.95] x tau in [0.1, ~12].
DENSE_RHO = (0.05, 0.95, 50)
DENSE_TAU = (0.1, 12.0, 100)
SMOKE_RHO = (0.05, 0.95, 10)
SMOKE_TAU = (0.1, 12.0, 20)
# One toll per regime for the statics scans: B-heavy, A1-heavy and one with
# A2 points at high rho.
SWEEP_STATICS_TAU = (0.5, 3.0, 10.0)

NAMES = ("i880_verify", "dense_sweep", "congested_sweep")


@dataclass(frozen=True)
class Command:
    kind: str  # sweep | pareto | statics | verify
    argv: tuple[str, ...]
    out: str | None  # CSV path the command writes, if any
    points: int  # design points the command evaluates


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    rho: tuple[float, ...]  # ascending, as the CLI orders its grid
    tau: tuple[float, ...]
    source: tuple[str, ...]  # CLI arguments that select the parameter source
    config_text: str | None
    statics_tau: tuple[float, ...]
    verify_grid_n: int | None  # run verify at every grid point when set
    verify_points: tuple[tuple[float, float], ...]

    def grid(self) -> list[tuple[float, float]]:
        """(rho, tau) pairs in sweep-CSV row order: rho outer, tau inner."""
        return [(rho, tau) for rho in self.rho for tau in self.tau]

    def commands(self, outdir: Path) -> list[Command]:
        src = list(self.source)
        n = len(self.rho) * len(self.tau)
        cmds = [
            Command("sweep", tuple(src + ["sweep", "--out", str(outdir / "sweep.csv")]), str(outdir / "sweep.csv"), n),
            Command(
                "pareto",
                tuple(src + ["pareto", "--per-rho", "--out", str(outdir / "pareto.csv")]),
                str(outdir / "pareto.csv"),
                n,
            ),
        ]
        for i, tau in enumerate(self.statics_tau):
            out = str(outdir / f"statics{i}.csv")
            cmds.append(Command("statics", tuple(src + ["statics", "--tau", repr(tau), "--out", out]), out, len(self.rho)))
        for rho, tau in self.verify_points:
            argv = src + ["verify", "--tau", repr(tau), "--rho", repr(rho), "--grid-n", str(self.verify_grid_n)]
            cmds.append(Command("verify", tuple(argv), None, 1))
        return cmds


def _config_text(params: dict, rho: np.ndarray, tau_min: float, tau_step: float, n_tau: int) -> str:
    # tau_max sits half a step past the last toll, so the CLI's
    # int((tau_max - tau_min) / tau_step) count is immune to rounding.
    lines = [
        f"population.demand = {params['demand']!r}",
        f"population.beta_max = {params['beta_max']!r}",
        f"population.gamma_max = {params['gamma_max']!r}",
        f"bpr.a = {params['a']!r}",
        f"bpr.b = {params['b']!r}",
        f"bpr.t_free = {params['t_free']!r}",
        f"bpr.v_cap = {params['v_cap']!r}",
        f"occupancy = {params['occupancy']!r}",
        "rho_values = " + ", ".join(repr(float(r)) for r in rho),
        f"tau_min = {tau_min!r}",
        f"tau_max = {tau_min + (n_tau - 0.5) * tau_step!r}",
        f"tau_step = {tau_step!r}",
    ]
    return "\n".join(lines) + "\n"


def make(name: str, seed: int, config_path: Path, smoke: bool = False) -> Workload:
    """Build the named workload for the seed; ``smoke`` shrinks every grid."""
    if name == "i880_verify":
        points = [(rho, tau) for rho in I880_RHO for tau in I880_TAU]
        if smoke:
            points = points[::10]
        return Workload(
            name, I880, I880_RHO, I880_TAU, ("--i880-defaults",), None, (I880_STATICS_TAU,), 2000, tuple(points)
        )
    if name not in ("dense_sweep", "congested_sweep"):
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
    params = I880 if name == "dense_sweep" else CONGESTED
    rho_lo, rho_hi, n_rho = SMOKE_RHO if smoke else DENSE_RHO
    tau_lo, tau_hi, n_tau = SMOKE_TAU if smoke else DENSE_TAU
    rho = np.linspace(rho_lo, rho_hi, n_rho)
    rho_step = (rho_hi - rho_lo) / (n_rho - 1)
    tau_step = (tau_hi - tau_lo) / (n_tau - 1)
    tau_min = tau_lo
    if seed != 0:
        rng = np.random.default_rng(seed)
        rho = rho + rng.uniform(-0.5, 0.5, n_rho) * rho_step
        tau_min = tau_lo + float(rng.uniform(-0.5, 0.5)) * tau_step
    if not np.all(np.diff(rho) > 0):
        raise ValueError(f"seed {seed} produced a rho grid that is not strictly increasing")
    text = _config_text(params, rho, tau_min, tau_step, n_tau)
    # The same arithmetic as RunConfig.tau_values, so grid values match bit for bit.
    tau = tuple(tau_min + i * tau_step for i in range(n_tau))
    return Workload(
        name,
        params,
        tuple(float(r) for r in rho),
        tau,
        ("--config", str(config_path)),
        text,
        SWEEP_STATICS_TAU,
        None,
        (),
    )
