"""The workload process: runs the CLI command sequence in-process and times it.

Started by ``run.py`` as ``python3 perfbench/child.py SPEC.json`` with
``src`` on the path; writes its measurements to the spec's ``result`` path.
One process per workload run, so ``ru_maxrss`` belongs to this workload.

* ``mode == "run"``: closed loop, one thread. Whole passes of the command
  sequence run back to back while the next pass still fits in ``seconds``
  (at least one pass). The machine-speed probe of ``speed.py`` runs between
  commands, so every command time is also known at reference speed.
* ``mode == "trace"``: one untraced pass, one traced pass followed by one
  call into each layer's public functions (``touch_layers``, so every layer
  shows in every trace), then untraced micro-timings of those functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import hotlane.cli
from hotlane.design import evaluate_design, pareto_front
from hotlane.equilibrium import solve
from hotlane.errors import HotLaneError
from hotlane.latency import BprParams, DesignParams, StrategyShares, latency_gap
from hotlane.oracle import OracleConfig, oracle_equilibrium
from hotlane.population import PopulationParams, region_measures_at_gap

import speed
from spans import LAYERS, SpanRecorder, self_times
from workloads import I880

PROBE_EVERY_S = 0.5  # how often the machine-speed probe runs between commands


def calibration(p: dict) -> tuple[PopulationParams, BprParams]:
    pop = PopulationParams(demand=p["demand"], beta_max=p["beta_max"], gamma_max=p["gamma_max"])
    return pop, BprParams(a=p["a"], b=p["b"], t_free=p["t_free"], v_cap=p["v_cap"])


I880_POP, I880_BPR = calibration(I880)
# Fixed points for the micro-timings. The I-880 point rho=0.5, tau=3.0 is
# Regime A1 and rho=0.75, tau=0.5 is Regime B. The A2 point is the one the
# unit tests use: steep curve, tau above gamma_max.
FIXED = {
    "A1": (DesignParams(rho=0.5, tau=3.0, occupancy=2.5), I880_POP, I880_BPR),
    "A2": (
        DesignParams(rho=0.7, tau=1.5, occupancy=3.0),
        PopulationParams(demand=115.0, beta_max=2.0, gamma_max=1.0),
        BprParams(a=1.0, b=4.0, t_free=22.0, v_cap=140.0),
    ),
    "B": (DesignParams(rho=0.75, tau=0.5, occupancy=2.5), I880_POP, I880_BPR),
}


def run_command(main, argv: list[str]) -> tuple[int, float]:
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = main(argv)
    return rc, perf_counter() - start


def run_pass(commands: list[dict], main=hotlane.cli.main, probe_every: float | None = None) -> dict:
    """One pass of the command sequence through the CLI entry point ``main``.

    With ``probe_every`` set, the machine-speed probe runs before the first
    command, between commands once that many seconds have passed since the
    last probe, and after the last command. Each command's time is then also
    given at reference speed, scaled by the probes just before and after it.
    """
    probes: list[float] = []
    before: list[int] = []
    last = -math.inf
    rcs, times = [], []
    for cmd in commands:
        if probe_every is not None and perf_counter() - last >= probe_every:
            probes.append(speed.probe())
            last = perf_counter()
        before.append(len(probes) - 1)
        rc, dt = run_command(main, cmd["argv"])
        rcs.append(rc)
        times.append(dt)
    out = {"wall_s": sum(times), "rc": rcs, "cmd_s": times}
    if probe_every is not None:
        probes.append(speed.probe())
        out["cmd_ref_s"] = [speed.at_reference(dt, probes[b : b + 2]) for dt, b in zip(times, before)]
        out["probes"] = probes
    return out


def digests(commands: list[dict]) -> dict[str, str]:
    return {
        Path(cmd["out"]).name: hashlib.sha256(Path(cmd["out"]).read_bytes()).hexdigest()
        for cmd in commands
        if cmd["out"] is not None
    }


def repeat_us(fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` of the mean time of ``calls`` calls, in microseconds."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls)
    return statistics.median(samples) * 1e6


def touch_layers(rec: SpanRecorder) -> None:
    """One call into each layer's public functions, recorded as root spans."""
    design, pop, bpr = FIXED["A1"]
    rec.wrap("latency.latency_gap", latency_gap)(StrategyShares(0.0, 0.2, 0.8), design, pop.demand, bpr)
    rec.wrap("population.region_measures_at_gap", region_measures_at_gap)(1.0, design.tau, pop)
    for point in FIXED.values():
        rec.wrap("equilibrium.solve", solve)(*point)
    results = [rec.wrap("design.evaluate_design", evaluate_design)(*FIXED[k]) for k in ("A1", "B")]
    rec.wrap("design.pareto_front", pareto_front)(results)
    rec.wrap("oracle.oracle_equilibrium", oracle_equilibrium)(design, pop, bpr, OracleConfig(grid_n=500))


def traced_pass(spec: dict) -> dict:
    rec = SpanRecorder()
    rec.install()
    try:
        start = perf_counter()
        work = run_pass(spec["traced_commands"], main=rec.wrap("cli.main", hotlane.cli.main))
        n_work = len(rec)
        touch_layers(rec)
        wall = perf_counter() - start
    finally:
        rec.restore()
    rec.save(spec["spans"])

    spans = rec.arrays()
    selfs = self_times(spans)
    names = np.array(rec.names)[spans["name_id"]]
    layer = np.array([LAYERS.index(name.split(".", 1)[0]) for name in rec.names])[spans["name_id"]]
    layer_self = np.bincount(layer, weights=selfs, minlength=len(LAYERS))
    layer_calls = np.bincount(layer[:n_work], minlength=len(LAYERS))
    roots = np.flatnonzero((spans["parent"][:n_work] == -1) & (names[:n_work] == "cli.main"))
    sweep_root = roots[[cmd["kind"] for cmd in spec["traced_commands"]].index("sweep")]
    durations = spans["end"] - spans["start"]
    pareto = durations[:n_work][names[:n_work] == "design.pareto_front"]
    return {
        "wall_s": wall,
        "work_wall_s": work["wall_s"],
        "rc": work["rc"],
        "layer_self_s": dict(zip(LAYERS, layer_self.tolist())),
        "layer_calls": dict(zip(LAYERS, layer_calls.tolist())),
        "sweep_cli_self_s": float(selfs[sweep_root]),
        "pareto_ms": float(pareto.max() * 1e3),
        "spans": len(rec),
    }


def solve_samples(spec: dict) -> dict:
    """One untraced ``solve`` call per sweep-grid point: time, iterations, failures."""
    pop, bpr = calibration(spec["params"])
    occupancy = spec["params"]["occupancy"]
    designs = [DesignParams(rho=rho, tau=tau, occupancy=occupancy) for rho, tau in spec["grid"]]
    times, iters, fails = [], [], {}
    for design in designs:
        start = perf_counter()
        try:
            out = solve(design, pop, bpr)
        except HotLaneError as exc:
            times.append(perf_counter() - start)
            fails[type(exc).__name__] = fails.get(type(exc).__name__, 0) + 1
            continue
        times.append(perf_counter() - start)
        iters.append(out.iterations)
    return {"solve_s": times, "iterations": iters, "failures": fails}


def oracle_samples(spec: dict) -> dict:
    """``oracle_equilibrium`` at every I-880 verify point, grid_n 2000."""
    cfg = OracleConfig(grid_n=2000)
    times, iters, converged = [], [], 0
    for rho, tau in spec["oracle_points"]:
        design = DesignParams(rho=rho, tau=tau, occupancy=I880["occupancy"])
        start = perf_counter()
        try:
            _, n = oracle_equilibrium(design, I880_POP, I880_BPR, cfg)
        except HotLaneError:
            times.append(perf_counter() - start)
            continue
        times.append(perf_counter() - start)
        iters.append(n)
        converged += 1
    return {"oracle_s": times, "iterations": iters, "converged": converged}


def micro(spec: dict) -> dict:
    scale = 10 if spec["smoke"] else 1
    design, pop, bpr = FIXED["A1"]
    sigma = StrategyShares(0.0, 0.2, 0.8)
    out = {
        "latency.gap_us": repeat_us(lambda: latency_gap(sigma, design, pop.demand, bpr), 2000 // scale, 7),
        "population.region_us": repeat_us(lambda: region_measures_at_gap(1.0, design.tau, pop), 5000 // scale, 7),
    }
    for regime, point in FIXED.items():
        out[f"equilibrium.solve_us.{regime}"] = repeat_us(lambda: solve(*point), 20 // scale, 7)
    for grid_n in (500, 2000):
        cfg = OracleConfig(grid_n=grid_n)
        out[f"oracle.ms.grid{grid_n}"] = repeat_us(lambda: oracle_equilibrium(design, pop, bpr, cfg), 1, 5) / 1e3
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result: dict = {}
    if spec["mode"] == "run":
        passes, outputs = [], []
        start = perf_counter()
        while True:
            passes.append(run_pass(spec["commands"], probe_every=PROBE_EVERY_S))
            outputs.append(digests(spec["commands"]))
            elapsed = perf_counter() - start
            if elapsed + passes[-1]["wall_s"] > spec["seconds"]:
                break
        result = {"passes": passes, "digests": outputs}
    else:
        untraced = run_pass(spec["commands"])
        result = {
            "passes": [untraced],
            "digests": [digests(spec["commands"])],
            "traced": traced_pass(spec),
            "traced_digests": digests(spec["traced_commands"]),
            "solve": solve_samples(spec),
            "oracle": oracle_samples(spec),
            "micro": micro(spec),
        }
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
