"""hotlane benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes the separate traced run and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Every file the run writes goes under
``.perfbench/`` at the repository root: CSVs in a temporary directory that is
removed at the end, the full result with provenance in ``results/`` and the
spans of a traced run in ``spans/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import reference
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0  # the whole run, set-up included, ends within this
SETUP_LAUNCHES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sweep_points_per_s": "points/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "latency.gap_us": "us",
    "latency.calls_per_point": "count",
    "latency.self_s": "s",
    "population.region_us": "us",
    "population.calls_per_point": "count",
    "population.self_s": "s",
    "equilibrium.solve_us_p50": "us",
    "equilibrium.solve_us_p99": "us",
    "equilibrium.solve_us.A1": "us",
    "equilibrium.solve_us.A2": "us",
    "equilibrium.solve_us.B": "us",
    "equilibrium.iters_p50": "count",
    "equilibrium.self_s": "s",
    "equilibrium.useful_ratio": "ratio",
    "equilibrium.fail.BracketFailure": "count",
    "equilibrium.fail.NoConvergence": "count",
    "equilibrium.fail.other": "count",
    "oracle.ms_p50": "ms",
    "oracle.ms_max": "ms",
    "oracle.ms.grid500": "ms",
    "oracle.ms.grid2000": "ms",
    "oracle.iters_p50": "count",
    "oracle.useful_ratio": "ratio",
    "oracle.self_s": "s",
    "design.self_s": "s",
    "design.pareto_ms": "ms",
    "cli.self_s": "s",
    "cli.csv_us_per_row": "us",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "bench.self_s": "s",
    "fail_frac": "ratio",
    "wrong_frac": "ratio",
    "verify_points_per_s": "points/s",
}


class RunFailed(Exception):
    """The benchmark could not run or measure (not an output defect)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    # Byte code goes under .perfbench/, so src/ is left exactly as it was.
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:  # one process, one thread
        env.setdefault(var, "1")
    return env


def provenance(seed: int, env: dict[str, str]) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "threads": {var: env.get(var) for var in THREAD_VARS},
    }


def measure_setup(source: tuple[str, ...], env: dict[str, str], launches: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter to imported hotlane and a parsed config, whole process.

    Returns the raw launch times and the same at reference speed, each scaled
    by the machine-speed probes taken just before and just after the launch.
    """
    code = "import sys\nfrom hotlane.cli import main\nraise SystemExit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, *source, "--dump-config"]
    raw, scaled = [], []
    probes = [speed.probe()]
    for i in range(launches + 1):  # the first launch fills the byte-code cache and is not counted
        start = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed = perf_counter() - start
        if done.returncode != 0:
            raise RunFailed(f"set-up launch failed: {done.stderr.decode(errors='replace').strip()}")
        probes.append(speed.probe())
        if i:
            raw.append(elapsed)
            scaled.append(speed.at_reference(elapsed, probes[-2:]))
    return raw, scaled


def run_child(spec: dict, tmp: Path, env: dict[str, str], timeout: float) -> dict:
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)], cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"workload process did not finish within {timeout:.0f} s") from None
    if code != 0:
        raise RunFailed(f"workload process exited with code {code}")
    return json.loads(Path(spec["result"]).read_text())


def unexpected_exits(commands: list[workloads.Command], rcs: list[int]) -> int:
    """Commands that failed as operations. Sweep, pareto and statics exit 1 when
    some design points fail and still write every row, so only other codes
    count; a verify is one point and fails on any nonzero code."""
    return sum(rc not in ((0,) if cmd.kind == "verify" else (0, 1)) for cmd, rc in zip(commands, rcs))


def check_outputs(wl: workloads.Workload, commands: list[workloads.Command], ref: np.ndarray) -> dict:
    by_kind = {cmd.kind: cmd for cmd in commands}
    sweep = checks.check_sweep(by_kind["sweep"].out, wl.grid(), ref)
    checks.check_pareto(by_kind["pareto"].out, sweep, wl.rho)
    for cmd in commands:
        if cmd.kind == "statics":
            checks.check_statics(cmd.out, wl.rho)
    return {key: sweep[key] for key in ("errors", "wrong", "regimes", "worst")}


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced grids, for checking the harness only")
    args = parser.parse_args(argv)
    begin = perf_counter()

    if not (ROOT / "src" / "hotlane" / "__init__.py").is_file():
        print(f"error: no hotlane sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    for sub in ("tmp", "results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    try:
        return measure(args, tmp, begin)
    except (RunFailed, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path, begin: float) -> int:
    env = child_env()
    tag = ("smoke-" if args.smoke else "") + f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload, args.seed, tmp / "workload.cfg", smoke=args.smoke)
    if wl.config_text is not None:
        (tmp / "workload.cfg").write_text(wl.config_text)
    (tmp / "run").mkdir()
    (tmp / "traced").mkdir()
    commands = wl.commands(tmp / "run")
    traced_commands = wl.commands(tmp / "traced")
    grid = wl.grid()
    ref = reference.equilibrium_shares([g[0] for g in grid], [g[1] for g in grid], wl.params)

    setup_raw, setup = ([], []) if args.trace else measure_setup(wl.source, env, 3 if args.smoke else SETUP_LAUNCHES)
    spec = {
        "mode": "trace" if args.trace else "run",
        "seconds": args.seconds,
        "smoke": args.smoke,
        "commands": [dataclasses.asdict(cmd) for cmd in commands],
        "traced_commands": [dataclasses.asdict(cmd) for cmd in traced_commands],
        "params": wl.params,
        "grid": grid,
        "oracle_points": [(rho, tau) for rho in workloads.I880_RHO for tau in workloads.I880_TAU][
            :: 10 if args.smoke else 1
        ],
        "result": str(tmp / "result.json"),
        "spans": str(OUT / "spans" / f"{'smoke-' if args.smoke else ''}{args.workload}.npz"),
    }
    res = run_child(spec, tmp, env, DEADLINE_S - (perf_counter() - begin))

    passes = res["passes"] + ([res["traced"]] if args.trace else [])
    attempted = len(commands) * len(passes)
    failed = sum(unexpected_exits(commands, p["rc"]) for p in passes)

    # Output checks on the last untraced pass; every pass must write the same bytes.
    try:
        outputs = check_outputs(wl, commands, ref)
        if any(d != res["digests"][0] for d in res["digests"]):
            raise checks.OutputError("passes of one run wrote different CSV bytes")
        if args.trace and res["traced_digests"] != res["digests"][0]:
            raise checks.OutputError("the traced pass wrote different CSV bytes from the untraced pass")
    except (checks.OutputError, OSError) as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    last = res["passes"][-1]
    verify_fail = sum(rc != 0 for cmd, rc in zip(commands, last["rc"]) if cmd.kind == "verify")
    n_verify = sum(cmd.kind == "verify" for cmd in commands)
    points = len(grid) + n_verify
    fail_frac = (outputs["errors"] + verify_fail) / points
    wrong_frac = outputs["wrong"] / points
    sweep_at = [cmd.kind for cmd in commands].index("sweep")

    raw = {}
    if not args.trace:
        # End-to-end times are at reference speed (speed.py); the raw medians go to the result file.
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(sum(p["cmd_ref_s"]) for p in res["passes"]),
            "sweep_points_per_s": len(grid) / statistics.median(p["cmd_ref_s"][sweep_at] for p in res["passes"]),
            "ok_frac": 1.0 - fail_frac - wrong_frac,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        raw = {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(p["wall_s"] for p in res["passes"]),
            "sweep_points_per_s": len(grid) / statistics.median(p["cmd_s"][sweep_at] for p in res["passes"]),
            "probe_s": statistics.median(x for p in res["passes"] for x in p["probes"]),
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(res, commands, grid, fail_frac, wrong_frac)
        units = PER_LAYER

    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": wl.name,
        "provenance": provenance(args.seed, env),
        "passes": len(res["passes"]),
        "reference_probe_s": speed.REFERENCE_S,
        "raw": raw,
        "setup_samples_s": setup_raw,
        "sweep_points": len(grid),
        "verify_points": n_verify,
        "regimes": outputs["regimes"],
        "errors": outputs["errors"] + verify_fail,
        "wrong": outputs["wrong"],
        "worst_share_distance": outputs["worst"],
        "csv_sha256": res["digests"][0],
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({**result, "details": details}, indent=1) + "\n")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} passes={len(res['passes'])} points={points}")
    if raw:
        print("# raw, before scaling to reference speed: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def layer_metrics(res: dict, commands, grid, fail_frac: float, wrong_frac: float) -> dict:
    traced, untraced, micro = res["traced"], res["passes"][0], res["micro"]
    points_per_pass = sum(cmd.points for cmd in commands)
    layer_self = traced["layer_self_s"]
    calls = traced["layer_calls"]
    solve_us = np.array(res["solve"]["solve_s"]) * 1e6
    failures = dict(res["solve"]["failures"])
    oracle_ms = np.array(res["oracle"]["oracle_s"]) * 1e3
    verify_s = sum(dt for cmd, dt in zip(commands, untraced["cmd_s"]) if cmd.kind == "verify")
    n_verify = sum(cmd.kind == "verify" for cmd in commands)
    sweep_rows = len(grid)
    return {
        "latency.gap_us": micro["latency.gap_us"],
        "latency.calls_per_point": calls["latency"] / points_per_pass,
        "latency.self_s": layer_self["latency"],
        "population.region_us": micro["population.region_us"],
        "population.calls_per_point": calls["population"] / points_per_pass,
        "population.self_s": layer_self["population"],
        "equilibrium.solve_us_p50": pct(solve_us, 50),
        "equilibrium.solve_us_p99": pct(solve_us, 99),
        "equilibrium.solve_us.A1": micro["equilibrium.solve_us.A1"],
        "equilibrium.solve_us.A2": micro["equilibrium.solve_us.A2"],
        "equilibrium.solve_us.B": micro["equilibrium.solve_us.B"],
        "equilibrium.iters_p50": pct(res["solve"]["iterations"], 50),
        "equilibrium.self_s": layer_self["equilibrium"],
        "equilibrium.useful_ratio": len(res["solve"]["iterations"]) / len(solve_us),
        "equilibrium.fail.BracketFailure": failures.pop("BracketFailure", 0),
        "equilibrium.fail.NoConvergence": failures.pop("NoConvergence", 0),
        "equilibrium.fail.other": sum(failures.values()),
        "oracle.ms_p50": pct(oracle_ms, 50),
        "oracle.ms_max": float(oracle_ms.max()),
        "oracle.ms.grid500": micro["oracle.ms.grid500"],
        "oracle.ms.grid2000": micro["oracle.ms.grid2000"],
        "oracle.iters_p50": pct(res["oracle"]["iterations"], 50),
        "oracle.useful_ratio": res["oracle"]["converged"] / len(oracle_ms),
        "oracle.self_s": layer_self["oracle"],
        "design.self_s": layer_self["design"],
        "design.pareto_ms": traced["pareto_ms"],
        "cli.self_s": layer_self["cli"],
        "cli.csv_us_per_row": traced["sweep_cli_self_s"] / sweep_rows * 1e6,
        "cli.bytes_written": sum(Path(cmd.out).stat().st_size for cmd in commands if cmd.out),
        "trace.overhead_frac": traced["work_wall_s"] / untraced["wall_s"] - 1.0,
        "trace.wall_s": traced["wall_s"],
        "bench.self_s": traced["wall_s"] - sum(layer_self.values()),
        "fail_frac": fail_frac,
        "wrong_frac": wrong_frac,
        "verify_points_per_s": n_verify / verify_s if n_verify else 0.0,
    }


if __name__ == "__main__":
    raise SystemExit(main())
