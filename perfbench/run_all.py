"""Run every workload of the benchmark with one command.

    python3 perfbench/run_all.py --seed 0 --seconds 30 --trace both --write perfbench/baseline_seed0.json

Each workload runs through ``run.py`` in its own process, exactly as a single
run would; its metric table is printed as it finishes. With ``--write`` the
results of all runs, with their provenance, CSV digests and regime counts,
are collected into one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("i880_verify", "dense_sweep", "congested_sweep")


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One ``run.py`` invocation; returns its result line and the full result file."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace}: exit {done.returncode}: {done.stderr.strip()}")
    tag = ("smoke-" if smoke else "") + f"{workload}-seed{seed}-trace{trace}"
    full = json.loads((ROOT / ".perfbench" / "results" / f"{tag}.json").read_text())
    return {"stdout": done.stdout, "result": json.loads(done.stdout.strip().splitlines()[-1]), "full": full}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--write", metavar="PATH", help="collect every result into this JSON file")
    args = parser.parse_args()
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    collected: dict[str, dict] = {}
    for workload in WORKLOADS:
        for trace in traces:
            out = run(workload, args.seed, args.seconds, trace)
            print(out["stdout"].strip().rsplit("\n", 1)[0], flush=True)
            collected.setdefault(workload, {})[f"trace{trace}"] = out["full"]
    if args.write:
        Path(args.write).write_text(json.dumps(collected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
