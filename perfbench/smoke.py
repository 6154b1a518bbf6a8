"""Smoke check: every workload runs on a reduced grid in both modes, the
outputs pass their checks, and the emitted metric names are exactly the ones
``BENCHMARK.json`` lists, with the same units.

    python3 perfbench/smoke.py

Exits 0 when all six runs pass; prints what differs otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

import run_all

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            try:
                result = run_all.run(workload, 1, 1, trace, smoke=True)["result"]
            except RuntimeError as exc:
                problems.append(str(exc))
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
                problems.append(f"{label}: bad result {result}")
            emitted = [(name, entry["unit"]) for name, entry in result["metrics"].items()]
            expected = [(m["name"], m["unit"]) for m in wanted[trace]]
            if emitted != expected:
                problems.append(f"{label}: metrics differ: {sorted(set(emitted) ^ set(expected))}")
            if not all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if len(problems) == before:
                print(f"ok {label}: {len(emitted)} metrics, {result['attempted']} commands")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
