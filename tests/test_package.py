"""The package's public surface: exactly these names, all of them defined, and no front end loaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import hotlane

PUBLIC_NAMES = [
    "BprParams",
    "DesignParams",
    "EquilibriumBatch",
    "EquilibriumOutcome",
    "GapNonPositive",
    "HotLaneError",
    "NoConvergence",
    "OracleConfig",
    "ParseError",
    "PopulationParams",
    "RegimeLabel",
    "StrategyShares",
    "ValidationError",
    "comparative_statics_scan",
    "oracle_equilibrium",
    "pareto_front",
    "solve",
    "solve_batch",
]
MODULES = ("errors", "latency", "population", "equilibrium", "oracle", "design", "cli")


def test_public_names():
    assert hotlane.__all__ == PUBLIC_NAMES
    assert all(hasattr(hotlane, name) for name in hotlane.__all__)


def test_module_all_names_exist():
    for name in MODULES:
        module = importlib.import_module(f"hotlane.{name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, f"hotlane.{name}.__all__ names undefined {missing}"


def test_import_loads_the_library_alone():
    """``import hotlane`` loads no front end: the CLI and argparse stay unloaded."""
    path = os.pathsep.join(filter(None, [str(Path(hotlane.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    code = "import sys, hotlane; loaded = {'hotlane.cli', 'argparse'} & set(sys.modules); assert not loaded, loaded"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})
