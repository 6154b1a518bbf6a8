"""The package's public surface: exactly these names, all of them defined, no front end loaded and no
undeclared dependency imported."""

import ast
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


def _imported_roots(path: Path) -> set[str]:
    """The top-level module of every absolute import in the file at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_imports_only_the_declared_dependencies():
    """The package, its tests and its demos import the standard library, numpy and hotlane alone (the tests
    also pytest, hypothesis and their own modules): pyproject.toml declares nothing else, so an import of
    another package installed where the tests run, such as scipy or mpmath, would fail on a clean install."""
    root = Path(__file__).parents[1]
    allowed = set(sys.stdlib_module_names) | {"numpy", "hotlane"}
    tests = {path.stem for path in (root / "tests").glob("*.py")}
    undeclared = {}
    for folder, extra in (("src/hotlane", set()), ("tests", {"pytest", "hypothesis"} | tests), ("demos", set())):
        for path in sorted((root / folder).glob("**/*.py")):
            if found := _imported_roots(path) - allowed - extra:
                undeclared[str(path.relative_to(root))] = sorted(found)
    assert not undeclared
