"""The package's public surface: exactly these names, and all of them defined."""

import importlib

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
    "RunConfig",
    "StrategyShares",
    "ValidationError",
    "comparative_statics_scan",
    "dump_config",
    "i880_config",
    "latency_gap",
    "load_config",
    "oracle_equilibrium",
    "pareto_front",
    "region_measures_at_gap",
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
