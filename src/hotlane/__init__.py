"""Equilibrium analysis and design of high-occupancy toll (HOT) lanes.

A highway segment splits its capacity between ordinary lanes and HOT lanes;
travelers with heterogeneous values of time and carpool disutilities choose
between paying the toll, carpooling, or riding the ordinary lanes. The
package computes the unique population equilibrium for any capacity split
and toll price, validates it against a brute-force agent-grid oracle, and
sweeps design grids to trade average travel time against toll revenue.

Main entry points:

* :func:`hotlane.equilibrium.solve` / :func:`hotlane.equilibrium.solve_batch` -
  the equilibrium of one design point, or of a whole grid at once as numpy
  columns, as the root of the latency-gap fixed point, with its objectives.
* :func:`hotlane.oracle.oracle_equilibrium` - independent brute-force check.
* :func:`hotlane.design.pareto_front` /
  :func:`hotlane.design.comparative_statics_scan` - Pareto extraction and
  capacity statics.
* ``hotlane`` console script (or ``python -m hotlane``) - equilibrium /
  verify / sweep / pareto / statics commands over a config file or the
  built-in I-880 calibration. Its config API (``RunConfig``, ``i880_config``,
  ``load_config``, ``parse_config_text``, ``dump_config``) is :mod:`hotlane.cli`.
"""

from .errors import (
    GapNonPositive,
    HotLaneError,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .latency import (
    BprParams,
    DesignParams,
    StrategyShares,
)
from .population import PopulationParams
from .equilibrium import (
    EquilibriumBatch,
    EquilibriumOutcome,
    RegimeLabel,
    solve,
    solve_batch,
)
from .oracle import OracleConfig, oracle_equilibrium
from .design import comparative_statics_scan, pareto_front

__version__ = "0.1.0"

__all__ = [
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
