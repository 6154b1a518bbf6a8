"""Exception types shared across the package, and the finiteness check of the parameter types."""

import math


class HotLaneError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HotLaneError, ValueError):
    """A parameter or derived value violates a documented invariant."""


class ParseError(HotLaneError, ValueError):
    """A configuration file could not be parsed; message carries line/key."""


class NoConvergence(HotLaneError):
    """A search ended without an answer that meets its tolerance.

    It is raised in three cases:

    * Cap: a bracketing search spent its step cap with the bracket still
      open. The oracle's message says "cap" (``OracleConfig.max_iters``
      labelings); the solver's says "still open after" its ``MAX_BISECT``
      steps.
    * Straddle (the message says "straddle"): the grid oracle found no
      self-consistent grid state, and the nearest one is further than the
      ``2/grid_n`` floor from self-consistency. No number of iterations
      changes that.
    * Residual gate (the message says "residual ... exceeds"): the solver's
      root leaves its printed regime equation with a residual above
      ``RESIDUAL_TOL``.

    Only the cap means that a larger cap can help; retrying a straddle or a
    residual failure with more iterations gives the same error.
    ``last_value`` and ``residual`` carry the best state reached and its
    error where the raiser has them, and are ``None`` otherwise.
    """

    def __init__(self, message: str, last_value=None, residual: float | None = None):
        super().__init__(message)
        self.last_value = last_value
        self.residual = residual


class GapNonPositive(HotLaneError):
    """No strategy profile yields a faster HOT lane; bad latency parameters."""


def require_finite(params) -> None:
    """Raise ``ValidationError`` naming the first float field of the dataclass ``params`` that is not finite."""
    for name, value in vars(params).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
