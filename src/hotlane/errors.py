"""Exception types shared across the package, and the parameter domain.

``_DOMAIN`` is the one statement of every numeric parameter field's range:
:func:`check_fields` applies it to a parameter dataclass, and :func:`check`
to named floats, numpy columns or the ``rho_values`` grid.
"""

import math

import numpy as np


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
      open. The oracle's message says "cap" (its ``MAX_LABELINGS``
      labelings); the solver's says "still open after" its ``MAX_BISECT``
      steps.
    * Straddle (the message says "straddle"): the grid oracle found no
      self-consistent grid state, and the nearest one is further than the
      ``2/grid_n`` floor from self-consistency. No number of iterations
      changes that.
    * Residual gate (the message says "residual ... exceeds"): the solver's
      root leaves its printed regime equation with a residual above
      ``RESIDUAL_TOL``.

    Only the cap means that more steps can help; a straddle or a residual
    failure gives the same error after any number of iterations.
    ``last_value`` and ``residual`` carry the best state reached and its
    error where the raiser has them, and are ``None`` otherwise.
    """

    def __init__(self, message: str, last_value=None, residual: float | None = None):
        super().__init__(message)
        self.last_value = last_value
        self.residual = residual


class GapNonPositive(HotLaneError):
    """``GapNonPositive(gap)``: the all-ordinary latency gap is a float that is not positive, unlike its exact value."""

    def __str__(self) -> str:
        cause = "a congestion power underflowed or the HOT capacity is 0"
        return f"all-ordinary latency gap {self.args[0]} is not a positive float: {cause}"


# The parameter domain: one (rule, text) per numeric field of the parameter types,
# elementwise over floats or numpy arrays; the rho_values rule takes the whole grid,
# the chain 0 < rho_0 < ... < rho_last < 1. check_fields rejects infinities before
# any rule; the tau and occupancy rules also reject them, for the design columns.
_DOMAIN = {
    **dict.fromkeys(
        ("demand", "beta_max", "gamma_max", "a", "t_free", "v_cap", "tau_min", "tau_step"),
        (lambda x: x > 0.0, "be > 0"),
    ),
    "b": (lambda x: x >= 1.0, "be >= 1"),
    "rho": (lambda x: (0.0 < x) & (x < 1.0), "lie in the open interval (0, 1)"),
    "tau": (lambda x: (0.0 < x) & (x < math.inf), "be finite and > 0"),
    "occupancy": (lambda x: (2.0 <= x) & (x < math.inf), "be finite and >= 2"),
    "grid_n": (lambda x: (x >= 10) & (x % 1 == 0), "be a whole number >= 10"),
    "rho_values": (
        lambda x: len(x) > 0 and all(a < b for a, b in zip((0.0, *x), (*x, 1.0))),
        "be non-empty and strictly increasing within (0, 1)",
    ),
}


def check(**values) -> None:
    """Raise ``ValidationError`` at the first value outside its ``_DOMAIN`` rule.

    ``values`` maps field names to floats or 1-d numpy arrays, and
    ``rho_values`` to a tuple; they are checked in the order given, and in
    an array the message names the first bad index as a design point.
    """
    for name, value in values.items():
        holds, rule = _DOMAIN[name]
        ok = holds(value)
        if isinstance(ok, np.ndarray):
            if np.count_nonzero(ok) < ok.size:  # ok.all() costs 3x as much on a short column
                i = int(np.argmin(ok))
                raise ValidationError(f"design point {i}: {name} must {rule}, got {value[i]}")
        elif not ok:
            raise ValidationError(f"{name} must {rule}, got {value}")


def check_fields(params) -> None:
    """Raise ``ValidationError`` naming the first float field of the dataclass ``params``
    that is not finite, then the first field outside its ``_DOMAIN`` rule."""
    fields = vars(params)
    for name, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    check(**{name: value for name, value in fields.items() if name in _DOMAIN})
