"""Exception types shared across the package."""


class HotLaneError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HotLaneError, ValueError):
    """A parameter or derived value violates a documented invariant."""


class ParseError(HotLaneError, ValueError):
    """A configuration file could not be parsed; message carries line/key."""


class NoConvergence(HotLaneError):
    """An iterative procedure hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, last_value=None, residual: float | None = None):
        super().__init__(message)
        self.last_value = last_value
        self.residual = residual


class InfeasibleClosure(HotLaneError):
    """Regime-B companion shares left the probability simplex."""


class GapNonPositive(HotLaneError):
    """No strategy profile yields a faster HOT lane; bad latency parameters."""


class EmptyInput(HotLaneError, ValueError):
    """An operation requiring a non-empty collection received an empty one."""
