"""Exception types shared across the package."""


class TxaccelError(Exception):
    """Base class for all txaccel errors."""


class InvalidArgumentError(TxaccelError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedProblemError(TxaccelError, ValueError):
    """The physical problem has no solution in the supported class (e.g. c >= 1)."""


class InvalidConfigError(TxaccelError, ValueError):
    """A configuration object fails validation."""


class InsufficientHistoryError(TxaccelError, IndexError):
    """A sequence position does not have enough trailing terms for the
    requested window."""


class NumericalFailureError(TxaccelError, RuntimeError):
    """A numerical self-check failed (a non-positive eigenvalue, an
    ill-conditioned boundary system, a rounding error bound above
    tolerance).  Carries a diagnostics dict."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class FormulaSyntaxError(TxaccelError, ValueError):
    """Malformed formula text.  ``position`` is the character offset of the
    first offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
