"""Exception types, and the integer- and real-argument checks, shared across the package."""

import numpy as np


class PlevtError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PlevtError, ValueError):
    """Distribution parameters outside their admissible range."""


class DomainError(PlevtError, ValueError):
    """Function argument outside the documented domain."""


class NotEvaluableError(PlevtError, ArithmeticError):
    """Quantity degenerates (0/0) in floating point at the requested point."""


class FitInfeasibleError(PlevtError, ValueError):
    """Sample moments admit no valid (theta, beta) solution."""

    def __init__(self, m1: float, m2: float, message: str | None = None):
        self.m1 = m1
        self.m2 = m2
        super().__init__(
            message
            or f"no admissible parameters for sample moments m1={m1!r}, m2={m2!r} "
            f"(need 1.5 < m2/m1^2 < 2)"
        )


class DegenerateSampleError(PlevtError, ValueError):
    """Sample carries no usable information (e.g. all top spacings zero)."""


class CsvFormatError(PlevtError, ValueError):
    """Malformed numeric CSV input."""

    def __init__(self, path: str, line_no: int, content: str):
        self.path = path
        self.line_no = line_no
        self.content = content
        super().__init__(f"{path}:{line_no}: not a number: {content!r}")


class ExperimentRefusedError(PlevtError, RuntimeError):
    """Experiment preconditions violated; carries the diagnostic record."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message)


def check_int(value, name: str, minimum: int | None = None, error=DomainError) -> int:
    """``value`` as an int >= ``minimum``; bools and non-integers raise ``error``."""
    if type(value) is not int:  # the common case skips the isinstance checks
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise error(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value


def check_real(value, name: str, error=DomainError) -> float:
    """``value`` as a float; bools, strings and other non-reals raise ``error``."""
    if type(value) is not float:  # the common case skips the isinstance checks
        if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
            raise error(f"{name} must be a real number, got {value!r}")
        value = float(value)
    return value
