"""Exception types, and the integer, real, bool and array checks shared across the package."""

import math
import sys

import numpy as np

__all__ = [
    "PlevtError",
    "ParameterError",
    "DomainError",
    "NotEvaluableError",
    "FitInfeasibleError",
    "DegenerateSampleError",
    "CsvFormatError",
    "ExperimentRefusedError",
]

#: The largest integer that converts to a finite float.
_INT_MAX = int(sys.float_info.max)
#: The largest x with a finite exp(x): a log past it overflows on the way back.
_LOG_MAX = math.log(sys.float_info.max)


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
    """Malformed numeric CSV input; at ``line_no`` 0, input that could not be
    read at all, with ``content`` the reason."""

    def __init__(self, path: str, line_no: int, content: str):
        self.path = path
        self.line_no = line_no
        self.content = content
        super().__init__(f"{path}:{line_no}: not a number: {content!r}" if line_no
                         else f"{path}: unreadable input: {content}")


class ExperimentRefusedError(PlevtError, RuntimeError):
    """Experiment preconditions violated; carries the diagnostic record."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message)


def check_int(value, name: str, minimum: int | None = None, error=DomainError) -> int:
    """``value`` as an int >= ``minimum`` within the double range (every count
    meets a float somewhere); bools and non-integers raise ``error``."""
    if type(value) is not int:  # the common case skips the isinstance checks
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise error(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not -_INT_MAX <= value <= _INT_MAX:  # before any message prints its digits
        raise error(f"{name} must lie within the double range (+-{_INT_MAX:.4g}), "
                    f"got an integer of {value.bit_length()} bits")
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


def check_bool(value, name: str, error=DomainError) -> bool:
    """``value`` as a bool; anything but a ``bool`` or ``np.bool_`` (a string,
    ``None``, 0 or 1, NaN) raises ``error``, since its truth value is no flag."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_real_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; a dtype other than integer or float raises DomainError.

    Strings, bools, ``None`` (object arrays) and complex numbers are refused
    by one look at the dtype: no value is scanned, and C-order float64 input is not copied.
    Other layouts are copied to C order, as numpy's strided loops can differ in the last bit.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got an array of dtype {arr.dtype}")
    return np.asarray(arr, dtype=np.float64, order="C")


def check_int_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; a dtype other than integer (strings, bools,
    floats, which would truncate) raises DomainError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise DomainError(f"{name} must be integers, got an array of dtype {arr.dtype}")
    return np.asarray(arr, dtype=np.int64)


def check_sample(values, name: str) -> np.ndarray:
    """``values`` as a non-empty 1-d float64 array of finite reals, else DomainError."""
    arr = check_real_array(values, name)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-d array")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} values must all be finite")
    return arr
