"""Exception types raised across the package, and the checks that raise them.

The CLI maps these onto process exit codes: configuration and validation
problems exit with 1, numerical failures (truncation overflow, a non-finite
state) with 2, and I/O errors with 3.

The input rules the modules share are written once, as three checks below.
Each takes the input's name, its value and the error class its caller
raises, and raises it with one message form, ``<name>: must be ..., got
<value!r>``:

- ``check_number``: a finite number. A complex number is finite when its
  modulus is (``<name>: must be finite, a number with |<name>| finite``).
  ``real`` asks for a real number (``must be finite, a real number``) and
  ``positive`` for a real number > 0. ``squared`` asks that 2 |value|^2 be
  finite, which holds for a modulus up to sqrt(max float / 2)
  (``must be finite, a number with |<name>| <= 9.480751908109176e+153``).
- ``check_integer``: an integer >= a least value (``must be an integer >= n``).
- ``check_member``: one of a tuple of names (``must be one of (...)``).

A number or an integer is an instance of ``numbers.Complex``,
``numbers.Real`` or ``numbers.Integral``, so numpy scalars pass and strings,
None and arrays do not; a ``bool`` is no integer (``steps=True`` is
refused). A value that fails any part of a rule gets that rule's one
message, whether it is of the wrong type or out of range.
"""

import math
import numbers
import sys

# The largest |value| whose 2 |value|^2 is finite.
_MOST_MODULUS = math.sqrt(sys.float_info.max / 2.0)


class HlqError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(HlqError):
    """Truncation dimension or array shape is unusable."""


class InvalidModelError(HlqError):
    """Unknown oscillator model name."""


class InvalidPreparationError(HlqError):
    """Spin amplitudes are not normalized or inconsistent with the run."""


class InvalidCoherenceError(HlqError):
    """Requested |zeta| outside the reachable range [0, 1/2]."""


class ConfigParseError(HlqError):
    """Malformed config text. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConfigValidationError(HlqError):
    """Config parsed fine but a value is out of range or inconsistent."""


class TruncationOverflowError(HlqError):
    """State leaked into the top of the truncated Fock space.

    Raised when the combined population of the two highest Fock levels
    reaches 1e-6; results past that point would be cutoff artifacts.
    """

    def __init__(self, step: int, population: float):
        self.step = step
        self.population = population
        super().__init__(
            f"top-two Fock level population {population:.3e} at step {step} "
            f"exceeds 1e-6; increase dim"
        )


class NonFiniteStateError(HlqError):
    """The state stopped being finite: a step overflowed float64 or produced NaN."""

    def __init__(self, step: int, quantity: str, value):
        self.step = step
        super().__init__(f"{quantity} {value} at step {step} is not finite; reduce dt or eta")


def check_number(name: str, value, error, *, real=False, positive=False, squared=False) -> None:
    """Raise error(message) unless value is a finite number: a real one for ``real``,
    a real one > 0 for ``positive``, one with 2 |value|^2 finite for ``squared``."""
    real = real or positive
    size = math.nan
    if isinstance(value, numbers.Real if real else numbers.Complex):
        try:  # hypot, unlike abs() of a complex, returns inf instead of raising on overflow
            size = math.hypot(value.real, value.imag)
        except OverflowError:  # an int past the float range
            size = math.inf
    if not math.isfinite(2.0 * size * size if squared else size) or positive and not value > 0:
        if real:
            kind = "a real number > 0" if positive else "a real number"
        else:
            kind = f"a number with |{name}| " + (f"<= {_MOST_MODULUS!r}" if squared else "finite")
        raise error(f"{name}: must be finite, {kind}, got {value!r}")


def check_integer(name: str, value, least: int, error) -> None:
    """Raise error(message) unless value is an integer >= least and not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise error(f"{name}: must be an integer >= {least}, got {value!r}")


def check_member(name: str, value, allowed: tuple, error) -> None:
    """Raise error(message) unless value is one of allowed."""
    if value not in allowed:
        raise error(f"{name}: must be one of {allowed}, got {value!r}")
