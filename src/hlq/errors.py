"""Exception types raised across the package.

The CLI maps these onto process exit codes: configuration and validation
problems exit with 1, numerical failures (truncation overflow, a non-finite
state) with 2, and I/O errors with 3.
"""


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
