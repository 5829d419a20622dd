"""Fock-basis building blocks for a truncated bosonic mode.

Everything is a plain ``numpy`` array; there are no wrapper types.
Conventions used throughout the package:

- hbar = 1, all matrices dimensionless.
- Fock basis |0>, ..., |d-1>, truncation dimension d.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigValidationError, InvalidDimensionError, InvalidModelError

MODELS = ("linear", "two-boson", "intensity")

# Quanta removed by one application of the lowering operator of each model.
LOWERED_QUANTA = {"linear": 1, "two-boson": 2, "intensity": 1}


def _check_dim(d: int) -> None:
    if not isinstance(d, numbers.Integral) or d < 1:
        raise InvalidDimensionError(f"truncation dimension must be an integer >= 1, got {d!r}")


def model_band(model: str, d: int) -> np.ndarray:
    """The one diagonal r_n = R0[n - k', n], n = k', ..., d - 1, of a model's R0.

    R0 is the static lowering part of the drive coupling; the engines attach
    the oscillating factor exp(-i k omega tau). Each R0 lowers by k' quanta
    and so occupies a single diagonal, written as a product of sqrt(n) columns:

    - ``linear``:    b                  r_n = sqrt(n)
    - ``two-boson``: b^2                r_n = sqrt(n - 1) sqrt(n)
    - ``intensity``: b sqrt(b^dag b)    r_n = sqrt(n) sqrt(n)
    """
    if model not in MODELS:
        raise InvalidModelError(f"unknown model {model!r}, expected one of {MODELS}")
    _check_dim(d)
    root = np.sqrt(np.arange(d))
    if model == "linear":
        return root[1:]
    if model == "two-boson":
        return root[1:-1] * root[2:]
    return root[1:] * root[1:]


def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs deviation of u^dag u from the identity, the largest over a stack of u."""
    return float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]))))


def coherent_vector(gamma: complex, d: int) -> np.ndarray:
    """Truncated coherent-state column vector, entries e^{-|g|^2/2} g^n / sqrt(n!).

    The entries are built by the stable running product, not by factorials.
    The vector is left unnormalized: its norm falls short of 1 by the
    truncated Poisson tail, which is how far |gamma| overflows dim. A
    non-finite gamma, one whose |gamma|^2 overflows, or one that is not a number
    is rejected.
    """
    _check_dim(d)
    if not isinstance(gamma, numbers.Complex):
        raise ConfigValidationError(f"coherent amplitude {gamma!r} is not a number")
    size = math.hypot(gamma.real, gamma.imag)  # abs() and ** raise on overflow
    if not math.isfinite(size * size):
        raise ConfigValidationError(
            f"coherent amplitude {gamma!r} is not finite or |amplitude|^2 overflows"
        )
    c = np.zeros(d, dtype=complex)
    amp = np.exp(-0.5 * abs(gamma) ** 2)
    c[0] = amp
    for n in range(1, d):
        amp = amp * gamma / np.sqrt(n)
        c[n] = amp
    return c

