"""Fock-basis building blocks for a truncated bosonic mode.

Everything is a plain ``numpy`` array; there are no wrapper types.
Conventions used throughout the package:

- hbar = 1, all matrices dimensionless.
- Fock basis |0>, ..., |d-1>, truncation dimension d.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigValidationError, InvalidDimensionError, InvalidModelError
from .errors import check_integer, check_member, check_number

MODELS = ("linear", "two-boson", "intensity")

# Quanta removed by one application of the lowering operator of each model.
LOWERED_QUANTA = {"linear": 1, "two-boson": 2, "intensity": 1}


def model_band(model: str, d: int) -> np.ndarray:
    """The one diagonal r_n = R0[n - k', n], n = k', ..., d - 1, of a model's R0.

    R0 is the static lowering part of the drive coupling; the engines attach
    the oscillating factor exp(-i k omega tau). Each R0 lowers by k' quanta
    and so occupies a single diagonal, written as a product of sqrt(n) columns:

    - ``linear``:    b                  r_n = sqrt(n)
    - ``two-boson``: b^2                r_n = sqrt(n - 1) sqrt(n)
    - ``intensity``: b sqrt(b^dag b)    r_n = sqrt(n) sqrt(n)
    """
    check_member("model", model, MODELS, InvalidModelError)
    check_integer("dim", d, 1, InvalidDimensionError)
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
    truncated Poisson tail, which is how far |gamma| overflows dim. A gamma
    that is not a number, or whose 2 |gamma|^2 is not finite, is rejected.
    """
    check_integer("dim", d, 1, InvalidDimensionError)
    check_number("gamma", gamma, ConfigValidationError, squared=True)
    c = np.zeros(d, dtype=complex)
    amp = np.exp(-0.5 * abs(gamma) ** 2)
    c[0] = amp
    for n in range(1, d):
        amp = amp * gamma / np.sqrt(n)
        c[n] = amp
    return c

