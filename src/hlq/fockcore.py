"""Dense linear algebra for a truncated bosonic mode.

Everything is a plain ``numpy`` array of complex128; there are no wrapper
types. Conventions used throughout the package:

- hbar = 1, all matrices dimensionless.
- Fock basis |0>, ..., |d-1>, truncation dimension d.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDimensionError, InvalidModelError

MODELS = ("linear", "two-boson", "intensity")

# Quanta removed by one application of the lowering operator of each model.
LOWERED_QUANTA = {"linear": 1, "two-boson": 2, "intensity": 1}


def annihilation_matrix(d: int) -> np.ndarray:
    """Lowering operator b in the truncated Fock basis, b|n> = sqrt(n)|n-1>."""
    if d < 1:
        raise InvalidDimensionError(f"truncation dimension must be >= 1, got {d}")
    b = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    b[ns - 1, ns] = np.sqrt(ns)
    return b


def number_matrix(d: int) -> np.ndarray:
    """Occupation-number operator diag(0, 1, ..., d-1)."""
    if d < 1:
        raise InvalidDimensionError(f"truncation dimension must be >= 1, got {d}")
    return np.diag(np.arange(d)).astype(complex)


def model_operator(model: str, d: int) -> np.ndarray:
    """Static lowering part R0 of the drive coupling for one oscillator model.

    The oscillating factor exp(-i k omega tau) is attached by the engines;
    R0 itself is

    - ``linear``:    b                 (harmonic mode, single quanta)
    - ``two-boson``: b @ b             (quanta exchanged in pairs)
    - ``intensity``: b @ sqrt(b^dag b) (amplitude grows with occupation)
    """
    if model not in MODELS:
        raise InvalidModelError(f"unknown model {model!r}, expected one of {MODELS}")
    b = annihilation_matrix(d)
    if model == "linear":
        return b
    if model == "two-boson":
        return b @ b
    return b @ np.diag(np.sqrt(np.arange(d))).astype(complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs deviation of m from its own conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs deviation of u^dag u from the identity."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def coherent_vector(gamma: complex, d: int) -> np.ndarray:
    """Truncated coherent-state column vector, entries e^{-|g|^2/2} g^n / sqrt(n!).

    The entries are built by the stable running product, not by factorials.
    The vector is left unnormalized: its norm falls short of 1 by the
    truncated Poisson tail, which is how far |gamma| overflows dim.
    """
    if d < 1:
        raise InvalidDimensionError(f"truncation dimension must be >= 1, got {d}")
    c = np.zeros(d, dtype=complex)
    amp = np.exp(-0.5 * abs(gamma) ** 2)
    c[0] = amp
    for n in range(1, d):
        amp = amp * gamma / np.sqrt(n)
        c[n] = amp
    return c

