"""Dense linear algebra for a truncated bosonic mode and a two-state spin.

Everything is a plain ``numpy`` array of complex128; there are no wrapper
types. Conventions used throughout the package:

- hbar = 1, all matrices dimensionless.
- Fock basis |0>, ..., |d-1>, truncation dimension d.
- Spin basis |up> = (1, 0), |down> = (0, 1).
- Composite spin (x) field index k = s*d + n (spin-major), so a composite
  matrix splits into four d x d blocks and the partial trace over the spin
  is the sum of the two diagonal blocks.

The module-level tolerances below define what the rest of the package
accepts as Hermitian, unitary and normalized.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidHamiltonianError,
    InvalidModelError,
    InvalidPreparationError,
)

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-12

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


def spin_projector(alpha: complex, beta: complex) -> np.ndarray:
    """Rank-one density matrix |phi><phi| for |phi> = alpha|up> + beta|down>."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise InvalidPreparationError(
            f"spin amplitudes must satisfy |alpha|^2 + |beta|^2 = 1, got {norm!r}"
        )
    v = np.array([alpha, beta], dtype=complex)
    return np.outer(v, v.conj())


def tensor_embed(spin: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Kronecker product spin (x) field in the spin-major index convention."""
    if spin.shape != (2, 2):
        raise InvalidDimensionError(f"spin factor must be 2x2, got {spin.shape}")
    if field.ndim != 2 or field.shape[0] != field.shape[1]:
        raise InvalidDimensionError(f"field factor must be square, got {field.shape}")
    return np.kron(spin, field)


def partial_trace_spin(composite: np.ndarray) -> np.ndarray:
    """Trace out the spin of a (2d x 2d) composite operator."""
    if composite.ndim != 2 or composite.shape[0] != composite.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got {composite.shape}")
    if composite.shape[0] % 2 != 0:
        raise InvalidDimensionError(
            f"composite dimension {composite.shape[0]} is not 2 * d"
        )
    d = composite.shape[0] // 2
    return composite[:d, :d] + composite[d:, d:]


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs deviation of m from its own conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0

def unitarity_defect(u: np.ndarray) -> float:
    """Max-abs deviation of u^dag u from the identity."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def hermitian_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h, via eigendecomposition.

    Rejects matrices whose hermiticity defect exceeds HERMITICITY_TOL; below
    that the defect is symmetrized away, which keeps the result unitary at
    machine precision.
    """
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise InvalidHamiltonianError(
            f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL})"
        )
    hs = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(hs)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


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

