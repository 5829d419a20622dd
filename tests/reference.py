"""Direct dense constructions of one engine step, used as test oracles.

These build the full coupling at the mid-step time and exponentiate it by
eigendecomposition on every call, the hidden step on the 2d-dimensional
spin (x) field space with an explicit Kronecker embedding and partial
trace. They are slow and obviously correct; the engines' closed-form
kernels are checked against them.
"""

import cmath

import numpy as np

from hlq.fockcore import (
    hermitian_propagator,
    partial_trace_spin,
    spin_projector,
    tensor_embed,
)
from hlq.schedules import AtomPrep


def jc_hamiltonian(
    r0: np.ndarray, k: int, eta: complex, omega: float, tau: float
) -> np.ndarray:
    """Excitation-exchange coupling on spin (x) field at mid-step time tau.

    Block form in the spin-major basis:

        [[0,                conj(eta) R(tau)],
         [eta R(tau)^dag,   0               ]],   R(tau) = r0 exp(-i k omega tau).
    """
    d = r0.shape[0]
    rt = r0 * cmath.exp(-1j * k * omega * tau)
    v = np.zeros((2 * d, 2 * d), dtype=complex)
    v[:d, d:] = np.conj(eta) * rt
    v[d:, :d] = eta * rt.conj().T
    return v


def interaction_hamiltonian(
    r0: np.ndarray, k: int, eps: complex, omega: float, tau: float
) -> np.ndarray:
    """Semiclassical coupling conj(eps) R(tau) + eps R(tau)^dag on the field alone."""
    rt = r0 * cmath.exp(-1j * k * omega * tau)
    return np.conj(eps) * rt + eps * rt.conj().T


def hidden_step(
    rho: np.ndarray,
    prep: AtomPrep,
    r0: np.ndarray,
    k: int,
    omega: float,
    tau: float,
    dt: float,
) -> np.ndarray:
    """One spin-assisted step: adjoin prep, propagate jointly, trace the spin out."""
    a = spin_projector(prep.alpha, prep.beta)
    u = hermitian_propagator(jc_hamiltonian(r0, k, prep.eta, omega, tau), dt)
    w = u @ tensor_embed(a, rho) @ u.conj().T
    return partial_trace_spin(w)


def standard_step(
    rho: np.ndarray,
    eps: complex,
    r0: np.ndarray,
    k: int,
    omega: float,
    tau: float,
    dt: float,
) -> np.ndarray:
    """One semiclassical step: conjugate rho with exp(-i V(tau) dt)."""
    u = hermitian_propagator(interaction_hamiltonian(r0, k, eps, omega, tau), dt)
    return u @ rho @ u.conj().T
