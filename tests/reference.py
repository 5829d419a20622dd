"""Direct dense constructions of the coupling and of one engine step, used as test oracles.

The Fock operators are built independently of ``hlq.fockcore.model_band``:
b by index and each model's R0 by matrix products. The steps build the full
coupling at the mid-step time and exponentiate it by eigendecomposition on
every call, the hidden step on the 2d-dimensional spin (x) field space with
an explicit Kronecker embedding and partial trace. They are slow and
obviously correct; the band and the engines' closed-form kernels are checked
against them. ``joint_propagator`` assembles the hidden kernel's closed-form
blocks into that dense 2d x 2d propagator, the oracle for the kernel's
pairwise unitarity check. ``reference_csv_text`` is the CSV writer's oracle: every cell
formatted on its own by ``format_cell``. ``reference_husimi`` is the
Husimi grid's oracle: every grid point's coherent amplitudes at once, in one
points^2 x d table. ``reference_records`` is the trajectory recorder's
oracle: each row computed on its own from its state, by one 1-D sum per
diagonal.

Spin basis |up> = (1, 0), |down> = (0, 1). Composite spin (x) field index
k = s*d + n (spin-major), so a composite matrix splits into four d x d
blocks and the partial trace over the spin is the sum of the two diagonal
blocks.
"""

import cmath

import numpy as np

from hlq.errors import InvalidDimensionError, InvalidPreparationError
from hlq.fockcore import hermiticity_defect, model_band
from hlq.observables import _TRAJECTORY_DTYPE
from hlq.schedules import AtomPrep

HERMITICITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-12


def annihilation_matrix(d: int) -> np.ndarray:
    """Lowering operator b in the truncated Fock basis, b|n> = sqrt(n)|n-1>."""
    if d < 1:
        raise InvalidDimensionError(f"truncation dimension must be >= 1, got {d}")
    b = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        b[n - 1, n] = np.sqrt(n)
    return b


def number_matrix(d: int) -> np.ndarray:
    """Occupation-number operator diag(0, 1, ..., d-1)."""
    return np.diag(np.arange(d)).astype(complex)


def model_operator(model: str, d: int) -> np.ndarray:
    """Dense R0 of one model: b, b @ b, or b @ sqrt(b^dag b)."""
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


def hermitian_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h, via eigendecomposition.

    Rejects matrices whose hermiticity defect exceeds HERMITICITY_TOL; below
    that the defect is symmetrized away, which keeps the result unitary at
    machine precision.
    """
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL})"
        )
    hs = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(hs)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


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


def joint_propagator(
    c_up: np.ndarray, band_up: np.ndarray, c_down: np.ndarray, band_down: np.ndarray,
    eta_abs: float, k_low: int,
) -> np.ndarray:
    """The dense 2d x 2d spin-field propagator of the hidden kernel's blocks at tau = 0.

    Its ``unitarity_defect`` is the oracle for the kernel's check over 2 x 2 pairs.
    """
    return np.block([
        [np.diag(c_up), eta_abs * np.diag(band_up, k_low)],
        [eta_abs * np.diag(band_down, -k_low), np.diag(c_down)],
    ])


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


def format_cell(value) -> str:
    """One CSV number as the CLI writes it: integers in full, anything else as %.12g."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def reference_csv_text(header: str, columns) -> str:
    """The text ``hlq.cli._write_csv`` writes: columns flattened row-major, one
    row per line, strings as they are and every other cell through ``format_cell``."""
    lines = [header]
    for row in zip(*map(np.ravel, columns)):
        lines.append(",".join(v if isinstance(v, str) else format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_husimi(rho: np.ndarray, extent: float, points: int) -> tuple[np.ndarray, float]:
    """(values, mass) of ``hlq.observables.husimi_grid`` from one full-grid table.

    The same arithmetic as the row-by-row evaluation, on every grid point at
    once: running product, then the Gaussian factor, then one einsum.
    """
    d = rho.shape[0]
    xs = np.linspace(-extent, extent, points)
    gx, gy = np.meshgrid(xs, xs)
    gamma = (gx + 1j * gy).ravel()
    mat = np.empty((gamma.size, d), dtype=complex)
    mat[:, 0] = 1.0
    for n in range(1, d):
        mat[:, n] = mat[:, n - 1] * gamma / np.sqrt(n)
    mat *= np.exp(-0.5 * np.abs(gamma) ** 2)[:, None]
    values = (np.einsum("gi,ij,gj->g", mat.conj(), rho, mat).real / np.pi).reshape(points, points)
    cell = (xs[1] - xs[0]) * (xs[1] - xs[0])
    return values, float(values.sum() * cell)


def reference_records(states: dict, dt: float) -> np.recarray:
    """The rows ``hlq.observables.TrajectoryRecorder`` records for ``{j: rho}``.

    One table row per entry, in the mapping's order, each formed from its own
    state as a single row was before the recorder reduced rows in chunks.
    """
    table = np.recarray(len(states), dtype=_TRAJECTORY_DTYPE)
    for i, (j, rho) in enumerate(states.items()):
        d = rho.shape[0]
        mean_n = float(np.sum(np.arange(d) * np.diagonal(rho).real))
        mean_b = complex(np.sum(model_band("linear", d) * np.diagonal(rho, -1)))
        mean_bb = complex(np.sum(model_band("two-boson", d) * np.diagonal(rho, -2)))
        x2 = 0.25 * (1.0 + 2.0 * mean_n + 2.0 * mean_bb.real)
        y2 = 0.25 * (1.0 + 2.0 * mean_n - 2.0 * mean_bb.real)
        table[i] = (j, j * dt, float(rho[0, 0].real), mean_n, float(np.vdot(rho, rho).real),
                    mean_b, float(x2 - mean_b.real**2), float(y2 - mean_b.imag**2))
    return table
