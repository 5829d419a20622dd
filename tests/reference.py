"""Direct dense constructions of the coupling and of one engine step, used as test oracles.

The Fock operators are built independently of ``hlq.fockcore.model_band``:
b by index and each model's R0 by matrix products. The steps build the full
coupling at the mid-step time and exponentiate it by eigendecomposition on
every call, the hidden step on the 2d-dimensional spin (x) field space with
an explicit Kronecker embedding and partial trace. They are slow and
obviously correct; the band and the engines' closed-form kernels are checked
against them. ``joint_propagator`` assembles the hidden kernel's closed-form
blocks into that dense 2d x 2d propagator, the oracle for the kernel's
pairwise unitarity check. ``two_pass_hidden_step`` is the hidden kernel's step as
one ``sandwich`` call per Kraus operator, the byte-for-byte oracle of its
stacked pass in the engines' co-rotating frame; its blocks take
sin(g dt) / g from its own ``sin_over`` and its frame factors from its own
formula, so it imports nothing of the kernel it checks. ``to_lab`` takes a
frame state at time t to the lab frame by the dense conjugation with
D(t) = diag(e^{i rate t n}), rate = ``frame_rate``. ``reference_csv_text`` is the CSV
writer's oracle: every cell formatted on its own by ``format_cell``. ``reference_husimi`` is the
Husimi grid's oracle: every grid point's coherent amplitudes at once, in one
points^2 x d table (``reference_amplitudes``), and Q from one einsum.
``reference_records`` is the trajectory recorder's oracle: each row computed
on its own from its state, by one 1-D sum per diagonal.
``reference_diagnostics`` is the run guard's oracle: each state checked on
its own, its Hermiticity defect by ``hermiticity_defect`` and its lowest
eigenvalue by one ``eigvalsh`` call. ``initial_state`` is a run's start as a
density matrix, psi psi^dag of ``hlq.engines.initial_vector``.

``greens_quadrature_probability`` checks the closed-form vacuum survival law
of ``hlq.oracles`` without solving any dynamics. For a mode driven from the
vacuum through V(t) = conj(eps) R(t) + eps R^dag(t), R(t) = R0 exp(-i omega t),
the probability that it is still empty at time T is a double time integral of
the free retarded propagator of the mode,

    ln p(T) = 2 Im B,
    B = -i |eps|^2 * Int_0^T Int_0^T e^{-i omega (t - s)} theta(t - s) dt ds,

with theta(0) = 1/2, evaluated by the trapezoid rule: the slower but
assumption-free check on the closed form and on the engines.

``two_boson_variances`` checks the two-boson runs. The drive
V(t) = conj(eps) b^2 e^{-i k omega t} + h.c. is quadratic, so the mode evolves
by a Bogoliubov map b -> u b + v b^dag (Weedbrook et al., Rev. Mod. Phys. 84,
621 (2012)). With Delta = k omega / 2 and Omega = sqrt(Delta^2 - 4 |eps|^2),

    u = e^{i Delta t} [cos(Omega t) - i (Delta / Omega) sin(Omega t)],
    v = -2 i eps e^{i Delta t} sin(Omega t) / Omega,

and a vacuum start has var X = (1 + 2|v|^2 + 2 Re uv) / 4 and
var Y = (1 + 2|v|^2 - 2 Re uv) / 4. They swing between the principal values
e^{+-2r} / 4 with sinh r = (2 |eps| / Omega) |sin(Omega t)|.

Spin basis |up> = (1, 0), |down> = (0, 1). Composite spin (x) field index
k = s*d + n (spin-major), so a composite matrix splits into four d x d
blocks and the partial trace over the spin is the sum of the two diagonal
blocks.
"""

import cmath
import math
import tracemalloc

import numpy as np

from hlq.engines import RunDiagnostics, SimConfig, initial_vector, phase_multiplicity
from hlq.errors import InvalidDimensionError, InvalidPreparationError
from hlq.fockcore import LOWERED_QUANTA, model_band
from hlq.observables import _TRAJECTORY_DTYPE
from hlq.schedules import AtomPrep

HERMITICITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-12


def traced_peak(call, *args, **kwargs):
    """(call(*args, **kwargs), the peak of the memory traced while it ran)."""
    tracemalloc.start()
    try:
        return call(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs deviation of m from its own conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


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


def sandwich(rho: np.ndarray, a: np.ndarray, b: np.ndarray, k_low: int, upper: bool) -> np.ndarray:
    """K rho K^dag for K = diag(a) plus the band b at offset +k_low (upper) or -k_low."""
    n = rho.shape[0] - k_low
    band, src = slice(None, n), slice(k_low, None)
    if not upper:
        band, src = src, band
    x = a[:, None] * rho
    x[band] += b[:, None] * rho[src]
    t = x[:, src] * b.conj()
    x *= a.conj()
    x[:, band] += t
    return x


def sin_over(g: np.ndarray, dt: float) -> np.ndarray:
    """sin(g dt) / g elementwise, dt where g = 0."""
    s = np.full(g.shape, dt)
    nz = g > 0.0
    s[nz] = np.sin(g[nz] * dt) / g[nz]
    return s


def two_pass_hidden_step(
    rho: np.ndarray, prep: AtomPrep, r: np.ndarray, k_low: int, rate: float, dt: float,
) -> np.ndarray:
    """The hidden kernel's step in the co-rotating frame as one ``sandwich`` per Kraus operator.

    The blocks are built in closed form with real cosines and each band at its
    own d - k' entries, at tau = 0 (coupling conj(eta)), and the frame's
    constant factors H = diag(e^{-i rate dt n / 2}) are applied on both sides
    of each operator: e^{-i rate dt m / 2} at m = 2n on the diagonal and at
    m = 2n + k' on the band. The kernel's one stacked pass must equal this
    byte for byte.
    """
    d, n = r.size + k_low, r.size
    g_up, g_down = np.zeros(d), np.zeros(d)
    g_up[:n] = g_down[k_low:] = abs(prep.eta) * np.abs(r)
    half = np.exp(1j * (-0.5 * rate * dt * np.arange(2 * d)))
    c_up, c_down = np.cos(g_up * dt) * half[0::2], np.cos(g_down * dt) * half[0::2]
    band_up = (-1j * sin_over(g_up, dt)[:n] * r) * half[k_low:2 * n + k_low:2]
    band_down = (-1j * sin_over(g_down, dt)[k_low:] * r.conj()) * half[k_low:2 * n + k_low:2]
    coupling = prep.eta.conjugate()
    up = sandwich(rho, prep.alpha * c_up, prep.beta * coupling * band_up, k_low, upper=True)
    down = sandwich(rho, prep.beta * c_down, prep.alpha * coupling.conjugate() * band_down,
                    k_low, upper=False)
    return up + down


def frame_rate(config: SimConfig) -> float:
    """k omega / k': the engines' frame at time t turns level n by e^{i rate t n}."""
    k = phase_multiplicity(config.model, config.phase)
    return k * config.omega / LOWERED_QUANTA[config.model]


def to_lab(state: np.ndarray, rate: float, t: float) -> np.ndarray:
    """D(t) psi, or D(t) rho D(t)^dag, for D(t) = diag(e^{i rate t n}); t < 0 turns back."""
    turn = np.exp(1j * rate * t * np.arange(state.shape[0]))
    if state.ndim == 1:
        return turn * state
    return turn[:, None] * state * turn.conj()[None, :]


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


def reference_amplitudes(extent: float, points: int, d: int) -> np.ndarray:
    """The full-grid points^2 x d coherent-amplitude table, row g at the g-th grid point.

    Running product, then the Gaussian factor, on every grid point at once;
    the points run over x within each y.
    """
    xs = np.linspace(-extent, extent, points)
    gx, gy = np.meshgrid(xs, xs)
    gamma = (gx + 1j * gy).ravel()
    mat = np.empty((gamma.size, d), dtype=complex)
    mat[:, 0] = 1.0
    for n in range(1, d):
        mat[:, n] = mat[:, n - 1] * gamma / np.sqrt(n)
    mat *= np.exp(-0.5 * np.abs(gamma) ** 2)[:, None]
    return mat


def reference_husimi(rho: np.ndarray, extent: float, points: int) -> tuple[np.ndarray, float]:
    """(values, mass) of ``hlq.observables.husimi_grid`` from one full-grid table.

    Every grid point's amplitudes at once (``reference_amplitudes``), then
    Q from one three-operand einsum.
    """
    xs = np.linspace(-extent, extent, points)
    mat = reference_amplitudes(extent, points, rho.shape[0])
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
                    mean_b, float(x2 - mean_b.real * mean_b.real),
                    float(y2 - mean_b.imag * mean_b.imag))
    return table


def reference_diagnostics(states, deep: bool) -> RunDiagnostics:
    """The diagnostics a run's guard reports over ``states``, the densities of steps 0, 1, ...

    Each state is checked on its own, in step order, with the arithmetic of a
    guard that took each state's lowest eigenvalue in its own ``eigvalsh``
    call. The propagator's unitarity is the kernel's, not the guard's, and is
    left at 0.0.
    """
    diag = RunDiagnostics(min_eigenvalue=np.inf if deep else 0.0)
    purities = []
    for rho in states:
        trace = np.trace(rho)
        top2 = float(rho[-1, -1].real + rho[-2, -2].real)
        diag.max_top_two_population = max(diag.max_top_two_population, top2)
        drift = abs(trace.real - 1.0) + abs(trace.imag)
        diag.max_trace_drift = max(diag.max_trace_drift, drift)
        if deep:
            diag.max_hermiticity_defect = max(diag.max_hermiticity_defect,
                                              hermiticity_defect(rho))
            low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
            if low < diag.min_eigenvalue:
                diag.min_eigenvalue = low
        purities.append(float(np.vdot(rho, rho).real))
    diag.min_purity, diag.max_purity = min(1.0, *purities), max(1.0, *purities)
    return diag


def initial_state(config: SimConfig) -> np.ndarray:
    """Vacuum or (renormalized) truncated coherent density matrix."""
    psi = initial_vector(config)
    return np.outer(psi, psi.conj())


def greens_quadrature_probability(
    eps_eff: float, omega: float, t_final: float, resolution: int = 10_000,
) -> float:
    """p(T) from the double quadrature of the retarded propagator.

    ``resolution`` is the number of trapezoid subintervals per axis. The double
    sum is folded into a single prefix-summed pass, so the cost is
    O(resolution), not O(resolution^2).
    """
    if t_final == 0.0:
        return 1.0
    n = resolution
    h = t_final / n
    t = np.linspace(0.0, t_final, n + 1)
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5

    # Sum_j w_j G(t_i - t_j) = -i e^{-i w t_i} [prefix_i + w_i e^{i w t_i}/2],
    # the bracket splitting the retarded step at j < i and the half at j = i.
    e = np.exp(1j * omega * t)
    we = w * e
    prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(we)[:-1]))
    inner = e.conj() * (prefix + 0.5 * we)
    scale = abs(eps_eff) ** 2 * h * h
    b_val = -1j * scale * np.sum(w * inner)
    return float(np.exp(2.0 * b_val.imag))


def two_boson_variances(
    eps: complex, omega: float, t, k: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """(var X, var Y) of a vacuum-started mode under the two-boson drive eps.

    ``k`` is the phase multiplicity of the rotating factor (2 under the
    ``operator`` convention). Vectorised over ``t``. Only for
    Delta = k omega / 2 > 2 |eps|: past it lies the parametric-gain regime,
    where the variances grow without bound and Omega turns imaginary.
    """
    t = np.asarray(t, dtype=float)
    delta = 0.5 * k * omega
    assert delta > 2.0 * abs(eps), "parametric gain: k omega / 2 <= 2 |eps|"
    big = math.sqrt(delta * delta - 4.0 * abs(eps) ** 2)
    rot = np.exp(1j * delta * t)
    s = np.sin(big * t)
    u = rot * (np.cos(big * t) - 1j * (delta / big) * s)
    v = -2j * eps * rot * s / big
    common = 1.0 + 2.0 * np.abs(v) ** 2
    cross = 2.0 * (u * v).real
    return 0.25 * (common + cross), 0.25 * (common - cross)
