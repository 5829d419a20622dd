"""Two interchangeable stepping engines for the driven truncated mode.

standard
    Conjugates the field state with the short-time propagator of the
    semiclassical coupling V(tau) = conj(eps) R(tau) + eps R(tau)^dag,
    where R(tau) = R0 exp(-i k omega tau) and eps is a c-number amplitude.

hidden
    Adjoins a freshly prepared two-state spin before every step, propagates
    spin and field jointly under the excitation-exchange coupling

        V(tau) = |up><down| (x) conj(eta) R(tau) + |down><up| (x) eta R(tau)^dag,

    then traces the spin back out. The spin coherence zeta = conj(alpha) beta
    acts as the drive amplitude: expanding one step to first order in dt
    gives the same generator as the standard engine with eps_eff = eta * conj(zeta),
    so the two agree up to O(dt) over a fixed interval.

Both engines evaluate their couplings at the mid-step times
tau_j = (j - 1/2) dt and record observables after every step.

Phase conventions
-----------------
``phase = "operator"`` puts the model's own multiplicity into the rotating
factor: k = 2 for the two-boson coupling (R0 = b^2 turns twice as fast),
k = 1 otherwise. ``phase = "coherence"`` keeps k = 1 for every model, which
is what per-step spin coherences rotating at the bare mode frequency
produce; the closed-form ground-state law for the two-boson model assumes
this convention. The two choices only differ for the two-boson model.

Stepping kernels
----------------
R0 has a single nonzero diagonal, R0[n - k', n] = r_n (``fockcore.model_band``)
with k' the quanta one application lowers, so R0 R0^dag and R0^dag R0 are
diagonal and exp(-i dt V) has closed-form (Jaynes-Cummings) blocks:

    [[cos(g_up dt),                             -i conj(eta) e^{-ik omega tau} S_up R0],
     [-i eta e^{ik omega tau} S_down R0^dag,    cos(g_down dt)                       ]]

with g_up = |eta| sqrt(diag(R0 R0^dag)), g_down = |eta| sqrt(diag(R0^dag R0))
and S = sin(g dt) / g (dt where g = 0). Tracing out the spin prepared in
alpha|up> + beta|down> leaves two Kraus operators K_s = <s|U|phi>, each a
diagonal plus one band at offset +-k', so the hidden step is
rho -> K_up rho K_up^dag + K_down rho K_down^dag, one pass over both, with
no eigendecomposition.

Both lanes hold their state in one co-rotating frame. With
D(t) = diag(e^{i k omega t n / k'}), D R0 D^dag = e^{-ik omega t} R0, so the
rotating factor is a conjugation by D: K_s(tau) = D(tau) K_s(0) D(tau)^dag,
and likewise the standard propagator. A lane holds rho~_j = D(t_j)^dag rho_j
D(t_j) at the record time t_j = j dt, which is rho_0 itself at step 0, and
a step is

    rho~ -> sum_s (H K_s(0) H) rho~ (H K_s(0) H)^dag,   H = D(-dt / 2),

the same channel for every step of one prep: a kernel refills its factors
only when the step's prep is another object than the last one's, and each
kernel takes a new prep one way, whatever the schedule. The lab
state is D(t_j) rho~ D(t_j)^dag, entry [m, n] times e^{i phi_j (m - n)} with
phi_j = k omega t_j / k'. The lane takes the final state and its snapshots
back by that phase-plane product, and the recorder turns the diagonals -1
and -2 by e^{i phi_j} and e^{2i phi_j}; populations, purity, traces,
eigenvalues and trace distances are the same in either frame.

The hidden blocks depend only on |eta|: a kernel holds them, times the
frame's factors, for the |eta| of the current step and rebuilds them when it
changes. A new prep fills two (4, d, d) plane stacks, the diagonals and
bands per row and their conjugates per column, each by one broadcast copy.
The pass runs on thirteen d x d buffers the kernel holds (832 KiB at dim
64), every numpy call with operands of its output's shape, so a step
allocates nothing and writes the state back into the kernel's own buffer.

The standard coupling is |eps| Q (R0 + R0^dag) Q^dag with
Q = diag(e^{i arg(eps) n / k'}) in the frame and eps = eta conj(zeta). One
eigh, R0 + R0^dag = W diag(w) W^dag, at build gives every step's propagator
H Q W e^{-i |eps| dt w} W^dag Q^dag H. Every standard state is pure: a run
starts from the vacuum or a coherent state and each step is unitary. So the
standard lane holds the state vector psi and steps it by two matrix-vector
products,

    psi -> q * ((H W) (e^{-i |eps| dt w} * ((W^dag H) (conj(q) * psi)))),

with q = e^{i arg(eps) n / k'}: H is folded into the eigenbasis at build,
and q and the d phases e^{-i |eps| dt w} are rebuilt for every new prep.
A prep with eps = 0 only turns the frame, psi -> D(-dt) psi, exactly. The lane forms
psi psi^dag in three d x d buffers the kernel holds (192 KiB at dim 64). A
kernel holds O(dim^2) state whatever its schedule, and every schedule takes
the same path in both engines.

Driver
------
``run`` and ``run_compare`` are thin wrappers over one lockstep driver. A
``SimConfig`` is checked when it is made, so the driver checks only what the
caller passes beside it: an explicit schedule, each of its preps, and the
snapshot steps, whose lab-frame copies count toward the run-size budget. A
schedule the driver makes from the config is not re-checked: the generators
make only valid preps. The driver builds one lane (kernel, trajectory
recorder and, for a deep hidden lane, guard) per engine from the same initial
state, each of which takes its step 0, then steps the schedule in one flat
loop: every lane takes step j before any lane takes step j + 1.

Every step is checked as it is taken. A lane forms its density matrix in the
frame (the hidden lane holds it, the standard lane takes psi psi^dag), and
its recorder takes the purity and gathers the diagonals 0, -1 and -2. The
state passes when its purity is finite and its top-two population is under
the limit. A finite purity bounds every entry below sqrt(max float), about
1.34e154, so the trace and the Hermiticity defect of a state that passed are
finite too. A state that fails raises at once, so the first failing step over
all lanes is named, the hidden lane's on a tie, and no lane steps past it.
The error is named in the order trace, top-two population, Hermiticity
defect (deep checks only), purity.

Every buffer that reduces a run of steps fills and folds itself, so the
driver folds nothing. The lane keeps the largest top-two population it
checked. The recorder folds the trace drift of its pending rows as it reduces
them, 64 at a time, into the lane's ``np.recarray``, allocated once and
returned as is with every row complete. A deep hidden lane's guard copies
each state that passed into its stack, at most 128 KiB of states (56 / 8 / 2
at dims 12 / 32 / 64, one from dim 65), and folds a full stack into the
Hermiticity defect and the lowest eigenvalue with one stacked ``eigvalsh``.
Per-step trace distances between two lanes are taken the same way, a stack
of differences at a time; a run that wants only the last distance builds no
stack and takes ``observables.trace_distance`` of the two final states after
the loop. A lane's result folds what its buffers still hold. Deep checks deepen
the hidden lane only: the standard lane has no guard and reports a
Hermiticity defect and lowest eigenvalue of 0.0, since its psi psi^dag passes
the deep checks by construction (DECISIONS.md D3).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import schedules as _schedules
from .errors import (
    ConfigValidationError,
    HlqError,
    InvalidModelError,
    InvalidPreparationError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from .errors import check_integer, check_member, check_number
from .fockcore import (
    LOWERED_QUANTA,
    MODELS,
    coherent_vector,
    model_band,
    unitarity_defect,
)
from . import observables as _observables
from .observables import TrajectoryRecorder

ENGINES = ("hidden", "standard", "both")
PHASE_CONVENTIONS = ("operator", "coherence")
INITIAL_STATES = ("vacuum", "coherent")
OUTPUTS = ("timeseries", "final")

TRUNCATION_LIMIT = 1e-6

# Largest memory a run may ask for before its first step, in bytes: the sum of
# three parts, checked once by _check_run_size.
#
# - Steps, at _STEP_BYTES each: two lanes' 72-byte trajectory rows, one
#   rotating-schedule prep (the largest schedule item; 97.2 bytes traced with
#   its list slot on CPython 3.10 to 3.13, counted as 100) and one trace
#   distance (a float and its list slot, 32.6 bytes, counted as 36). A rotating
#   run_compare at dim 8 traces 274-275 bytes a step: the peak difference of
#   2,000- and 6,000-step runs on CPython 3.11.
# - Dim, at _DIM_STATES d x d complex states that do not grow with steps: the
#   kernels' factors and work buffers, the recorders' pending rows, a deep
#   hidden lane's guard stacks, the trace-distance stacks and the final state.
#   A deep rotating run_compare with every distance, the most a dim holds,
#   traced a peak of 40.2 / 35.1 / 32.4 / 30.8 such states over 8 steps at
#   dims 65 / 96 / 128 / 160 on CPython 3.11.
# - Snapshots, one d x d complex lab-frame state each.
RUN_MAX_BYTES = 1 << 30
_STEP_BYTES = 2 * 72 + 100 + 36
_DIM_STATES = 42

# States per stacked eigvalsh, in the deep guard and in the trace distances
# of every step: at most 128 KiB of states (56 / 8 / 2 at dims 12 / 32 / 64,
# one from dim 65) and at most 64. A stack pays numpy's per-call cost once; a
# fixed 16-state stack (1 MiB at dim 64) leaves L2 and was slower there than
# one state per call.
_EIG_BLOCK_BYTES = 128 * 1024


def _check_run_size(steps: int, dim: int, snapshots: int) -> None:
    """Raise ConfigValidationError when the three parts of a run's size sum past RUN_MAX_BYTES."""
    state = 16 * int(dim) ** 2  # Python integers: a numpy one could wrap
    parts = int(steps) * _STEP_BYTES, _DIM_STATES * state, snapshots * state
    if sum(parts) > RUN_MAX_BYTES:
        raise ConfigValidationError(
            f"run size: {steps} steps ({parts[0]} bytes) + dim {dim} ({parts[1]} bytes) "
            f"+ {snapshots} snapshots ({parts[2]} bytes) = {sum(parts)} bytes, "
            f"over the {RUN_MAX_BYTES}-byte limit")


def phase_multiplicity(model: str, convention: str) -> int:
    """Integer k in the rotating factor exp(-i k omega tau) of R(tau)."""
    check_member("phase", convention, PHASE_CONVENTIONS, ConfigValidationError)
    check_member("model", model, MODELS, InvalidModelError)
    return LOWERED_QUANTA[model] if convention == "operator" else 1


@dataclass(frozen=True)
class SimConfig:
    """Run description shared by the engines and the CLI.

    ``zeta_abs`` is the magnitude of the per-step spin coherence (the drive
    strength knob); ``gamma0`` is checked for every config but only read when
    ``initial = "coherent"``.

    A config is immutable and checked by ``validate`` when it is made, so a
    bad value raises ``ConfigValidationError`` from the constructor, and
    ``dataclasses.replace`` checks the config it makes in the same way.
    """

    model: str
    omega: float
    dt: float
    steps: int
    dim: int = 32
    zeta_abs: float = 0.5
    eta: complex = 1.0 + 0.0j
    schedule: str = "uniform"
    engine: str = "hidden"
    initial: str = "vacuum"
    gamma0: complex = 0.0 + 0.0j
    phase: str = "operator"
    outputs: tuple[str, ...] = ("timeseries", "final")

    @property
    def t_final(self) -> float:
        return self.steps * self.dt

    @property
    def eps_eff(self) -> float:
        """|eta| * zeta_abs, the strength entering the closed-form laws."""
        return abs(self.eta) * self.zeta_abs

    def __post_init__(self) -> None:
        if isinstance(self.outputs, list):  # held as a tuple, so the config stays hashable
            object.__setattr__(self, "outputs", tuple(self.outputs))
        self.validate()

    def validate(self) -> None:
        check_member("model", self.model, MODELS, ConfigValidationError)
        check_member("schedule", self.schedule, _schedules.SCHEDULES, ConfigValidationError)
        check_member("engine", self.engine, ENGINES, ConfigValidationError)
        check_member("initial", self.initial, INITIAL_STATES, ConfigValidationError)
        check_member("phase", self.phase, PHASE_CONVENTIONS, ConfigValidationError)
        check_number("omega", self.omega, ConfigValidationError, real=True)
        check_number("dt", self.dt, ConfigValidationError, positive=True)
        check_integer("steps", self.steps, 1, ConfigValidationError)
        check_integer("dim", self.dim, 2, ConfigValidationError)
        k = phase_multiplicity(self.model, self.phase)
        try:  # bounds every mid-step time tau and rotating phase k omega tau
            span = float(self.steps) * float(self.dt) * max(1.0, abs(k * float(self.omega)))
        except OverflowError:  # steps past the float range
            span = math.inf
        if not math.isfinite(span):
            raise ConfigValidationError(
                f"dt: steps * dt or k * omega * steps * dt overflows "
                f"(steps {self.steps!r}, dt {self.dt!r}, k {k}, omega {self.omega!r})"
            )
        _check_run_size(self.steps, self.dim, 0)
        _schedules.check_zeta_abs(self.zeta_abs, ConfigValidationError)
        check_number("eta", self.eta, ConfigValidationError)
        check_number("gamma0", self.gamma0, ConfigValidationError, squared=True)
        if not isinstance(self.outputs, tuple):
            raise ConfigValidationError(f"outputs: must be a tuple of names, got {self.outputs!r}")
        for name in self.outputs:
            check_member("outputs", name, OUTPUTS, ConfigValidationError)


@dataclass
class RunDiagnostics:
    """Worst-case state and propagator health over a whole run."""

    propagator_unitarity_defect: float = 0.0
    max_trace_drift: float = 0.0
    max_hermiticity_defect: float = 0.0
    min_eigenvalue: float = 0.0
    min_purity: float = 1.0
    max_purity: float = 1.0
    max_top_two_population: float = 0.0


@dataclass
class RunResult:
    """One engine's run; ``records`` is a recarray with one row per step, 0 the initial state."""

    records: np.recarray
    final: np.ndarray
    diagnostics: RunDiagnostics
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class CompareResult:
    """Lockstep run of both engines over one schedule."""

    records_hidden: np.recarray
    records_standard: np.recarray
    trace_distances: list[float]
    final_hidden: np.ndarray
    final_standard: np.ndarray
    diagnostics_hidden: RunDiagnostics
    diagnostics_standard: RunDiagnostics


def initial_vector(config: SimConfig) -> np.ndarray:
    """Vacuum or (renormalized) truncated coherent state vector."""
    if config.initial == "vacuum":
        psi = np.zeros(config.dim, dtype=complex)
        psi[0] = 1.0
        return psi
    c = coherent_vector(config.gamma0, config.dim)
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        raise ConfigValidationError("initial: coherent amplitude underflowed")
    # Renormalize the truncated tail so the state has unit norm exactly.
    return c / nrm


def _sin_over(g: np.ndarray, dt: float) -> np.ndarray:
    """sin(g dt) / g elementwise, dt where g = 0."""
    s = np.full(g.shape, dt)
    nz = g > 0.0
    s[nz] = np.sin(g[nz] * dt) / g[nz]
    return s


def _lanes(a: np.ndarray, start: int, lane_step: int, shape: tuple[int, ...]) -> np.ndarray:
    """(2, *shape) view of C-contiguous a: lane l starts at flat entry start + l * lane_step.

    A one-entry shape is a flat run; a (rows, cols) shape takes rows of a's width.
    """
    s = a.itemsize
    inner = (a.shape[-1] * s, s) if len(shape) == 2 else (s,)
    return np.ndarray((2, *shape), a.dtype, a, start * s, (lane_step * s, *inner))


class _HiddenKernel:
    """Spin-assisted step as two banded Kraus operators from closed-form blocks.

    ``_blocks`` stacks C_up, C_down and the bands -i S_up R0, -i S_down R0^dag
    (each in its first n = d - k' entries) for the step's |eta|; ``_factors``
    holds them times the frame's half-step turns, e^{-i rate dt m / 2} at
    m = 2i on the diagonals and m = 2i + k' on the bands (rate = k omega / k').
    Times [alpha, beta, beta c, alpha conj(c)], c = conj(eta), they give the
    diagonal a and band b of H K_up H and H K_down H. A step is, on one lane
    per operator, x = a rho, x[band rows] += b rho[source rows],
    t[band cols] = x[source cols] conj(b), x = x conj(a) + t, then
    x[up] + x[down].

    Every numpy call on that path has operands of its output's shape, taken
    from buffers the kernel holds: none broadcasts, so numpy's ufunc iterator
    allocates no buffer, and none makes a temporary. The kernel holds thirteen
    d x d complex buffers, 832 KiB at dim 64:

    - x, two lanes;
    - two plane stacks of four lanes, a_up, a_down, b_up and b_down: ``_rows``
      holds entry i of each in row i, ``_cols`` the conjugate of entry j in
      column j. A new prep (another object than the last step's) fills each
      with one broadcast copy;
    - the plane p, two lanes: the band rows' products b rho, then t;
    - rho, which the lane sum is written into and the next step reads.

    The band rows and band columns of both lanes are each one flat run per
    lane, the column source shifted by k' entries, so each stage is one call
    over a (2, run) view with contiguous lanes. The column factors are the b
    lanes of ``_cols`` unshifted: the up band's line up with their output, the
    down band's with their source. The column products that wrap from one row
    into the next land off the band columns; they are overwritten by -0 - 0j,
    and x + (-0) is x, so every entry gets the operations of K rho K^dag.

    ``unitarity_defect`` is the largest defect of the joint blocks built so far,
    taken over the 2 x 2 pairs (|up, i>, |down, i + k'>) the joint propagator
    couples, the k' uncoupled levels of each spin padding the last k': O(dim).
    """

    def __init__(self, r: np.ndarray, k_low: int, rate: float, dt: float):
        self.r, self.k_low, self.dt = r, k_low, dt
        self.unitarity_defect = 0.0
        n, d, k = r.size, r.size + k_low, k_low
        # e^{-i rate dt m / 2}: H = D(-dt / 2) at m = n, D(-dt) at m = 2n
        half = _observables._turns(-0.5 * rate * dt, np.arange(2 * d))
        self._frame = np.zeros((4, d), dtype=complex)
        self._frame[:2], self._frame[2:, :n] = half[0::2], half[k:2 * n + k:2]
        self._rho = np.empty((d, d), dtype=complex)
        self._x, self._p = (np.empty((2, d, d), dtype=complex) for _ in range(2))
        # Lanes a_up, a_down, b_up, b_down per row, and their conjugates per column.
        self._rows, self._cols = (np.empty((4, d, d), dtype=complex) for _ in range(2))
        self._a, self._ac = self._rows[:2], self._cols[:2]
        self._coef, self._ab, self._abc, self._factors = (
            np.empty((4, d), dtype=complex) for _ in range(4))
        self._prep = self._eta_abs = None
        # (up, down) lanes: band rows x[:n] and x[k':] read rho[k':] and rho[:n];
        # band columns t[:, :n] and t[:, k':] read x[:, k':] and x[:, :n], the up
        # band's factors in line with their output, the down band's with their source
        self._band_rows = _lanes(self._x, 0, d * d + k * d, (n * d,))
        self._row_factors = self._rows[2:].reshape(2, d * d)[:, :n * d]
        self._row_products = self._p.reshape(2, d * d)[:, :n * d]
        self._source_rows = _lanes(self._rho, k * d, -k * d, (n * d,))
        self._col_factors = _lanes(self._cols, 2 * d * d, d * d, (d * d - k,))
        self._band_cols = _lanes(self._p, 0, d * d + k, (d * d - k,))
        self._source_cols = _lanes(self._x, k, d * d - k, (d * d - k,))
        self._wrapped = _lanes(self._p, n, d * d - n, (d, k))

    def _blocks(self, eta_abs: float):
        r, k_low, dt = self.r, self.k_low, self.dt
        d, n = r.size + k_low, r.size
        g_up, g_down = np.zeros(d), np.zeros(d)
        g_up[:n] = g_down[k_low:] = eta_abs * np.abs(r)
        stack = np.zeros((4, d), dtype=complex)
        stack[0], stack[1] = np.cos(g_up * dt), np.cos(g_down * dt)
        stack[2, :n] = -1j * _sin_over(g_up, dt)[:n] * r
        stack[3, :n] = -1j * _sin_over(g_down, dt)[k_low:] * r.conj()
        pairs = np.zeros((d, 2, 2), dtype=complex)
        pairs[:, 0, 0] = stack[0]
        pairs[:n, 1, 1], pairs[n:, 1, 1] = stack[1, k_low:], stack[1, :k_low]
        pairs[:n, 0, 1], pairs[:n, 1, 0] = eta_abs * stack[2:, :n]
        self.unitarity_defect = max(self.unitarity_defect, unitarity_defect(pairs))
        return stack

    @staticmethod
    def start(psi: np.ndarray) -> np.ndarray:
        """The hidden step mixes, so this kernel steps the density matrix itself."""
        return np.outer(psi, psi.conj())

    @staticmethod
    def density(rho: np.ndarray) -> np.ndarray:
        return rho

    def _refill(self, prep: _schedules.AtomPrep) -> None:
        """Fill the planes of prep's a and b; AtomPrep is frozen, so they hold while prep does.
        The blocks times the frame's factors are rebuilt only when |eta| changes."""
        self._prep = prep
        if abs(prep.eta) != self._eta_abs:
            self._eta_abs = abs(prep.eta)
            np.multiply(self._blocks(self._eta_abs), self._frame, out=self._factors)
        c, ab, abc = prep.eta.conjugate(), self._ab, self._abc
        np.copyto(self._coef, np.array([prep.alpha, prep.beta, prep.beta * c,
                                        prep.alpha * c.conjugate()])[:, None])
        # Operand order as written: numpy's complex loops round a * b and b * a apart.
        np.multiply(self._coef, self._factors, out=ab)
        np.conjugate(ab, out=abc)
        np.copyto(self._rows, ab[:, :, None])
        np.copyto(self._cols, abc[:, None, :])

    def step(self, rho: np.ndarray, prep: _schedules.AtomPrep) -> np.ndarray:
        """The frame state after one step, in the kernel's own buffer, which the next
        step overwrites. A caller's array is copied in first and never written."""
        if rho is not self._rho:
            np.copyto(self._rho, rho)
        if prep is not self._prep:  # a value key would merge -0.0 and 0.0
            self._refill(prep)
        x, p = self._x, self._p
        for lane in 0, 1:
            np.multiply(self._a[lane], self._rho, out=x[lane])
        self._band_rows += np.multiply(self._row_factors, self._source_rows,
                                       out=self._row_products)
        np.multiply(self._source_cols, self._col_factors, out=self._band_cols)
        self._wrapped.fill(complex(-0.0, -0.0))
        x *= self._ac
        x += p
        return np.add(x[0], x[1], out=self._rho)


class _StandardKernel:
    """Semiclassical step of the frame's state vector by H Q W e^{-i |eps| dt w} W^dag Q^dag H.

    H is folded into the eigenbasis at build, as H W and W^dag H, and Q
    commutes with H, so a step is two matrix-vector products between the
    prep's q and conj(q), as in the lab frame.

    Every new prep rebuilds q and the phases e^{-i |eps| dt w}, one length-d
    ``exp`` each; a prep with eps = 0 keeps the exact frame turn D(-dt), so an
    undriven run stays exact over any number of steps.

    ``density`` writes psi psi^dag into a d x d buffer the kernel holds, as
    one same-shape multiply of a row plane (psi_i) by a column plane
    (conj(psi_j)): three d x d complex buffers, 192 KiB at dim 64, beside
    H W and W^dag H.
    """

    def __init__(self, r: np.ndarray, k_low: int, rate: float, dt: float):
        # Complex on purpose: a real h0 sends eigh down LAPACK's real-symmetric path.
        h0 = np.diag(r.astype(complex), k_low)
        self.w, v = np.linalg.eigh(h0 + h0.conj().T)
        self.unitarity_defect = unitarity_defect(v)
        self.dt = dt
        d = h0.shape[0]
        self._fock = np.arange(d) / k_low
        half = _observables._turns(-0.5 * rate * dt, np.arange(2 * d))
        h, self._turn = half[:d], half[0::2]  # H = D(-dt / 2) and D(-dt)
        self._hv, self._vh = h[:, None] * v, v.conj().T * h
        self._rho, self._rows, self._cols = (np.empty_like(h0) for _ in range(3))
        # Factors of the last prep: (conj(q), q) and e^{-i |eps| dt w}, or (D(-dt), None)
        # for eps = 0.
        self._prep = self._into = self._out = self._eps_phases = None

    @staticmethod
    def start(psi: np.ndarray) -> np.ndarray:
        return psi

    def density(self, psi: np.ndarray) -> np.ndarray:
        """psi psi^dag, byte for byte np.outer(psi, psi.conj()), in the kernel's own buffer."""
        np.copyto(self._rows, psi[:, None])
        np.copyto(self._cols, psi.conj())
        return np.multiply(self._rows, self._cols, out=self._rho)

    def _refill(self, prep: _schedules.AtomPrep) -> None:
        """Build prep's factors, q and the phases e^{-i |eps| dt w}, anew for every prep."""
        self._prep = prep
        eps = prep.eta * prep.zeta.conjugate()
        if eps == 0.0:  # no drive: the frame still turns, by D(-dt)
            self._into, self._out = self._turn, None
            return
        self._eps_phases = np.exp(-1j * abs(eps) * self.dt * self.w)
        q = np.exp(1j * cmath.phase(eps) * self._fock)
        self._into, self._out = q.conj(), q

    def step(self, psi: np.ndarray, prep: _schedules.AtomPrep) -> np.ndarray:
        if prep is not self._prep:
            self._refill(prep)
        if self._out is None:
            return self._into * psi
        return self._out * (self._hv @ (self._eps_phases * (self._vh @ (self._into * psi))))


def make_schedule(config: SimConfig) -> list[_schedules.AtomPrep]:
    """Build the prep list named by config.schedule at config's parameters."""
    if config.schedule == "uniform":
        return _schedules.uniform_schedule(config.steps, config.zeta_abs, 0.0, config.eta)
    if config.schedule == "alternating":
        return _schedules.alternating_schedule(config.steps, config.zeta_abs, config.eta)
    return _schedules.rotating_schedule(
        config.steps, config.zeta_abs, config.omega, config.dt, config.eta
    )


def _eig_height(d: int) -> int:
    """States per stacked eigvalsh at dim d, in the deep guard and the trace distances."""
    return min(64, max(1, _EIG_BLOCK_BYTES // (16 * d * d)))


def _failure(step: int, rho: np.ndarray, top2: float, purity: float, deep: bool) -> HlqError:
    """The error of the state rho of ``step`` that failed its check (a finite purity and a
    top-two population under the limit), named in the order trace, top-two population,
    then, for a deep lane, Hermiticity defect; a state that fails none of these fails on
    its purity."""
    trace = rho.trace()
    if not cmath.isfinite(trace):
        return NonFiniteStateError(step, "trace", trace)
    if top2 >= TRUNCATION_LIMIT:
        return TruncationOverflowError(step, top2)
    if deep:
        herm = float(np.abs(rho - rho.conj().T).max())
        if not math.isfinite(herm):
            return NonFiniteStateError(step, "Hermiticity defect", herm)
    return NonFiniteStateError(step, "purity", purity)


class _Guard:
    """A deep hidden lane's Hermiticity defect and lowest eigenvalue, folded a stack at a time.

    ``take`` copies a state that passed its step's check into ``stack`` and
    calls ``inspect`` when the stack is full; the lane calls it once more for
    the states left. ``inspect`` folds the held states with whole-stack numpy
    calls: the lowest eigenvalues of the Hermitian parts 0.5 (rho + rho^dag)
    are taken by one ``eigvalsh`` call, with each state's bits. A finite purity
    bounds every entry below sqrt(max float), so every held state is finite.

    The guard holds the stack, its conjugate transpose and the Hermitian parts
    (three ``_eig_height(d)`` x d x d complex buffers) and the moduli of
    rho - rho^dag (one real one).
    """

    def __init__(self, d: int):
        height = _eig_height(d)
        self.stack, self._adj, self._parts = (np.empty((height, d, d), dtype=complex)
                                              for _ in range(3))
        self._abs = np.empty((height, d, d))
        self.held = 0
        self.max_hermiticity_defect, self.min_eigenvalue = 0.0, math.inf

    def take(self, rho: np.ndarray) -> None:
        np.copyto(self.stack[self.held], rho)
        self.held += 1
        if self.held == len(self.stack):
            self.inspect()

    def inspect(self) -> None:
        """Fold the held states into the diagnostics and empty the stack."""
        n, self.held = self.held, 0
        if not n:
            return
        states, adj = self.stack[:n], self._adj[:n]
        parts = _observables._hermitian_parts(states, adj, self._parts[:n])
        herm = np.abs(np.subtract(states, adj, out=states), out=self._abs[:n])
        self.max_hermiticity_defect = max(self.max_hermiticity_defect, float(herm.max()))
        lows = np.linalg.eigvalsh(parts)[:, 0]
        k = int(lows.argmin())  # the first of tied minima, as a fold in step order keeps
        if lows[k] < self.min_eigenvalue:
            self.min_eigenvalue = float(lows[k])


def _frame_rate(config: SimConfig) -> float:
    """k omega / k', the frame's turn per unit time and per quantum."""
    k = phase_multiplicity(config.model, config.phase)
    return k * config.omega / LOWERED_QUANTA[config.model]


def _build_stepper(config: SimConfig, engine: str):
    kind = _HiddenKernel if engine == "hidden" else _StandardKernel
    return kind(model_band(config.model, config.dim), LOWERED_QUANTA[config.model],
                _frame_rate(config), config.dt)


class _Lane:
    """One engine in the lockstep driver: its state, kernel, recorder, guard and snapshots.

    ``state`` is what the kernel steps, in the co-rotating frame; ``rho``, its
    density matrix, is what the recorder, guard and trace distance see, and
    the snapshots and the final state are ``rho`` taken back to the lab frame
    by one phase-plane product. ``take`` checks each step's state as it
    records it, raises at the first that fails, and keeps the largest top-two
    population. Only a deep hidden lane has a guard. A new lane has taken its
    step 0.
    """

    def __init__(self, config: SimConfig, engine: str, deep: bool, wanted: set[int]):
        self.kernel = _build_stepper(config, engine)
        # The frame is the lab frame at t = 0, so the start needs no turn.
        self.state = self.kernel.start(initial_vector(config))
        self._rate, self._dt, self._last = _frame_rate(config), config.dt, config.steps
        # psi psi^dag passes the deep checks by construction (D3): only a mixed lane's are run.
        self.guard = _Guard(config.dim) if deep and engine == "hidden" else None
        self.recorder = TrajectoryRecorder(config.steps, config.dt, self._rate)
        self.wanted = wanted
        self.snapshots: dict[int, np.ndarray] = {}
        self.max_top_two = 0.0
        # Flat positions of the top two levels' populations, read as Python numbers.
        self._top = (-1, -config.dim - 2)
        self.take(0)

    def take(self, j: int) -> None:
        """Record and check the state of step j: its purity must be finite and its
        top-two population under the limit, or the error ``_failure`` names is raised."""
        rho = self.rho = self.kernel.density(self.state)
        p = self.recorder.record(rho)
        last, second = self._top
        top2 = rho.item(last).real + rho.item(second).real
        if not (math.isfinite(p) and top2 < TRUNCATION_LIMIT):
            raise _failure(j, rho, top2, p, self.guard is not None)
        self.max_top_two = max(self.max_top_two, top2)
        if self.guard is not None:
            self.guard.take(rho)
        if j in self.wanted:
            self.snapshots[j] = self.lab(j)

    def lab(self, j: int) -> np.ndarray:
        """rho, the state of step j, in the lab frame: a new array."""
        return _observables._turned(self.rho, self._rate * (j * self._dt))

    def result(self) -> RunResult:
        records, guard = self.recorder.records, self.guard
        herm = low = 0.0
        if guard is not None:
            guard.inspect()
            herm, low = guard.max_hermiticity_defect, guard.min_eigenvalue
        diagnostics = RunDiagnostics(
            propagator_unitarity_defect=self.kernel.unitarity_defect,
            max_trace_drift=self.recorder.max_trace_drift, max_hermiticity_defect=herm,
            min_eigenvalue=low, min_purity=min(1.0, float(records.purity.min())),
            max_purity=max(1.0, float(records.purity.max())),
            max_top_two_population=self.max_top_two)
        return RunResult(records, self.lab(self._last), diagnostics, self.snapshots)


class _Distances:
    """Two lanes' trace distance after every step, taken a stack at a time.

    Built only for per-step distances. ``take`` holds the step's difference
    a - b in the next of its ``_eig_height(d)`` layers; a full stack, and on
    reading ``values`` the layers left, is reduced into the distances in step
    order by one stacked ``eigvalsh``.
    """

    def __init__(self, d: int):
        self._values = [0.0]
        self._diffs, self._scratch = (np.empty((_eig_height(d), d, d), dtype=complex)
                                      for _ in range(2))
        self._held = 0

    @property
    def values(self) -> list[float]:
        self._flush()
        return self._values

    def take(self, lanes) -> None:
        np.subtract(lanes[0].rho, lanes[1].rho, out=self._diffs[self._held])
        self._held += 1
        if self._held == len(self._diffs):
            self._flush()

    def _flush(self) -> None:
        n, self._held = self._held, 0
        if n:
            self._values += _observables._trace_distances(self._diffs[:n],
                                                           self._scratch[:n]).tolist()


def _check_config(config) -> None:
    """Raise ConfigValidationError unless config is a SimConfig."""
    if not isinstance(config, SimConfig):
        raise ConfigValidationError(f"config: must be a SimConfig, got {config!r}")


def _lockstep(config: SimConfig, schedule, engines: tuple[str, ...] | None, deep_checks: bool,
              snapshot_steps=(), per_step_distance: bool = False):
    """Step one lane per engine through the schedule, all lanes in lockstep.

    Returns the lanes and, for ``per_step_distance`` (two lanes), the
    ``_Distances`` of their states after every step, else None. ``engines``
    None is config's own engine, which must not be "both".
    """
    _check_config(config)
    if engines is None:
        if config.engine == "both":
            raise ConfigValidationError(
                "engine: run() drives a single engine; use run_compare for 'both'")
        engines = (config.engine,)
    if schedule is None:  # the generators make only valid preps, so these are not re-checked
        schedule = make_schedule(config)
    elif not isinstance(schedule, Sequence):  # steps index it, so a set or an iterator won't do
        raise ConfigValidationError(
            f"schedule: must be a sequence of AtomPrep, got {type(schedule).__name__}"
        )
    elif len(schedule) != config.steps:
        raise ConfigValidationError(
            f"steps: schedule length {len(schedule)} != steps {config.steps}"
        )
    else:
        for j, prep in enumerate(schedule, start=1):
            try:
                if not isinstance(prep, _schedules.AtomPrep):
                    raise InvalidPreparationError(f"expected an AtomPrep, got {prep!r}")
                prep.validate()
            except InvalidPreparationError as exc:
                raise InvalidPreparationError(f"schedule step {j}: {exc}") from None

    try:
        wanted = set(snapshot_steps)
        bad = sorted(s for s in wanted if s not in range(config.steps + 1))
    except TypeError:  # not a collection, or steps that do not compare
        raise ConfigValidationError(
            f"steps: snapshots must be a collection of step numbers, got {snapshot_steps!r}"
        ) from None
    if bad:
        raise ConfigValidationError(f"steps: snapshot(s) {bad} outside [0, {config.steps}]")
    for s in wanted:  # a bool or a float equal to a step number is none
        check_integer("steps: snapshot step", s, 0, ConfigValidationError)
    _check_run_size(config.steps, config.dim, len(wanted))
    lanes = [_Lane(config, engine, deep_checks, wanted) for engine in engines]
    distances = _Distances(config.dim) if per_step_distance else None
    for j, prep in enumerate(schedule, start=1):
        for lane in lanes:
            lane.state = lane.kernel.step(lane.state, prep)
            lane.take(j)
        if distances is not None:
            distances.take(lanes)
    return lanes, distances


def run(
    config: SimConfig,
    schedule: list[_schedules.AtomPrep] | None = None,
    *,
    snapshot_steps: set[int] | frozenset[int] | tuple[int, ...] = (),
    deep_checks: bool = True,
) -> RunResult:
    """Drive one engine over the whole schedule.

    Returns the per-step observable records (row 0 is the initial state),
    the final density matrix, worst-case diagnostics, and copies of the
    state at the requested snapshot steps (each in [0, steps]). Raises
    truncation-overflow once the top two Fock levels together reach 1e-6.
    ``deep_checks`` adds the hidden engine's guard; the standard engine has
    none either way, runs only the per-step checks, and reports a Hermiticity
    defect and lowest eigenvalue of 0.0.
    """
    (lane,), _ = _lockstep(config, schedule, None, deep_checks, snapshot_steps)
    return lane.result()


def run_compare(
    config: SimConfig,
    schedule: list[_schedules.AtomPrep] | None = None,
    *,
    per_step_distance: bool = True,
    deep_checks: bool = False,
) -> CompareResult:
    """Run the hidden and standard engines in lockstep over one schedule.

    ``trace_distances`` has one entry per step, 0.0 at step 0; without
    ``per_step_distance`` only the last step's is taken, and the steps between
    are nan. ``deep_checks`` adds the hidden lane's guard only, as in ``run``.
    """
    lanes, every = _lockstep(config, schedule, ("hidden", "standard"), deep_checks,
                             per_step_distance=per_step_distance)
    distances = every.values if every is not None else [
        0.0, *[math.nan] * (config.steps - 1),
        _observables.trace_distance(lanes[0].rho, lanes[1].rho)]
    h, s = (lane.result() for lane in lanes)
    return CompareResult(h.records, s.records, distances, h.final, s.final,
                         h.diagnostics, s.diagnostics)


def converge(config: SimConfig, halvings: int) -> list[float]:
    """The dt-halving ladder: the final hidden-standard trace distance of config
    run at dt / 2**i and steps * 2**i, for i = 0..halvings, over the same interval.

    ``halvings`` is an integer >= 2. The finest config is made first, so the
    run-size budget rejects an over-long ladder before any run. Each run is
    ``run_compare``'s without deep checks and with only the last distance taken.
    """
    _check_config(config)
    check_integer("halvings", halvings, 2, ConfigValidationError)
    # Each halving doubles the steps: past RUN_MAX_BYTES.bit_length() halvings
    # every config is over the run-size budget, and 2**halvings is not formed.
    if halvings > RUN_MAX_BYTES.bit_length():
        raise ConfigValidationError(
            f"halvings: steps * 2**{halvings} steps are over the run-size limit")
    ladder = [replace(config, dt=config.dt / 2**i, steps=config.steps * 2**i)
              for i in range(halvings, -1, -1)]
    return [run_compare(c, per_step_distance=False).trace_distances[-1]
            for c in reversed(ladder)]
