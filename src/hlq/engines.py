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
rho -> K_up rho K_up^dag + K_down rho K_down^dag done by slice updates, with
no eigendecomposition. The blocks depend only on |eta|: a kernel holds them
for the |eta| of the current step and rebuilds them when it changes.

The standard coupling is |eps| D (R0 + R0^dag) D^dag with
D = diag(e^{i theta n / k'}), theta = arg eps + k omega tau and
eps = eta conj(zeta). One eigh, R0 + R0^dag = W diag(w) W^dag, at build
gives every step's propagator D W e^{-i |eps| dt w} W^dag D^dag. Every
standard state is pure: a run starts from the vacuum or a coherent state and
each step is unitary. So the standard lane holds the state vector psi and
steps it by two matrix-vector products,

    psi -> q * (W (e^{-i |eps| dt w} * (W^dag (conj(q) * psi)))),   q = e^{i theta n / k'},

holding the d phases e^{-i |eps| dt w} for the current step's |eps| alike.
A kernel holds O(dim^2) state whatever its schedule, and every schedule takes
the same path in both engines.

Driver
------
``run`` and ``run_compare`` are thin wrappers over one lockstep driver. It
validates the config and schedule once, builds one lane (kernel, guard,
trajectory recorder) per engine from the same initial state, and moves every
lane through step j before any lane takes step j + 1. After each step a lane
forms its density matrix (the hidden lane holds it, the standard lane takes
psi psi^dag), its guard checks that matrix, and its recorder takes the purity
and gathers the diagonals 0, -1 and -2; the recorder reduces them 64 rows at
a time into the lane's ``np.recarray``, allocated once and returned as is
with every row complete. With two lanes the driver also takes the trace
distance between them.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import schedules as _schedules
from .errors import (
    ConfigValidationError,
    InvalidPreparationError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from .fockcore import (
    LOWERED_QUANTA,
    MODELS,
    coherent_vector,
    hermiticity_defect,
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

# Largest memory a run may ask for before its first step, in bytes. It is
# counted at _STEP_BYTES per step: two lanes' 72-byte trajectory rows plus one
# rotating-schedule prep (136 bytes traced, the largest schedule item). Each
# recorder's pending buffer is a fixed 64 x (3 dim - 3) x 16 bytes and each
# kernel holds the factors of one step; neither grows with steps.
RUN_MAX_BYTES = 1 << 30
_STEP_BYTES = 2 * 72 + 136


def phase_multiplicity(model: str, convention: str) -> int:
    """Integer k in the rotating factor exp(-i k omega tau) of R(tau)."""
    if convention not in PHASE_CONVENTIONS:
        raise ConfigValidationError(
            f"phase: unknown convention {convention!r}, expected one of {PHASE_CONVENTIONS}"
        )
    if convention == "operator":
        return LOWERED_QUANTA[model]
    return 1


@dataclass
class SimConfig:
    """Run description shared by the engines and the CLI.

    ``zeta_abs`` is the magnitude of the per-step spin coherence (the drive
    strength knob); ``gamma0`` is only read when ``initial = "coherent"``.
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

    def validate(self) -> None:
        # The string fields are type-checked by the membership tests below.
        for names, kind, what in ((("omega", "dt", "zeta_abs"), numbers.Real, "a number"),
                                  (("steps", "dim"), numbers.Integral, "an integer"),
                                  (("eta", "gamma0"), numbers.Complex, "a complex number"),
                                  (("outputs",), (tuple, list), "a tuple of names")):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, kind):
                    raise ConfigValidationError(f"{name}: must be {what}, got {value!r}")
        for name, value, allowed in (
            ("model", self.model, MODELS),
            ("schedule", self.schedule, _schedules.SCHEDULES),
            ("engine", self.engine, ENGINES),
            ("initial", self.initial, INITIAL_STATES),
            ("phase", self.phase, PHASE_CONVENTIONS),
        ):
            if value not in allowed:
                raise ConfigValidationError(
                    f"{name}: unknown value {value!r}, expected one of {allowed}"
                )
        if not math.isfinite(self.omega):
            raise ConfigValidationError(f"omega: must be finite, got {self.omega!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigValidationError(f"dt: must be positive, got {self.dt!r}")
        for name, value, least in (("steps", self.steps, 1), ("dim", self.dim, 2)):
            if value < least:
                raise ConfigValidationError(f"{name}: must be >= {least}, got {value!r}")
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
        nbytes = int(self.steps) * _STEP_BYTES
        if nbytes > RUN_MAX_BYTES:
            raise ConfigValidationError(
                f"steps: {self.steps!r} steps need {nbytes} bytes of records and schedule, "
                f"over the {RUN_MAX_BYTES}-byte limit"
            )
        if not (0.0 <= self.zeta_abs <= 0.5):
            raise ConfigValidationError(
                f"zeta: |zeta| = {self.zeta_abs!r} outside the reachable range [0, 0.5]"
            )
        if not math.isfinite(math.hypot(self.eta.real, self.eta.imag)):
            raise ConfigValidationError(f"eta: must be finite, got {self.eta!r}")
        if self.initial == "coherent" and not cmath.isfinite(self.gamma0):
            raise ConfigValidationError(f"initial: amplitude must be finite, got {self.gamma0!r}")
        # abs() and ** raise on overflow; the factor 2 leaves room for rounding in |g|^2
        size = math.hypot(self.gamma0.real, self.gamma0.imag)
        if self.initial == "coherent" and not math.isfinite(2.0 * size * size):
            raise ConfigValidationError(
                f"initial: amplitude {self.gamma0!r} too large, |amplitude|^2 overflows"
            )
        bad = [o for o in self.outputs if o not in OUTPUTS]
        if bad:
            raise ConfigValidationError(
                f"outputs: unknown value(s) {bad}, expected among {OUTPUTS}"
            )


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


def _pure_density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def initial_state(config: SimConfig) -> np.ndarray:
    """Vacuum or (renormalized) truncated coherent density matrix."""
    return _pure_density(initial_vector(config))


def _sin_over(g: np.ndarray, dt: float) -> np.ndarray:
    """sin(g dt) / g elementwise, dt where g = 0."""
    s = np.full(g.shape, dt)
    nz = g > 0.0
    s[nz] = np.sin(g[nz] * dt) / g[nz]
    return s


def _sandwich(
    rho: np.ndarray, a: np.ndarray, b: np.ndarray, k_low: int, upper: bool
) -> np.ndarray:
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


def _last_value(build):
    """Kernel method memo: build's result for the last argument only, held on the
    instance, so a kernel owns no reference cycle and is freed with its run."""
    slot = "_last" + build.__name__

    def memo(self, x):
        last = getattr(self, slot, None)
        if last is None or last[0] != x:
            last = (x, build(self, x))
            setattr(self, slot, last)
        return last[1]

    return memo


class _HiddenKernel:
    """Spin-assisted step as two banded Kraus operators from closed-form blocks.

    For the step's |eta|: C_up = cos(g_up dt), C_down = cos(g_down dt), and the
    bands -i S_up R0 and -i S_down R0^dag. Per step the prep amplitudes and the
    phase conj(eta) e^{-i k omega tau} enter as scalars:

        K_up   = alpha C_up + beta conj(eta) e^{-ik omega tau} (-i S_up R0),
        K_down = alpha eta e^{ik omega tau} (-i S_down R0^dag) + beta C_down.

    ``unitarity_defect`` is the largest defect of the joint blocks built so far.
    The joint propagator couples |up, i> only with |down, i + k'>, so its
    defect is taken over those 2 x 2 pairs, the k' uncoupled levels of each
    spin padding out the last k' pairs: O(dim) per build.
    """

    def __init__(self, r: np.ndarray, k_low: int, k_omega: float, dt: float):
        self.r = r
        self.k_low = k_low
        self.k_omega = k_omega
        self.dt = dt
        self.unitarity_defect = 0.0

    @_last_value
    def _blocks(self, eta_abs: float):
        r, k_low, dt = self.r, self.k_low, self.dt
        d, n = r.size + k_low, r.size
        g_up, g_down = np.zeros(d), np.zeros(d)
        g_up[:n] = g_down[k_low:] = eta_abs * np.abs(r)
        c_up, c_down = np.cos(g_up * dt), np.cos(g_down * dt)
        band_up = -1j * _sin_over(g_up, dt)[:n] * r
        band_down = -1j * _sin_over(g_down, dt)[k_low:] * r.conj()
        pairs = np.zeros((d, 2, 2), dtype=complex)
        pairs[:, 0, 0], pairs[:, 1, 1] = c_up, np.roll(c_down, -k_low)
        pairs[:n, 0, 1], pairs[:n, 1, 0] = eta_abs * band_up, eta_abs * band_down
        self.unitarity_defect = max(self.unitarity_defect, unitarity_defect(pairs))
        return c_up, band_up, c_down, band_down

    # The hidden step mixes, so this kernel steps the density matrix itself.
    start = staticmethod(_pure_density)

    @staticmethod
    def density(rho: np.ndarray) -> np.ndarray:
        return rho

    def step(
        self, rho: np.ndarray, prep: _schedules.AtomPrep, tau: float
    ) -> np.ndarray:
        c_up, band_up, c_down, band_down = self._blocks(abs(prep.eta))
        coupling = prep.eta.conjugate() * cmath.exp(-1j * self.k_omega * tau)
        up = _sandwich(rho, prep.alpha * c_up, prep.beta * coupling * band_up,
                       self.k_low, upper=True)
        down = _sandwich(rho, prep.beta * c_down,
                         prep.alpha * coupling.conjugate() * band_down,
                         self.k_low, upper=False)
        return up + down


class _StandardKernel:
    """Semiclassical step of the state vector by D W e^{-i |eps| dt w} W^dag D^dag."""

    def __init__(self, r: np.ndarray, k_low: int, k_omega: float, dt: float):
        # Complex on purpose: a real h0 sends eigh down LAPACK's real-symmetric path.
        h0 = np.diag(r.astype(complex), k_low)
        self.w, self.v = np.linalg.eigh(h0 + h0.conj().T)
        self.vh = self.v.conj().T
        self.unitarity_defect = unitarity_defect(self.v)
        self.k_omega = k_omega
        self.dt = dt
        self._fock = np.arange(h0.shape[0]) / k_low

    @staticmethod
    def start(psi: np.ndarray) -> np.ndarray:
        return psi

    density = staticmethod(_pure_density)

    @_last_value
    def _phases(self, eps_abs: float) -> np.ndarray:
        return np.exp(-1j * eps_abs * self.dt * self.w)

    def step(
        self, psi: np.ndarray, prep: _schedules.AtomPrep, tau: float
    ) -> np.ndarray:
        eps = prep.eta * prep.zeta.conjugate()
        eps_abs = abs(eps)
        if eps_abs == 0.0:
            return psi
        theta = cmath.phase(eps) + self.k_omega * tau
        q = np.exp(1j * theta * self._fock)
        return q * (self.v @ (self._phases(eps_abs) * (self.vh @ (q.conj() * psi))))


def make_schedule(config: SimConfig) -> list[_schedules.AtomPrep]:
    """Build the prep list named by config.schedule at config's parameters."""
    if config.schedule == "uniform":
        return _schedules.uniform_schedule(config.steps, config.zeta_abs, 0.0, config.eta)
    if config.schedule == "alternating":
        return _schedules.alternating_schedule(config.steps, config.zeta_abs, config.eta)
    return _schedules.rotating_schedule(
        config.steps, config.zeta_abs, config.omega, config.dt, config.eta
    )


class _Guard:
    """Per-step state checks and diagnostics accumulation."""

    def __init__(self, deep: bool):
        self.deep = deep
        self.diag = RunDiagnostics(min_eigenvalue=np.inf)

    def inspect(self, rho: np.ndarray, step: int) -> None:
        # NaN fails every comparison below, so non-finite values stop the run here.
        trace = np.trace(rho)
        if not cmath.isfinite(trace):
            raise NonFiniteStateError(step, "trace", trace)
        top2 = float(rho[-1, -1].real + rho[-2, -2].real)
        if top2 > self.diag.max_top_two_population:
            self.diag.max_top_two_population = top2
        if top2 >= TRUNCATION_LIMIT:
            raise TruncationOverflowError(step, top2)
        drift = abs(trace.real - 1.0) + abs(trace.imag)
        if drift > self.diag.max_trace_drift:
            self.diag.max_trace_drift = drift
        if self.deep:
            herm = hermiticity_defect(rho)
            if not math.isfinite(herm):
                raise NonFiniteStateError(step, "Hermiticity defect", herm)
            if herm > self.diag.max_hermiticity_defect:
                self.diag.max_hermiticity_defect = herm
            low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
            if low < self.diag.min_eigenvalue:
                self.diag.min_eigenvalue = low

    def finish(self, purities: np.ndarray) -> RunDiagnostics:
        """Close the diagnostics; the purity range is read from the recorded column."""
        self.diag.min_purity = min(1.0, float(purities.min()))
        self.diag.max_purity = max(1.0, float(purities.max()))
        if not self.deep:
            self.diag.min_eigenvalue = 0.0
        return self.diag


def _build_stepper(config: SimConfig, engine: str):
    k_low = LOWERED_QUANTA[config.model]
    k_omega = phase_multiplicity(config.model, config.phase) * config.omega
    kind = _HiddenKernel if engine == "hidden" else _StandardKernel
    return kind(model_band(config.model, config.dim), k_low, k_omega, config.dt)


class _Lane:
    """One engine in the lockstep driver: its state, kernel, guard, recorder and snapshots.

    ``state`` is what the kernel steps; ``rho``, its density matrix, is what
    the guard, recorder, snapshots, trace distance and result see.
    """

    def __init__(self, config: SimConfig, engine: str, deep: bool, wanted: set[int]):
        self.kernel = _build_stepper(config, engine)
        self.state = self.kernel.start(initial_vector(config))
        self.guard = _Guard(deep)
        self.recorder = TrajectoryRecorder(config.steps, config.dt)
        self.wanted = wanted
        self.snapshots: dict[int, np.ndarray] = {}
        self.observe(0)

    def observe(self, j: int) -> None:
        self.rho = self.kernel.density(self.state)
        self.guard.inspect(self.rho, j)
        self.recorder.record(j, self.rho)
        if j in self.wanted:
            self.snapshots[j] = self.rho.copy()

    def result(self) -> RunResult:
        records = self.recorder.records
        self.guard.diag.propagator_unitarity_defect = self.kernel.unitarity_defect
        return RunResult(records, self.rho, self.guard.finish(records.purity), self.snapshots)


def _lockstep(config: SimConfig, schedule, engines: tuple[str, ...], deep_checks: bool,
              snapshot_steps=(), per_step_distance: bool = True):
    """Step one lane per engine through the schedule, all lanes in lockstep.

    Returns the lanes and, for two lanes, the trace distance between their
    states after every step (row 0 is 0.0; nan except after the last step
    when ``per_step_distance`` is off).
    """
    config.validate()
    if "both" in engines:
        raise ConfigValidationError(
            "engine: run() drives a single engine; use run_compare for 'both'"
        )
    if schedule is None:
        schedule = make_schedule(config)
    if len(schedule) != config.steps:
        raise ConfigValidationError(
            f"steps: schedule length {len(schedule)} != steps {config.steps}"
        )
    for j, prep in enumerate(schedule, start=1):
        try:
            prep.validate()
        except InvalidPreparationError as exc:
            raise InvalidPreparationError(f"schedule step {j}: {exc}") from None

    wanted = set(snapshot_steps)
    bad = sorted(s for s in wanted if s not in range(config.steps + 1))
    if bad:
        raise ConfigValidationError(f"steps: snapshot(s) {bad} outside [0, {config.steps}]")
    lanes = [_Lane(config, engine, deep_checks, wanted) for engine in engines]
    distances = [0.0] if len(lanes) == 2 else []
    dt = config.dt
    for j in range(1, config.steps + 1):
        tau = (j - 0.5) * dt
        prep = schedule[j - 1]
        for lane in lanes:
            lane.state = lane.kernel.step(lane.state, prep, tau)
            lane.observe(j)
        if distances:
            due = per_step_distance or j == config.steps
            distances.append(_observables.trace_distance(lanes[0].rho, lanes[1].rho)
                             if due else float("nan"))
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
    """
    (lane,), _ = _lockstep(config, schedule, (config.engine,), deep_checks, snapshot_steps)
    return lane.result()


def run_compare(
    config: SimConfig,
    schedule: list[_schedules.AtomPrep] | None = None,
    *,
    per_step_distance: bool = True,
    deep_checks: bool = False,
) -> CompareResult:
    """Run the hidden and standard engines in lockstep over one schedule."""
    lanes, distances = _lockstep(config, schedule, ("hidden", "standard"), deep_checks,
                                 per_step_distance=per_step_distance)
    h, s = (lane.result() for lane in lanes)
    return CompareResult(h.records, s.records, distances, h.final, s.final,
                         h.diagnostics, s.diagnostics)
