"""Per-step preparations of the disposable spin that encodes the drive.

Each step of the spin-assisted engine consumes one freshly prepared spin,
described by an :class:`AtomPrep`: the state amplitudes (alpha, beta) and
the coupling strength eta for that step. The spin coherence
zeta = conj(alpha) * beta plays the role of the drive amplitude, so
|zeta| <= 1/2 always, with the maximum at an equal-weight superposition.

A schedule is simply a list of N preparations. The three bundled
generators cover the cases of interest:

- ``uniform``:     the same prep every step,
- ``alternating``: the sign of zeta flips step to step (pairwise
                   cancellation of the emitted field),
- ``rotating``:    the phase of zeta turns at the oscillator frequency,
                   evaluated at the mid-step times tau_j = (j - 1/2) dt.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValidationError, InvalidCoherenceError, InvalidPreparationError
from .errors import check_integer, check_number

SCHEDULES = ("uniform", "alternating", "rotating")

# The bool types, which have .real and .imag but are no numbers to check_number.
_BOOLS = frozenset({bool, np.bool_})


@dataclass(frozen=True, slots=True)
class AtomPrep:
    """One spin preparation: |phi> = alpha|up> + beta|down>, coupling eta.

    Slotted: a rotating schedule holds one prep per step, 56 bytes each on
    every supported CPython (a __dict__ made it 96 to 152 bytes by version).
    """

    alpha: complex
    beta: complex
    eta: complex

    @property
    def zeta(self) -> complex:
        """Spin coherence conj(alpha) * beta, the per-step drive amplitude."""
        return complex(self.alpha).conjugate() * complex(self.beta)

    def validate(self) -> None:
        """Raise InvalidPreparationError unless alpha, beta, eta are numbers and not
        bools (``bool`` or ``np.bool_``), eta is finite and |alpha|^2 + |beta|^2 = 1.

        The moduli and the types are taken in this one frame, and ``check_number``
        is called only to name a failure: a call per number would double the cost
        of a valid prep, and every step of an explicit schedule is checked.
        """
        try:  # hypot, unlike abs() of a complex, returns inf instead of raising on overflow
            a = math.hypot(self.alpha.real, self.alpha.imag)
            b = math.hypot(self.beta.real, self.beta.imag)
            e = math.hypot(self.eta.real, self.eta.imag)
        except (AttributeError, TypeError):  # not a number, which the checks below name
            a = b = e = math.nan
        if (not math.isfinite(e) or type(self.alpha) in _BOOLS or type(self.beta) in _BOOLS
                or type(self.eta) in _BOOLS):
            for name in ("eta", "alpha", "beta"):
                check_number(name, getattr(self, name), InvalidPreparationError)
        norm = a * a + b * b
        if not abs(norm - 1.0) <= 1e-12:  # also catches a NaN or overflowing norm
            raise InvalidPreparationError(f"|alpha|^2 + |beta|^2 = {norm!r}, expected 1")


def check_zeta_abs(zeta_abs, error) -> None:
    """Raise error unless zeta_abs is a real number in [0, 1/2], the reachable |zeta|,
    and not a bool."""
    if isinstance(zeta_abs, bool) or not (isinstance(zeta_abs, numbers.Real)
                                          and 0.0 <= zeta_abs <= 0.5):
        raise error(f"zeta_abs: must be a real number in [0, 0.5], got {zeta_abs!r}")


def _mixing_angle(zeta_abs: float) -> float:
    # |zeta| = cos(theta) sin(theta) = sin(2 theta)/2, capped at 1/2.
    check_zeta_abs(zeta_abs, InvalidCoherenceError)
    return 0.5 * math.asin(2.0 * zeta_abs)


def uniform_schedule(
    n_steps: int,
    zeta_abs: float,
    phase: float = 0.0,
    eta: complex = 1.0,
) -> list[AtomPrep]:
    """N identical preps with zeta = zeta_abs * exp(i phase)."""
    check_integer("n_steps", n_steps, 0, ConfigValidationError)
    check_number("phase", phase, ConfigValidationError, real=True)
    check_number("eta", eta, ConfigValidationError)
    theta = _mixing_angle(zeta_abs)
    prep = AtomPrep(
        alpha=complex(math.cos(theta)),
        beta=cmath.exp(1j * phase) * math.sin(theta),
        eta=complex(eta),
    )
    return [prep] * n_steps

def alternating_schedule(
    n_steps: int,
    zeta_abs: float,
    eta: complex = 1.0,
) -> list[AtomPrep]:
    """Preps whose coherence flips sign every step: zeta_j = (-1)^(j-1) zeta_abs."""
    check_integer("n_steps", n_steps, 0, ConfigValidationError)
    check_number("eta", eta, ConfigValidationError)
    theta = _mixing_angle(zeta_abs)
    even = AtomPrep(complex(math.cos(theta)), complex(math.sin(theta)), complex(eta))
    odd = AtomPrep(complex(math.cos(theta)), complex(-math.sin(theta)), complex(eta))
    return [even if j % 2 == 0 else odd for j in range(n_steps)]


def rotating_schedule(
    n_steps: int,
    zeta_abs: float,
    omega: float,
    dt: float,
    eta: complex = 1.0,
) -> list[AtomPrep]:
    """Preps whose coherence turns with the mode: zeta_j = zeta_abs e^{-i omega tau_j}.

    tau_j = (j - 1/2) dt is the mid-step time at which the engines evaluate
    their couplings. At omega = 0 this degenerates to the uniform schedule.
    The last phase omega tau_N must be finite too.
    """
    check_integer("n_steps", n_steps, 0, ConfigValidationError)
    check_number("omega", omega, ConfigValidationError, real=True)
    check_number("dt", dt, ConfigValidationError, real=True)
    check_number("eta", eta, ConfigValidationError)
    try:  # bounds every phase omega tau_j
        span = abs(omega * dt) * n_steps
    except OverflowError:  # n_steps past the float range
        span = math.inf
    if not math.isfinite(span):
        raise ConfigValidationError(
            f"omega * dt * n_steps overflows (omega {omega!r}, dt {dt!r}, n_steps {n_steps!r})")
    theta = _mixing_angle(zeta_abs)
    a = complex(math.cos(theta))
    s = math.sin(theta)
    eta = complex(eta)  # one object shared by every prep
    preps = []
    for j in range(1, n_steps + 1):
        tau = (j - 0.5) * dt
        preps.append(AtomPrep(a, s * cmath.exp(-1j * omega * tau), eta))
    return preps
