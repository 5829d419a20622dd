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

from .errors import ConfigValidationError, InvalidCoherenceError, InvalidPreparationError

SCHEDULES = ("uniform", "alternating", "rotating")


@dataclass(frozen=True)
class AtomPrep:
    """One spin preparation: |phi> = alpha|up> + beta|down>, coupling eta."""

    alpha: complex
    beta: complex
    eta: complex

    @property
    def zeta(self) -> complex:
        """Spin coherence conj(alpha) * beta, the per-step drive amplitude."""
        return complex(self.alpha).conjugate() * complex(self.beta)

    def validate(self) -> None:
        """Raise InvalidPreparationError unless alpha, beta, eta are finite and normalized."""
        try:  # hypot, unlike abs() of a complex, returns inf instead of raising on overflow
            a = math.hypot(self.alpha.real, self.alpha.imag)
            b = math.hypot(self.beta.real, self.beta.imag)
            e = math.hypot(self.eta.real, self.eta.imag)
        except (AttributeError, TypeError):
            raise InvalidPreparationError(
                f"alpha, beta, eta must be numbers, got {self!r}") from None
        if not math.isfinite(e):
            raise InvalidPreparationError(
                f"eta: must be finite, with |eta| finite, got {self.eta!r}")
        norm = a * a + b * b
        if not abs(norm - 1.0) <= 1e-12:  # also catches a NaN or overflowing norm
            raise InvalidPreparationError(
                f"|alpha|^2 + |beta|^2 = {norm!r}, expected 1"
            )


def _mixing_angle(zeta_abs: float) -> float:
    # |zeta| = cos(theta) sin(theta) = sin(2 theta)/2, capped at 1/2.
    if not 0.0 <= zeta_abs <= 0.5:
        raise InvalidCoherenceError(
            f"|zeta| = {zeta_abs!r} outside the reachable range [0, 0.5]"
        )
    return 0.5 * math.asin(2.0 * zeta_abs)


def _check_request(n_steps: int, **values) -> None:
    """Raise ConfigValidationError unless n_steps is an integer >= 0 and every value,
    real or complex, is a finite number of finite modulus, so every prep made passes
    ``AtomPrep.validate``."""
    if not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ConfigValidationError(f"n_steps: must be an integer >= 0, got {n_steps!r}")
    for name, value in values.items():
        if not (isinstance(value, numbers.Complex)
                and math.isfinite(math.hypot(value.real, value.imag))):
            raise ConfigValidationError(f"{name}: must be a finite number, got {value!r}")


def uniform_schedule(
    n_steps: int,
    zeta_abs: float,
    phase: float = 0.0,
    eta: complex = 1.0,
) -> list[AtomPrep]:
    """N identical preps with zeta = zeta_abs * exp(i phase)."""
    _check_request(n_steps, phase=phase, eta=eta)
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
    _check_request(n_steps, eta=eta)
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
    _check_request(n_steps, omega=omega, dt=dt, eta=eta)
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
    preps = []
    for j in range(1, n_steps + 1):
        tau = (j - 0.5) * dt
        preps.append(AtomPrep(a, s * cmath.exp(-1j * omega * tau), complex(eta)))
    return preps
