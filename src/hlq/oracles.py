"""Reference answers for the driven mode, independent of any stepping engine.

For a mode driven from the vacuum through the lowering coupling
V(t) = conj(eps) R(t) + eps R^dag(t) with R(t) = R0 exp(-i omega t), the
probability that the mode is still empty at time T has a closed form:

    p(T) = exp(-4 m |eps|^2 sin^2(omega T / 2) / omega^2),

with m = 1 for the linear and intensity couplings and m = 2 when the drive
exchanges quanta in pairs (each emission then lands two quanta, doubling
the exponent). At omega = 0 the limit is exp(-m |eps T|^2).

The same probability is also expressible without solving any dynamics, as a
double time integral of the free retarded propagator of the mode,

    ln p(T) = 2 Im B,
    B = -i |eps|^2 * Int_0^T Int_0^T e^{-i omega (t - s)} theta(t - s) dt ds,

with theta(0) = 1/2. ``greens_quadrature_probability`` evaluates that
integral by the trapezoid rule; it is the slower but assumption-free check
on the closed form and on the engines.

The two-boson drive V(t) = conj(eps) b^2 e^{-i k omega t} + h.c. is
quadratic, so the mode evolves by a Bogoliubov map b -> u b + v b^dag
(Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)). With Delta = k omega / 2
and Omega = sqrt(Delta^2 - 4 |eps|^2),

    u = e^{i Delta t} [cos(Omega t) - i (Delta / Omega) sin(Omega t)],
    v = -2 i eps e^{i Delta t} sin(Omega t) / Omega,

and a vacuum start has var X = (1 + 2|v|^2 + 2 Re uv) / 4 and
var Y = (1 + 2|v|^2 - 2 Re uv) / 4. ``two_boson_variances`` evaluates these;
they swing between the principal values e^{+-2r} / 4 with
sinh r = (2 |eps| / Omega) |sin(Omega t)|.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigValidationError, InvalidModelError
from .fockcore import LOWERED_QUANTA, MODELS


def ground_state_probability(
    eps_eff: float,
    omega: float,
    t_final: float,
    model: str = "linear",
) -> float:
    """Closed-form p(T) for a vacuum-started mode under a drive of strength eps_eff."""
    if model not in MODELS:
        raise InvalidModelError(f"unknown model {model!r}, expected one of {MODELS}")
    m = LOWERED_QUANTA[model]
    e = abs(eps_eff)
    if omega == 0.0:
        return math.exp(-m * (e * t_final) ** 2)
    s = math.sin(0.5 * omega * t_final)
    return math.exp(-4.0 * m * (e * s / omega) ** 2)


def greens_quadrature_probability(
    eps_eff: float,
    omega: float,
    t_final: float,
    resolution: int = 10_000,
) -> float:
    """p(T) from the double quadrature of the retarded propagator.

    ``resolution`` is the number of trapezoid subintervals per axis (>= 100).
    The double sum is folded into a single prefix-summed pass, so the cost is
    O(resolution), not O(resolution^2).
    """
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    if t_final == 0.0:
        return 1.0
    n = int(resolution)
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
    b_val = -1j * abs(eps_eff) ** 2 * h * h * np.sum(w * inner)
    return float(np.exp(2.0 * b_val.imag))


def two_boson_variances(
    eps: complex,
    omega: float,
    t,
    k: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """(var X, var Y) of a vacuum-started mode under the two-boson drive eps.

    ``k`` is the phase multiplicity of the rotating factor (2 under the
    ``operator`` convention). Vectorised over ``t``. Raises when
    Delta = k omega / 2 <= 2 |eps|: that is the parametric-gain regime, where
    the variances grow without bound and Omega turns imaginary.
    """
    delta = 0.5 * k * omega
    if delta <= 2.0 * abs(eps):
        raise ConfigValidationError(
            f"two-boson oracle needs k omega / 2 > 2 |eps|, got "
            f"{delta!r} <= {2.0 * abs(eps)!r} (parametric gain)"
        )
    big = math.sqrt(delta * delta - 4.0 * abs(eps) ** 2)
    t = np.asarray(t, dtype=float)
    rot = np.exp(1j * delta * t)
    s = np.sin(big * t)
    u = rot * (np.cos(big * t) - 1j * (delta / big) * s)
    v = -2j * eps * rot * s / big
    common = 1.0 + 2.0 * np.abs(v) ** 2
    cross = 2.0 * (u * v).real
    return 0.25 * (common + cross), 0.25 * (common - cross)
