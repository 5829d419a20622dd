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
from .errors import check_integer, check_member, check_number
from .fockcore import LOWERED_QUANTA, MODELS

# Largest memory greens_quadrature_probability may ask for, in bytes. It is
# counted at _QUADRATURE_BYTES per grid point (resolution + 1 of them): eight
# complex entries, above the traced peak of its arrays (97 bytes per point at
# resolutions 10^5 and 10^6).
QUADRATURE_MAX_BYTES = 1 << 30
_QUADRATURE_BYTES = 128


def ground_state_probability(
    eps_eff: float,
    omega: float,
    t_final: float,
    model: str = "linear",
) -> float:
    """Closed-form p(T) for a vacuum-started mode under a drive of strength eps_eff."""
    check_member("model", model, MODELS, InvalidModelError)
    check_number("eps_eff", eps_eff, ConfigValidationError)
    check_number("omega", omega, ConfigValidationError, real=True)
    check_number("t_final", t_final, ConfigValidationError, real=True)
    m = LOWERED_QUANTA[model]
    e = abs(eps_eff)
    try:
        if omega == 0.0:
            return math.exp(-m * (e * t_final) ** 2)
        s = math.sin(0.5 * omega * t_final)
        return math.exp(-4.0 * m * (e * s / omega) ** 2)
    except OverflowError:  # the exponent is past the float range, where exp gives 0
        return 0.0


def greens_quadrature_probability(
    eps_eff: float,
    omega: float,
    t_final: float,
    resolution: int = 10_000,
) -> float:
    """p(T) from the double quadrature of the retarded propagator.

    ``resolution`` is the number of trapezoid subintervals per axis, an integer
    >= 100 whose arrays fit ``QUADRATURE_MAX_BYTES``. The double sum is folded
    into a single prefix-summed pass, so the cost is O(resolution), not
    O(resolution^2).
    """
    check_integer("resolution", resolution, 100, ConfigValidationError)
    n = int(resolution)
    nbytes = (n + 1) * _QUADRATURE_BYTES
    if nbytes > QUADRATURE_MAX_BYTES:
        raise ConfigValidationError(
            f"resolution: {resolution!r} subintervals need {nbytes} bytes, "
            f"over the {QUADRATURE_MAX_BYTES}-byte limit"
        )
    check_number("eps_eff", eps_eff, ConfigValidationError)
    check_number("omega", omega, ConfigValidationError, real=True)
    check_number("t_final", t_final, ConfigValidationError, real=True)
    if t_final == 0.0:
        return 1.0
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
    try:
        scale = abs(eps_eff) ** 2 * h * h
    except OverflowError:  # |eps|^2 is past the float range; (|eps| h)^2 may not be
        try:
            scale = (abs(eps_eff) * h) ** 2
        except OverflowError:
            scale = math.inf
    if math.isinf(scale):  # the exponent is past the float range, where exp gives 0
        return 0.0
    b_val = -1j * scale * np.sum(w * inner)
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
    the variances grow without bound and Omega turns imaginary. Also raises
    when Delta^2 or Delta t leaves the float range, where the variances would
    come out NaN.
    """
    check_number("eps", eps, ConfigValidationError)
    check_number("omega", omega, ConfigValidationError, real=True)
    check_number("k", k, ConfigValidationError, real=True)
    try:
        t = np.asarray(t, dtype=float)
        finite = np.isfinite(t).all()
    except (TypeError, ValueError):  # not numbers
        finite = False
    if not finite:
        raise ConfigValidationError(f"t: must be finite real numbers, got {t!r}")
    delta = 0.5 * k * omega
    if delta <= 2.0 * abs(eps):
        raise ConfigValidationError(
            f"two-boson oracle needs k omega / 2 > 2 |eps|, got "
            f"{delta!r} <= {2.0 * abs(eps)!r} (parametric gain)"
        )
    if not math.isfinite(delta * delta):  # abs(eps) ** 2 < delta^2 / 4 is then finite
        raise ConfigValidationError(
            f"two-boson oracle: (k omega / 2)^2 overflows, got k omega / 2 = {delta!r}"
        )
    t_max = float(np.max(np.abs(t), initial=0.0))
    if not math.isfinite(delta * t_max):  # Omega <= Delta, so Omega t is then finite too
        raise ConfigValidationError(
            f"two-boson oracle: (k omega / 2) t overflows, got k omega / 2 = {delta!r} "
            f"at |t| = {t_max!r}"
        )
    big = math.sqrt(delta * delta - 4.0 * abs(eps) ** 2)
    rot = np.exp(1j * delta * t)
    s = np.sin(big * t)
    u = rot * (np.cos(big * t) - 1j * (delta / big) * s)
    v = -2j * eps * rot * s / big
    common = 1.0 + 2.0 * np.abs(v) ** 2
    cross = 2.0 * (u * v).real
    return 0.25 * (common + cross), 0.25 * (common - cross)
