"""Reference answers for the driven mode, independent of any stepping engine.

For a mode driven from the vacuum through the lowering coupling
V(t) = conj(eps) R(t) + eps R^dag(t) with R(t) = R0 exp(-i omega t), the
probability that the mode is still empty at time T has a closed form:

    p(T) = exp(-4 m |eps|^2 sin^2(omega T / 2) / omega^2),

with m = 1 for the linear and intensity couplings and m = 2 when the drive
exchanges quanta in pairs (each emission then lands two quanta, doubling
the exponent). At omega = 0 the limit is exp(-m |eps T|^2).

The quadrature and Bogoliubov references that check this law and the
engines live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import math

from .errors import ConfigValidationError, InvalidModelError
from .errors import check_member, check_number
from .fockcore import LOWERED_QUANTA, MODELS


def ground_state_law(eps_eff: float, omega: float, model: str = "linear"):
    """The closed form p(T) as a function of a real T, with eps_eff, omega and
    model checked once: ``hlq compare`` evaluates it at every recorded step."""
    check_member("model", model, MODELS, InvalidModelError)
    check_number("eps_eff", eps_eff, ConfigValidationError)
    check_number("omega", omega, ConfigValidationError, real=True)
    m = LOWERED_QUANTA[model]
    e = abs(eps_eff)

    def probability(t_final: float) -> float:
        try:
            if omega == 0.0:
                return math.exp(-m * (e * t_final) ** 2)
            s = math.sin(0.5 * omega * t_final)
            return math.exp(-4.0 * m * (e * s / omega) ** 2)
        except OverflowError:  # the exponent is past the float range, where exp gives 0
            return 0.0

    return probability


def ground_state_probability(
    eps_eff: float,
    omega: float,
    t_final: float,
    model: str = "linear",
) -> float:
    """Closed-form p(T) for a vacuum-started mode under a drive of strength eps_eff."""
    law = ground_state_law(eps_eff, omega, model)
    check_number("t_final", t_final, ConfigValidationError, real=True)
    return law(t_final)
