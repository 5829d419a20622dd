"""Spin preparation sequences: uniform, alternating, rotating."""

import cmath
import math

import numpy as np
import pytest

from hlq.errors import (
    ConfigValidationError,
    InvalidCoherenceError,
    InvalidPreparationError,
)
from hlq.schedules import (
    AtomPrep,
    alternating_schedule,
    rotating_schedule,
    uniform_schedule,
)


def test_uniform_half_coherence_is_symmetric():
    s = 1 / math.sqrt(2)
    for prep in uniform_schedule(5, 0.5):
        assert prep.alpha == pytest.approx(s)
        assert prep.beta == pytest.approx(s)
        assert prep.zeta == pytest.approx(0.5)


def test_uniform_phase_lands_on_beta():
    prep = uniform_schedule(1, 0.3, phase=0.9)[0]
    assert cmath.phase(prep.beta) == pytest.approx(0.9)
    assert prep.zeta == pytest.approx(0.3 * cmath.exp(0.9j))


def test_zero_coherence_is_pure_up():
    for prep in uniform_schedule(3, 0.0):
        assert prep.alpha == pytest.approx(1.0)
        assert prep.beta == pytest.approx(0.0)
        assert prep.zeta == 0.0


def test_all_schedules_normalized():
    rng = np.random.default_rng(9)
    for _ in range(10):
        z = float(rng.uniform(0.0, 0.5))
        for sched in (
            uniform_schedule(7, z, float(rng.uniform(0, 6))),
            alternating_schedule(7, z),
            rotating_schedule(7, z, float(rng.uniform(0, 5)), 0.01),
        ):
            for prep in sched:
                prep.validate()
                assert abs(abs(prep.alpha) ** 2 + abs(prep.beta) ** 2 - 1.0) <= 1e-12


def test_normalization_message_kept():
    with pytest.raises(InvalidPreparationError,
                       match=r"^\|alpha\|\^2 \+ \|beta\|\^2 = 1.25, expected 1$"):
        AtomPrep(1.0, 0.5j, 1.0).validate()


def test_alternating_signs():
    sched = alternating_schedule(6, 0.4)
    zetas = [p.zeta for p in sched]
    for j, z in enumerate(zetas):
        assert z == pytest.approx(0.4 * (-1) ** j)
    assert sum(zetas) == pytest.approx(0.0, abs=1e-15)


def test_alternating_odd_sum_nonzero():
    assert abs(sum(p.zeta for p in alternating_schedule(5, 0.4))) == pytest.approx(0.4)


def test_rotating_matches_mid_step_times():
    omega, dt = 1.3, 0.02
    sched = rotating_schedule(8, 0.5, omega, dt)
    for j, prep in enumerate(sched, start=1):
        tau = (j - 0.5) * dt
        assert prep.zeta == pytest.approx(0.5 * cmath.exp(-1j * omega * tau))
        assert abs(prep.zeta) == pytest.approx(0.5)


def test_rotating_at_zero_frequency_is_uniform():
    a = rotating_schedule(4, 0.25, 0.0, 0.1)
    b = uniform_schedule(4, 0.25)
    for pa, pb in zip(a, b):
        assert pa.alpha == pytest.approx(pb.alpha)
        assert pa.beta == pytest.approx(pb.beta)


def test_overrange_coherence_rejected():
    for bad in (0.50001, 0.6, 1.0, -0.1, math.nan, "x", None, 0.3j):
        with pytest.raises(InvalidCoherenceError):
            uniform_schedule(3, bad)
        with pytest.raises(InvalidCoherenceError):
            alternating_schedule(3, bad)
        with pytest.raises(InvalidCoherenceError):
            rotating_schedule(3, bad, 1.0, 0.01)


def test_eta_passed_through():
    eta = 0.7 - 0.2j
    for sched in (
        uniform_schedule(3, 0.2, eta=eta),
        alternating_schedule(3, 0.2, eta=eta),
        rotating_schedule(3, 0.2, 1.0, 0.1, eta=eta),
    ):
        assert all(p.eta == eta for p in sched)


def test_prep_zeta_definition():
    prep = AtomPrep(alpha=0.6 * cmath.exp(0.3j), beta=0.8 * cmath.exp(-0.5j), eta=1.0)
    assert prep.zeta == pytest.approx(np.conj(prep.alpha) * prep.beta)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, name", [
    (lambda: uniform_schedule(2.5, 0.3), "n_steps"),
    (lambda: alternating_schedule(2.5, 0.3), "n_steps"),
    (lambda: rotating_schedule(2.5, 0.3, 1.0, 0.1), "n_steps"),
    (lambda: uniform_schedule(-1, 0.3), "n_steps"),
    (lambda: alternating_schedule(-1, 0.3), "n_steps"),
    (lambda: rotating_schedule(-1, 0.3, 1.0, 0.1), "n_steps"),
    (lambda: uniform_schedule("3", 0.3), "n_steps"),
    # A bool is a numbers.Integral, yet no step count: True once gave a 1-prep schedule.
    (lambda: uniform_schedule(True, 0.3), r"^n_steps: must be an integer >= 0, got True$"),
    (lambda: alternating_schedule(True, 0.3), r"^n_steps: must be an integer >= 0, got True$"),
    (lambda: rotating_schedule(True, 0.3, 1.0, 0.1),
     r"^n_steps: must be an integer >= 0, got True$"),
    (lambda: uniform_schedule(2, 0.3, NAN), "phase"),
    (lambda: uniform_schedule(2, 0.3, INF), "phase"),
    (lambda: uniform_schedule(2, 0.3, 0.0, complex("nan")), "eta"),
    (lambda: alternating_schedule(2, 0.3, complex(0.0, INF)), "eta"),
    (lambda: rotating_schedule(2, 0.3, NAN, 0.1), "omega"),
    (lambda: rotating_schedule(2, 0.3, 1.0, -INF), "dt"),
    (lambda: rotating_schedule(2, 0.3, 1.0, 0.1, NAN), "eta"),
    (lambda: rotating_schedule(2, 0.3, 1e308, 10.0), "overflows"),
    (lambda: uniform_schedule(2, 0.3, 0.0, "1"), r"^eta: must be finite, .* got '1'$"),
    (lambda: uniform_schedule(2, 0.3, 1j), r"^phase: .*, a real number, got 1j$"),
    (lambda: rotating_schedule(2, 0.3, 1j, 0.1), r"^omega: .*, a real number, got 1j$"),
    (lambda: rotating_schedule(2, 0.3, 1.0, 0.1j), r"^dt: .*, a real number, got 0\.1j$"),
    (lambda: rotating_schedule(2, 0.3, 1.0, None), r"^dt: .*, a real number, got None$"),
])
def test_generator_inputs_typed(make, name):
    with pytest.raises(ConfigValidationError, match=name):
        make()


def test_generator_preps_pass_validate():
    for n in (0, 3, np.int64(3), np.int32(4)):
        for schedule in (uniform_schedule(n, 0.3, np.float64(0.4), 0.8 - 0.3j),
                         alternating_schedule(n, 0.3, 1e308 + 1e308j),
                         rotating_schedule(n, 0.3, np.float64(1.3), np.float32(0.01), 2j)):
            assert len(schedule) == n
            for prep in schedule:
                prep.validate()
