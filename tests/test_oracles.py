"""Closed-form vacuum survival law and the quadrature cross-check."""

import math

import numpy as np
import pytest

from hlq.engines import SimConfig, run
from hlq.errors import ConfigValidationError, InvalidModelError
from hlq.oracles import ground_state_probability
from reference import greens_quadrature_probability, two_boson_variances

# Value of the closed form at the first minimum of the slow linear run
# (eps = 1/2, omega = 2 pi / 5, omega T = pi): exp(-25 / (4 pi^2)).
P_MIN_SLOW = 0.5308597601693283


class TestClosedForm:
    def test_full_revival(self):
        omega = 2 * math.pi / 5
        for m in (1, 2, 3):
            t = 2 * math.pi * m / omega
            assert ground_state_probability(0.5, omega, t) == pytest.approx(1.0, abs=1e-12)

    def test_probability_minimum(self):
        omega = 2 * math.pi / 5
        t = math.pi / omega
        p = ground_state_probability(0.5, omega, t)
        assert p == pytest.approx(P_MIN_SLOW, abs=1e-14)
        assert p == pytest.approx(math.exp(-25.0 / (4.0 * math.pi**2)), abs=1e-14)

    def test_two_boson_squares_linear(self):
        for omega, t in ((math.pi, 0.8), (0.7, 2.0), (2.0, 0.3)):
            p1 = ground_state_probability(0.5, omega, t, model="linear")
            p2 = ground_state_probability(0.5, omega, t, model="two-boson")
            assert p2 == pytest.approx(p1**2, rel=1e-12)

    def test_intensity_same_form_as_linear(self):
        assert ground_state_probability(0.4, 1.1, 2.2, model="intensity") == (
            ground_state_probability(0.4, 1.1, 2.2, model="linear")
        )

    def test_static_limit(self):
        # omega = 0 continues analytically to exp(-(eps T)^2).
        assert ground_state_probability(0.3, 0.0, 2.0) == pytest.approx(
            math.exp(-0.36), rel=1e-12
        )
        # and the omega -> 0 limit is continuous
        assert ground_state_probability(0.3, 1e-9, 2.0) == pytest.approx(
            ground_state_probability(0.3, 0.0, 2.0), rel=1e-9
        )

    def test_periodicity(self):
        omega = 1.7
        for t in (0.1, 0.9, 2.5):
            assert ground_state_probability(0.5, omega, t) == pytest.approx(
                ground_state_probability(0.5, omega, t + 2 * math.pi / omega), rel=1e-12
            )

    def test_bounded(self):
        for omega in (0.0, 0.4, 2 * math.pi):
            for t in np.linspace(0.0, 12.0, 40):
                p = ground_state_probability(0.5, omega, float(t))
                assert 0.0 < p <= 1.0

    def test_sign_of_eps_irrelevant(self):
        assert ground_state_probability(-0.5, 1.0, 1.0) == ground_state_probability(
            0.5, 1.0, 1.0
        )

    def test_unknown_model(self):
        with pytest.raises(InvalidModelError):
            ground_state_probability(0.5, 1.0, 1.0, model="quartic")


class TestQuadrature:
    def test_t_zero(self):
        assert greens_quadrature_probability(0.5, 1.0, 0.0) == 1.0

    def test_agrees_with_closed_form(self):
        omega = math.pi
        for t in np.linspace(0.1, 4.0, 9):
            pq = greens_quadrature_probability(0.5, omega, float(t), 10_000)
            pc = ground_state_probability(0.5, omega, float(t))
            assert abs(pq - pc) <= 1e-6

    def test_never_exceeds_one(self):
        # equivalent to Im B <= 0 for all T
        for omega in (0.0, 0.9, 2 * math.pi / 5):
            for t in np.linspace(0.05, 8.0, 25):
                assert greens_quadrature_probability(0.5, omega, float(t), 400) <= 1.0 + 1e-12

    def test_second_order_convergence(self):
        omega, t = math.pi, 2.5
        pc = ground_state_probability(0.5, omega, t)
        errs = [
            abs(greens_quadrature_probability(0.5, omega, t, n) - pc)
            for n in (500, 1000, 2000)
        ]
        assert errs[0] > errs[1] > errs[2]
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_static_limit_matches(self):
        pq = greens_quadrature_probability(0.4, 0.0, 1.5, 2000)
        assert pq == pytest.approx(math.exp(-(0.4 * 1.5) ** 2), abs=1e-6)


class TestTwoBosonVariances:
    def test_no_drive_stays_vacuum(self):
        t = np.linspace(0.0, 5.0, 51)
        vx, vy = two_boson_variances(0.0, 1.3, t)
        assert np.all(vx == 0.25) and np.all(vy == 0.25)

    @pytest.mark.parametrize(
        "omega, eta",
        [(4 * math.pi, 1.0 + 0.0j), (math.pi, 1.0 + 0.0j), (4 * math.pi, 0.6 + 0.5j)],
    )
    def test_matches_standard_engine_every_step(self, omega, eta):
        # The standard engine's dense matrix exponential is an independent route
        # to the same quadratic dynamics.
        cfg = SimConfig(model="two-boson", omega=omega, dt=1e-4, steps=8000,
                        eta=eta, engine="standard")
        res = run(cfg, deep_checks=False)
        t = np.array([r.t for r in res.records])
        vx, vy = two_boson_variances(cfg.eta * cfg.zeta_abs, omega, t)
        assert np.max(np.abs(vx - [r.var_x for r in res.records])) <= 1e-7
        assert np.max(np.abs(vy - [r.var_y for r in res.records])) <= 1e-7


class TestNonFiniteArguments:
    NAN, INF = float("nan"), float("inf")

    def test_infinite_omega_rejected(self):
        with pytest.raises(ConfigValidationError,
                           match="^omega: must be finite, a real number, got inf$"):
            ground_state_probability(0.5, self.INF, 1.0)

    @pytest.mark.parametrize("args, name", [
        ((NAN, 1.0, 1.0), "eps_eff"), ((0.5, NAN, 1.0), "omega"), ((0.5, 1.0, NAN), "t_final"),
        ((0.5, 0.0, INF), "t_final"), (("x", 1.0, 1.0), "eps_eff"), ((0.1, None, 1.0), "omega"),
        ((0.5, 1j, 1.0), "omega"), ((0.5, 1.0, 10**400), "t_final"),
    ])
    def test_closed_form_rejects_nan(self, args, name):
        with pytest.raises(ConfigValidationError, match=f"{name}: must be finite"):
            ground_state_probability(*args)


class TestOverflowingArguments:
    """Finite arguments whose squares leave the float range give the p -> 0 limit."""

    def test_closed_form_past_float_range_is_zero(self):
        assert ground_state_probability(1e200, 1.0, 1.0) == 0.0

    def test_static_closed_form_past_float_range_is_zero(self):
        assert ground_state_probability(1e200, 0.0, 1.0) == 0.0
