"""Coupling bands against the dense oracles, tensor plumbing, propagator, coherent vectors."""

import math

import numpy as np
import pytest

from hlq.errors import (
    ConfigValidationError,
    InvalidDimensionError,
    InvalidModelError,
    InvalidPreparationError,
)
from hlq.fockcore import (
    LOWERED_QUANTA,
    MODELS,
    coherent_vector,
    model_band,
    unitarity_defect,
)
from hlq.observables import TrajectoryRecorder, trajectory_point
from reference import (
    annihilation_matrix,
    hermitian_propagator,
    model_operator,
    number_matrix,
    partial_trace_spin,
    spin_projector,
    tensor_embed,
)


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestAnnihilation:
    """The reference b the bands are checked against."""

    def test_d2_exact(self):
        assert np.array_equal(annihilation_matrix(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_entry_formula(self):
        b = annihilation_matrix(4)
        assert b[2, 3] == pytest.approx(math.sqrt(3))
        for n in range(1, 4):
            assert b[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(b) == 3

    def test_d1_zero(self):
        assert np.array_equal(annihilation_matrix(1), np.zeros((1, 1)))

    def test_d0_rejected(self):
        with pytest.raises(InvalidDimensionError):
            annihilation_matrix(0)
        with pytest.raises(InvalidDimensionError):
            model_band("linear", 0)

    def test_number_from_commutator(self):
        # b^dag b must reproduce diag(0..d-1).
        b = annihilation_matrix(6)
        assert np.allclose(b.conj().T @ b, number_matrix(6))


class TestModelOperator:
    """model_band, the one statement of each R0, against the dense products."""

    def test_linear_is_annihilation(self):
        assert np.array_equal(model_band("linear", 8), np.diagonal(annihilation_matrix(8), 1).real)

    def test_two_boson_entries(self):
        r = model_band("two-boson", 8)
        for n in range(2, 8):
            assert r[n - 2] == pytest.approx(math.sqrt(n * (n - 1)))
        assert r.shape == (6,)

    def test_intensity_entries(self):
        r = model_band("intensity", 8)
        for n in range(1, 8):
            assert r[n - 1] == pytest.approx(n)
        assert r.shape == (7,)

    def test_unknown_model(self):
        with pytest.raises(InvalidModelError):
            model_band("cubic", 8)

    def test_non_integer_dim_rejected(self):
        with pytest.raises(InvalidDimensionError, match="must be an integer >= 1, got 2.5"):
            model_band("linear", 2.5)
        assert model_band("linear", np.int64(3)).size == 2

    # A bool is a numbers.Integral, yet no dim: dim True once gave an empty band.
    def test_bool_dim_rejected(self):
        with pytest.raises(InvalidDimensionError, match=r"^dim: must be an integer >= 1, got True$"):
            model_band("linear", True)

    def test_d1_degenerate(self):
        for model in MODELS:
            assert model_band(model, 1).shape == (0,)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32, 64])
    def test_band_is_the_dense_diagonal_bit_for_bit(self, model, d):
        k = LOWERED_QUANTA[model]
        band, r0 = model_band(model, d), model_operator(model, d)
        assert band.dtype == np.float64
        assert np.array_equal(band, np.diagonal(r0, k).real)
        assert not np.diagonal(r0, k).imag.any()
        # nothing of R0 lies off that one diagonal
        assert np.count_nonzero(r0) == np.count_nonzero(band)
        if model == "two-boson" and d <= 2:
            assert band.size == 0

    def test_observable_weights_are_the_bands(self):
        rng = np.random.default_rng(15)
        for d in (2, 3, 16, 40):
            b = annihilation_matrix(d)
            recorder = TrajectoryRecorder(5, 0.1)
            for j in range(5):
                rho = random_density(rng, d)
                recorder.record(rho)
                rec = recorder.records[j]
                mean_b, mean_bb = np.trace(rho @ b), np.trace(rho @ b @ b)
                assert abs(trajectory_point(rho) - mean_b) <= 1e-14
                assert abs(rec.mean_b - mean_b) <= 1e-14
                # var X - var Y = Re<b^2> - (Re<b>)^2 + (Im<b>)^2
                recorded_bb = rec.var_x - rec.var_y + rec.mean_b.real**2 - rec.mean_b.imag**2
                assert abs(recorded_bb - mean_bb.real) <= 1e-14


class TestSpinProjector:
    def test_pure_up(self):
        assert np.array_equal(spin_projector(1.0, 0.0), np.array([[1, 0], [0, 0]], dtype=complex))

    def test_symmetric_superposition(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(spin_projector(s, s), 0.5 * np.ones((2, 2)))

    def test_rank_one_idempotent(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            a = spin_projector(v[0], v[1])
            assert np.allclose(a @ a, a, atol=1e-14)
            assert np.trace(a).real == pytest.approx(1.0)
            assert np.allclose(a, a.conj().T)

    def test_coherence_entry(self):
        # Entry (down, up) must be conj(alpha) * beta.
        alpha, beta = 0.6, 0.8j
        a = spin_projector(alpha, beta)
        assert a[1, 0] == pytest.approx(np.conj(alpha) * beta)
        assert a[0, 1] == pytest.approx(alpha * np.conj(beta))

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidPreparationError):
            spin_projector(1.0, 0.5)


class TestTensorAndTrace:
    def test_identity_embed_block_diagonal(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 3)
        comp = tensor_embed(np.eye(2, dtype=complex), rho)
        assert np.allclose(comp[:3, :3], rho)
        assert np.allclose(comp[3:, 3:], rho)
        assert np.allclose(comp[:3, 3:], 0)

    def test_up_projector_embed(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 4)
        comp = tensor_embed(spin_projector(1.0, 0.0), rho)
        assert np.allclose(comp[:4, :4], rho)
        assert np.allclose(comp[4:, 4:], 0)

    def test_trace_factorizes(self):
        rng = np.random.default_rng(2)
        spin = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        field = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        comp = tensor_embed(spin, field)
        assert np.trace(comp) == pytest.approx(np.trace(spin) * np.trace(field))

    def test_partial_trace_inverts_embed(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        for _ in range(5):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            a = spin_projector(v[0], v[1])
            assert np.allclose(partial_trace_spin(tensor_embed(a, rho)), rho, atol=1e-14)

    def test_identity_traces_to_twice_identity(self):
        assert np.allclose(partial_trace_spin(np.eye(10, dtype=complex)), 2 * np.eye(5))

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.allclose(
            partial_trace_spin(x + y),
            partial_trace_spin(x) + partial_trace_spin(y),
        )

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            partial_trace_spin(np.eye(5, dtype=complex))

    def test_bad_spin_shape_rejected(self):
        with pytest.raises(InvalidDimensionError):
            tensor_embed(np.eye(3, dtype=complex), np.eye(2, dtype=complex))


def taylor_propagator(h, dt, terms=60):
    """Independent reference: truncated series for exp(-i h dt)."""
    u = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ h * (-1j * dt) / k
        u = u + term
    return u


class TestHermitianPropagator:
    def test_zero_hamiltonian(self):
        assert np.allclose(hermitian_propagator(np.zeros((4, 4)), 0.3), np.eye(4))

    def test_pauli_x_rotation(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        theta = 0.7
        expected = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * sx
        assert np.allclose(hermitian_propagator(sx, theta), expected, atol=1e-14)

    def test_unitary_for_random_hermitian(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 8, 17, 40):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = m + m.conj().T
            u = hermitian_propagator(h, 0.13)
            assert unitarity_defect(u) <= 1e-12

    def test_matches_series(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = 0.5 * (m + m.conj().T)
        u = hermitian_propagator(h, 0.2)
        assert np.max(np.abs(u - taylor_propagator(h, 0.2))) <= 1e-12

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_propagator(m, 0.1)


class TestCoherentVector:
    def test_vacuum(self):
        c = coherent_vector(0.0, 5)
        assert np.array_equal(c, np.array([1, 0, 0, 0, 0], dtype=complex))

    def test_norm_bound(self):
        # ||c||^2 >= 1 - 1e-8 once d >= |g|^2 + 8 sqrt(|g|^2 + 1).
        for gamma in (0.5, 1.0 + 1.0j, 2.0, -1.5 + 0.8j):
            g2 = abs(gamma) ** 2
            d = math.ceil(g2 + 8.0 * math.sqrt(g2 + 1.0))
            c = coherent_vector(gamma, d)
            assert np.linalg.norm(c) ** 2 >= 1.0 - 1e-8

    def test_eigenvector_of_annihilation(self):
        gamma = 0.9 - 0.4j
        d = 40
        c = coherent_vector(gamma, d)
        mean = np.vdot(c, annihilation_matrix(d) @ c) / np.vdot(c, c)
        assert abs(mean - gamma) <= 1e-8

    # 9.480751908109177e153 is the least modulus whose 2 |gamma|^2 overflows.
    @pytest.mark.parametrize("gamma", [1e200, complex(1e154, 1e154), math.nan,
                                       complex(0.3, math.nan), complex(math.inf, 0),
                                       9.480751908109177e153, complex(0, -9.480751908109177e153)])
    def test_bad_amplitude_rejected(self, gamma):
        with pytest.raises(ConfigValidationError,
                           match=r"^gamma: must be finite, a number with \|gamma\| <= "
                                 r"9\.480751908109176e\+153, got "):
            coherent_vector(gamma, 8)

    def test_largest_amplitude_accepted(self):
        # The next float below the least rejected modulus; its Poisson weights underflow.
        for gamma in (9.480751908109176e153, complex(0, -9.480751908109176e153)):
            assert np.array_equal(coherent_vector(gamma, 4), np.zeros(4))

    def test_non_number_amplitude_rejected(self):
        with pytest.raises(ConfigValidationError,
                           match=r"^gamma: must be finite, a number with \|gamma\| <= "
                                 r"9\.480751908109176e\+153, got 'x'$"):
            coherent_vector("x", 3)

    def test_non_integer_dim_rejected(self):
        with pytest.raises(InvalidDimensionError, match="must be an integer >= 1, got 2.5"):
            coherent_vector(0.1, 2.5)

    # A bool is a numbers.Integral, yet no dim: dim True once raised numpy's TypeError.
    def test_bool_dim_rejected(self):
        with pytest.raises(InvalidDimensionError, match=r"^dim: must be an integer >= 1, got True$"):
            coherent_vector(0.5, True)

    def test_poisson_weights(self):
        gamma = 1.3
        c = coherent_vector(gamma, 10)
        for n in range(10):
            expected = math.exp(-gamma**2) * gamma ** (2 * n) / math.factorial(n)
            assert abs(c[n]) ** 2 == pytest.approx(expected, rel=1e-12)


def test_public_api_leaves_out_test_oracles():
    import hlq
    import hlq.engines
    import hlq.errors
    import hlq.fockcore
    import hlq.oracles

    moved = ("hermitian_propagator", "spin_projector", "tensor_embed", "partial_trace_spin",
             "annihilation_matrix", "model_operator", "number_matrix")
    for name in moved + ("TrajectoryRecord", "InvalidHamiltonianError"):
        assert not hasattr(hlq, name), name
    for name in moved + ("HERMITICITY_TOL", "NORMALIZATION_TOL", "UNITARITY_TOL"):
        assert not hasattr(hlq.fockcore, name), name
    assert not hasattr(hlq.errors, "InvalidHamiltonianError")
    assert not hasattr(hlq.engines, "_band")
    for name in ("greens_quadrature_probability", "two_boson_variances", "initial_state"):
        assert not any(hasattr(m, name) for m in (hlq, hlq.oracles, hlq.engines)), name
    assert hlq.model_band is hlq.fockcore.model_band

