"""Observable extraction, Husimi grids, fidelities, trace distance."""

import math

import numpy as np
import pytest

from hlq.fockcore import coherent_vector
from hlq.observables import (
    TrajectoryRecorder,
    fidelity_coherent,
    ground_population,
    husimi_grid,
    mean_photon,
    purity,
    quadrature_variances,
    trace_distance,
    trajectory_point,
)
from reference import annihilation_matrix


def vacuum(d=32):
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def coherent_density(gamma, d=32):
    c = coherent_vector(gamma, d)
    c = c / np.linalg.norm(c)
    return np.outer(c, c.conj())


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestScalars:
    def test_vacuum_values(self):
        rho = vacuum()
        assert ground_population(rho) == 1.0
        assert mean_photon(rho) == 0.0
        assert purity(rho) == pytest.approx(1.0)
        assert quadrature_variances(rho) == (pytest.approx(0.25), pytest.approx(0.25))
        assert trajectory_point(rho) == 0.0

    def test_coherent_values(self):
        gamma = 0.8 - 0.6j
        rho = coherent_density(gamma)
        assert ground_population(rho) == pytest.approx(math.exp(-abs(gamma) ** 2), rel=1e-9)
        assert mean_photon(rho) == pytest.approx(abs(gamma) ** 2, rel=1e-9)
        assert trajectory_point(rho) == pytest.approx(gamma, rel=1e-9)
        vx, vy = quadrature_variances(rho)
        assert vx == pytest.approx(0.25, abs=1e-9)
        assert vy == pytest.approx(0.25, abs=1e-9)

    def test_maximally_mixed_ground_population(self):
        d = 8
        assert ground_population(np.eye(d, dtype=complex) / d) == pytest.approx(1 / d)

    def test_moments_against_dense_traces(self):
        # diagonal-stripe extraction must agree with full Tr(rho X); the
        # dense product is formed in a padded space because the truncated
        # ladder identity b b+ = n + 1 breaks at the top level
        rng = np.random.default_rng(12)
        d = 16
        b = annihilation_matrix(d)
        n_op = b.conj().T @ b
        bp = annihilation_matrix(d + 2)
        for _ in range(10):
            rho = random_density(rng, d)
            assert trajectory_point(rho) == pytest.approx(np.trace(rho @ b), abs=1e-12)
            assert mean_photon(rho) == pytest.approx(np.trace(rho @ n_op).real, abs=1e-12)
            pad = np.zeros((d + 2, d + 2), dtype=complex)
            pad[:d, :d] = rho
            x = 0.5 * (bp + bp.conj().T)
            y = (bp - bp.conj().T) / 2j
            vx, vy = quadrature_variances(rho)
            vx_ref = (np.trace(pad @ x @ x) - np.trace(pad @ x) ** 2).real
            vy_ref = (np.trace(pad @ y @ y) - np.trace(pad @ y) ** 2).real
            assert vx == pytest.approx(vx_ref, abs=1e-12)
            assert vy == pytest.approx(vy_ref, abs=1e-12)

    def test_uncertainty_product(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            vx, vy = quadrature_variances(random_density(rng, 12))
            assert vx * vy >= 1.0 / 16.0 - 1e-6

    def test_record_bundles_scalars(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 10)
        recorder = TrajectoryRecorder(3)
        recorder.record(3, rho)
        rec = recorder.trajectory(0.04)[3]
        assert rec.step == 3 and rec.t == 3 * 0.04
        assert rec.p00 == ground_population(rho)
        assert rec.mean_n == mean_photon(rho)
        assert rec.purity == purity(rho)
        assert rec.mean_b == trajectory_point(rho)
        assert (rec.var_x, rec.var_y) == quadrature_variances(rho)


class TestFidelity:
    def test_self_fidelity(self):
        gamma = 1.1 + 0.3j
        assert fidelity_coherent(coherent_density(gamma), gamma) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_against_coherent(self):
        gamma = 0.9
        assert fidelity_coherent(vacuum(), gamma) == pytest.approx(
            math.exp(-abs(gamma) ** 2), rel=1e-10
        )


class TestTraceDistance:
    def test_identical_states(self):
        rho = vacuum()
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = vacuum(4)
        b = np.zeros((4, 4), dtype=complex)
        b[1, 1] = 1.0
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x, y = random_density(rng, 6), random_density(rng, 6)
            d1, d2 = trace_distance(x, y), trace_distance(y, x)
            assert d1 == pytest.approx(d2, abs=1e-14)
            assert 0.0 <= d1 <= 1.0 + 1e-12


class TestHusimi:
    def test_vacuum_center_value(self):
        grid = husimi_grid(vacuum(), 5.0, 201)
        iy, ix = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.x[ix] == 0.0 and grid.y[iy] == 0.0
        assert grid.values[iy, ix] == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_vacuum_radial_symmetry(self):
        grid = husimi_grid(vacuum(), 3.0, 41)
        assert np.allclose(grid.values, grid.values[::-1, :], atol=1e-14)
        assert np.allclose(grid.values, grid.values[:, ::-1], atol=1e-14)
        assert np.allclose(grid.values, grid.values.T, atol=1e-14)

    def test_coherent_peak_location_and_value(self):
        gamma = 1.0 + 0.5j  # lands exactly on the 201-point grid over [-5, 5]
        grid = husimi_grid(coherent_density(gamma), 5.0, 201)
        iy, ix = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.x[ix] == pytest.approx(gamma.real)
        assert grid.y[iy] == pytest.approx(gamma.imag)
        assert grid.values[iy, ix] == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_bounded_and_nonnegative(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            grid = husimi_grid(random_density(rng, 10), 4.0, 31)
            assert grid.values.min() >= -1e-12
            assert grid.values.max() <= 1.0 / math.pi + 1e-9

    def test_normalization_mass(self):
        for state in (vacuum(), coherent_density(1.2 - 0.7j)):
            grid = husimi_grid(state, 5.0, 201)
            assert abs(grid.mass - 1.0) <= 0.01

    def test_rectangular_window(self):
        grid = husimi_grid(vacuum(), (-2.0, 3.0, -1.0, 4.0), (11, 21))
        assert grid.values.shape == (21, 11)
        assert grid.x[0] == -2.0 and grid.x[-1] == 3.0
        assert grid.y[0] == -1.0 and grid.y[-1] == 4.0
