"""Observable extraction, Husimi grids, fidelities, trace distance."""

import math
import tracemalloc

import numpy as np
import pytest

from hlq.errors import ConfigValidationError, InvalidDimensionError
from hlq import observables
from hlq.fockcore import coherent_vector
from hlq.observables import (
    HUSIMI_MAX_BYTES,
    HusimiGrid,
    TrajectoryRecorder,
    fidelity_coherent,
    ground_population,
    husimi_grid,
    husimi_grids,
    husimi_window,
    mean_photon,
    purity,
    quadrature_variances,
    trace_distance,
    trajectory_point,
)
from reference import (annihilation_matrix, reference_amplitudes, reference_diagnostics,
                       reference_husimi, reference_records, traced_peak)


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
        states = [random_density(rng, 10) for _ in range(4)]
        recorder = TrajectoryRecorder(3, 0.04)
        for state in states:
            recorder.record(state)
        rho = states[3]
        rec = recorder.records[3]
        assert rec.step == 3 and rec.t == 3 * 0.04
        assert rec.p00 == ground_population(rho)
        assert rec.mean_n == mean_photon(rho)
        assert rec.purity == purity(rho)
        assert rec.mean_b == trajectory_point(rho)
        assert (rec.var_x, rec.var_y) == quadrature_variances(rho)


class TestMomentInputs:
    """The one-state functions take any state a d x d check accepts."""

    FUNCS = (ground_population, mean_photon, purity, trajectory_point, quadrature_variances)

    # A real, integer or complex64 state gives the values of the same state
    # as complex128, bit for bit.
    @pytest.mark.parametrize("rho", [
        np.diag([0.5, 0.5]),
        np.array([[0.6, 0.2, 0.1], [0.2, 0.3, 0.05], [0.1, 0.05, 0.1]]),
        np.diag([1, 0, 0]),
        np.array([[2, 1], [1, 3]]),
        random_density(np.random.default_rng(15), 6).astype(np.complex64),
    ], ids=["float-diagonal", "float-full", "int-diagonal", "int-full", "complex64"])
    def test_dtype_gives_complex128_bits(self, rho):
        wide = rho.astype(complex)
        for func in self.FUNCS:
            assert repr(func(rho)) == repr(func(wide)), func.__name__

    # At d = 1 only diagonal 0 is kept: no photons, no centroid, vacuum noise.
    @pytest.mark.parametrize("rho", [np.ones((1, 1), dtype=complex), np.ones((1, 1))])
    def test_dim_one(self, rho):
        assert mean_photon(rho) == 0.0
        assert trajectory_point(rho) == 0.0
        assert quadrature_variances(rho) == (0.25, 0.25)

    # The caller's state is read, never written by the in-place reduction.
    def test_state_not_written(self):
        rho = random_density(np.random.default_rng(16), 8)
        before = rho.tobytes()
        for func in self.FUNCS:
            func(rho)
        assert rho.tobytes() == before


class TestRecorderOracle:
    """The chunked recorder's table equals the per-row oracle byte for byte."""

    CHUNK = observables._CHUNK

    # Mostly a displaced coherent state: a mean <b> of order sqrt(d) exercises
    # the variances' column squares (Re<b>)^2 and (Im<b>)^2 at large values.
    @staticmethod
    def states(d, count, seed):
        rng = np.random.default_rng(seed)
        spread = 0.25 * math.sqrt(d)
        return {j: 0.8 * coherent_density(complex(*rng.normal(scale=spread, size=2)), d)
                   + 0.2 * random_density(rng, d) for j in range(count)}

    @staticmethod
    def recorded(states, steps, dt=0.013):
        recorder = TrajectoryRecorder(steps, dt)
        for rho in states.values():
            recorder.record(rho)
        return recorder

    @pytest.mark.parametrize("d", [1, 2, 3, 12, 32, 48, 64, 96])
    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_table_equals_oracle(self, d, extra):
        rows = 3 * self.CHUNK + 5 if extra is None else self.CHUNK + extra
        states = self.states(d, rows, seed=d)
        table = self.recorded(states, rows - 1).records
        assert table.tobytes() == reference_records(states, 0.013).tobytes()

    @pytest.mark.parametrize("d", [3, 32])
    def test_read_mid_run_then_record_more(self, d):
        states = self.states(d, 2 * self.CHUNK + 9, seed=40 + d)
        recorder = TrajectoryRecorder(len(states) - 1, 0.013)
        mid = self.CHUNK + 7
        for j in range(mid):
            recorder.record(states[j])
        first = recorder.records[:mid].tobytes()
        head = {j: states[j] for j in range(mid)}
        assert first == reference_records(head, 0.013).tobytes()
        for j in range(mid, len(states)):
            recorder.record(states[j])
        assert recorder.records.tobytes() == reference_records(states, 0.013).tobytes()

    # States held in a frame turning at rate: each row equals the oracle's row of the
    # lab-frame state, taken as the engines take their snapshots, but for the purity,
    # which the recorder takes of the frame state.
    @pytest.mark.parametrize("d", [1, 2, 3, 12, 64])
    def test_frame_rows_equal_lab_oracle(self, d):
        rate, dt = -1.7, 0.013
        frames = self.states(d, 2 * self.CHUNK + 9, seed=80 + d)
        recorder = TrajectoryRecorder(len(frames) - 1, dt, rate)
        for rho in frames.values():
            recorder.record(rho)
        labs = {j: observables._turned(rho, rate * (j * dt)) for j, rho in frames.items()}
        expected = reference_records(labs, dt)
        expected.purity = [purity(rho) for rho in frames.values()]
        assert recorder.records.tobytes() == expected.tobytes()
        assert not np.array_equal(labs[9], frames[9]) or d == 1

    # The trace drift is folded from the rows as each chunk is reduced, with each
    # state's rho.trace() bits.
    @pytest.mark.parametrize("d", [2, 3, 12, 32])
    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_trace_drift_equals_oracle(self, d, extra):
        rows = 3 * self.CHUNK + 5 if extra is None else self.CHUNK + extra
        states = self.states(d, rows, seed=120 + d)
        recorder = self.recorded(states, rows - 1)
        recorder.records
        drift = reference_diagnostics(list(states.values()), False).max_trace_drift
        assert recorder.max_trace_drift.hex() == drift.hex()

    # The pending buffer is a fixed _CHUNK rows of 3d - 3 diagonal entries.
    def test_buffer_does_not_grow_with_steps(self):
        recorder = self.recorded(self.states(8, 3, seed=70), 100000)
        assert recorder._pending.shape == (self.CHUNK, 3 * 8 - 3)


class TestOneRowOneReduction:
    """Each one-state function reads the recorder's row of its state cast to complex128,
    so it equals that state's row bit for bit wherever a run records it: first, last
    before a flush, first after one, or pending when the table is read mid-run."""

    CHUNK = observables._CHUNK
    READS = {ground_population: lambda row: float(row.p00),
             mean_photon: lambda row: float(row.mean_n),
             purity: lambda row: float(row.purity),
             trajectory_point: lambda row: complex(row.mean_b),
             quadrature_variances: lambda row: (float(row.var_x), float(row.var_y))}

    @staticmethod
    def state(d, dtype, rng):
        if dtype is bool:
            return rng.random((d, d)) < 0.5
        if dtype is int:
            return rng.integers(-3, 4, size=(d, d))
        if dtype is np.float32:
            return random_density(rng, d).real.astype(np.float32)
        return random_density(rng, d).astype(dtype)

    @pytest.mark.parametrize("d", [1, 2, 3, 12, 65])
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, int, bool])
    def test_functions_read_the_row(self, d, dtype):
        rng = np.random.default_rng([d, 3])
        mid = self.CHUNK + 7
        steps = 2 * self.CHUNK
        placed = {j: self.state(d, dtype, rng) for j in (0, self.CHUNK - 1, self.CHUNK, mid)}
        recorder = TrajectoryRecorder(steps, 0.013)
        rows = {}
        for j in range(steps + 1):
            rho = placed.get(j)
            recorder.record(random_density(rng, d) if rho is None else rho.astype(complex))
            if j == mid:
                rows[j] = recorder.records[j]
        rows.update((j, recorder.records[j]) for j in placed if j != mid)
        for j, rho in placed.items():
            for func, read in self.READS.items():
                assert repr(func(rho)) == repr(read(rows[j])), (j, func.__name__)


class TestFidelity:
    def test_self_fidelity(self):
        gamma = 1.1 + 0.3j
        assert fidelity_coherent(coherent_density(gamma), gamma) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_against_coherent(self):
        gamma = 0.9
        assert fidelity_coherent(vacuum(), gamma) == pytest.approx(
            math.exp(-abs(gamma) ** 2), rel=1e-10
        )

    @pytest.mark.parametrize("gamma",
                             [1e200, complex(1e154, 1e154), math.nan, complex(0, math.inf), "x"])
    def test_bad_amplitude_rejected(self, gamma):
        with pytest.raises(ConfigValidationError,
                           match=r"^gamma: must be finite, a number with \|gamma\| <= "):
            fidelity_coherent(vacuum(8), gamma)


class TestTraceDistance:
    def test_identical_states(self):
        rho = vacuum()
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = vacuum(4)
        b = np.zeros((4, 4), dtype=complex)
        b[1, 1] = 1.0
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_list_operand_typed(self):
        a, b = vacuum(4), coherent_density(0.3, 4)
        assert trace_distance(a, b.tolist()) == trace_distance(a, b)
        with pytest.raises(InvalidDimensionError, match=r"^shape mismatch \(4, 4\) vs \(1, 1\)$"):
            trace_distance(a, [[1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_state_typed(self, bad):
        # eigvalsh would raise numpy's LinAlgError, not a package error.
        one = np.eye(3, dtype=complex)
        one[0, 2] = bad
        for a in (np.full((3, 3), bad), one):
            with pytest.raises(ConfigValidationError,
                               match=r"^a: must be finite, got a state with a non-finite entry$"):
                trace_distance(a, np.eye(3))
            with pytest.raises(ConfigValidationError, match=r"^b: must be finite, "):
                trace_distance(np.eye(3), a)

    def test_integer_states(self):
        assert trace_distance(np.diag([1, 0, 0]), np.diag([0, 1, 0])) == 1.0

    # Cast before the subtraction: numpy subtracts no booleans, and uint8 would wrap.
    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_boolean_and_unsigned_states(self, dtype):
        a, b = np.diag([1, 0, 0]).astype(dtype), np.diag([0, 1, 0]).astype(dtype)
        assert trace_distance(a, a) == 0.0
        assert trace_distance(a, b) == trace_distance(b, a) == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x, y = random_density(rng, 6), random_density(rng, 6)
            d1, d2 = trace_distance(x, y), trace_distance(y, x)
            assert d1 == pytest.approx(d2, abs=1e-14)
            assert 0.0 <= d1 <= 1.0 + 1e-12


class TestPurityBound:
    """A finite purity bounds every entry below sqrt(max float), so the trace and the
    Hermiticity defect are finite too: the lockstep's per-step check rests on this."""

    BOUND = 1.35e154  # sqrt(max float) is 1.3408e154

    @classmethod
    def assert_bounded(cls, rho):
        p = observables._purity(rho)
        if math.isfinite(p):
            assert np.abs(rho).max() < cls.BOUND
            assert np.isfinite(np.trace(rho))
            assert math.isfinite(np.abs(rho - rho.conj().T).max())
        return math.isfinite(p)

    @pytest.mark.parametrize("d", [2, 12, 64])
    def test_finite_purity_bounds_every_entry(self, d):
        # Whole states and single spikes scaled over 1e150..1e160, and spikes within a
        # few ulps of sqrt(max float): both sides of the bound must occur.
        rng = np.random.default_rng(d)
        edge = math.sqrt(np.finfo(float).max)
        finite = []
        for _ in range(300):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            finite.append(self.assert_bounded(10.0 ** rng.uniform(150, 160) * m / np.abs(m).max()))
            spike = 1e140 * m
            i, j = rng.integers(d, size=2)
            spike[i, j] = 10.0 ** rng.uniform(153.5, 154.5) * rng.choice([1, -1, 1j, -1j])
            finite.append(self.assert_bounded(spike))
        for k in range(-8, 9):
            for unit in (1, -1, 1j, -1j):
                rho = np.zeros((d, d), dtype=complex)
                rho[rng.integers(d), rng.integers(d)] = unit * edge * (1 + k * 2.0 ** -52)
                finite.append(self.assert_bounded(rho))
        assert any(finite) and not all(finite)

    @pytest.mark.parametrize("d", [2, 12, 64])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_non_finite_entry_gives_non_finite_purity(self, d, value, part, where):
        rng = np.random.default_rng([d, 7])
        for scale in (1.0, 1e150):
            rho = scale * random_density(rng, d)
            i = int(rng.integers(d))
            j = i if where == "diagonal" else (i + 1 + int(rng.integers(d - 1))) % d
            entry = rho[i, j]
            rho[i, j] = complex(value, entry.imag) if part == "real" else complex(entry.real, value)
            assert not self.assert_bounded(rho)

    def test_scaled_amplitude_with_a_finite_trace(self):
        # psi[0] scaled by 1e100: a trace of ~1e200, yet a purity that is not finite
        # (nan where zdotc forms inf - inf), so such a state fails its step.
        psi = coherent_vector(0.5 + 0.2j, 12)
        psi[0] *= 1e100
        rho = np.outer(psi, psi.conj())
        assert np.isfinite(np.trace(rho))
        assert not self.assert_bounded(rho)


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

    @pytest.mark.parametrize("extent", [math.nan, math.inf, 0.0, -1.0, "x", None, 1j])
    def test_bad_extent_rejected(self, extent):
        with pytest.raises(ConfigValidationError,
                           match="^husimi extent: must be finite, a real number > 0, got "):
            husimi_grid(vacuum(), extent, 5)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidDimensionError, match="at least 2 points"):
            husimi_grid(vacuum(), 1.0, 1)

    @pytest.mark.parametrize("resolution", [2.5, math.nan, math.inf, "5"])
    def test_non_whole_resolution_rejected(self, resolution):
        with pytest.raises(InvalidDimensionError, match="whole number of at least 2 points"):
            husimi_grid(vacuum(4), 5.0, resolution)

    # Only the requested size is computed: no test allocates a table near the cap.
    def test_table_over_cap_rejected_before_allocating(self):
        rho = np.zeros((12, 12), dtype=complex)
        assert 100000 ** 2 * 12 * 16 > HUSIMI_MAX_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ConfigValidationError,
                               match="grid 100000 x 100000 at dim 12 needs 1920000000000 bytes"):
                husimi_grid(rho, 5.0, 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    # Each extent makes a value the grid forms overflow: the running product at
    # dim 12, |gamma|^2 at dim 2, the span 2 * extent at dim 1.
    @pytest.mark.parametrize("d, extent", [(12, 1e200), (12, 1e150), (2, 1e154), (1, 1e308)])
    def test_extent_too_wide_for_dim_rejected(self, d, extent):
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        with pytest.raises(ConfigValidationError, match=f"too wide for dim {d}"):
            husimi_grid(rho, extent, 3)

    @pytest.mark.parametrize("d, extent", [(12, 40.0), (12, 1e20), (2, 1e153), (1, 1e153)])
    def test_wide_extent_within_range_stays_finite(self, d, extent):
        rng = np.random.default_rng(17)
        grid = husimi_grid(random_density(rng, d), extent, 4)
        assert np.isfinite(grid.values).all() and math.isfinite(grid.mass)

    # Q goes through a BLAS product per block of rows, whose rounding depends on
    # the kernel OpenBLAS picks and on the block's shape, so Q is held to the
    # einsum oracle by a bound. Only (32, 1e20) is too wide: its corner
    # amplitudes overflow.
    @pytest.mark.parametrize("extent", [1.5, 5.0, 40.0, 1e20])
    @pytest.mark.parametrize("d", [1, 2, 3, 12, 32])
    def test_grid_matches_einsum_oracle(self, d, extent):
        rng = np.random.default_rng(18)
        if (d, extent) == (32, 1e20):
            with pytest.raises(ConfigValidationError, match="too wide for dim 32"):
                husimi_grid(vacuum(d), extent, 41)
            return
        for rho in (random_density(rng, d), vacuum(d)):
            grid = husimi_grid(rho, extent, 41)
            values, mass = reference_husimi(rho, extent, 41)
            assert np.max(np.abs(grid.values - values)) <= 1e-14
            assert abs(grid.mass - mass) <= 1e-14

    # What stays bit-exact in the grid is its amplitude table, which carries
    # no product: its bits are the full-grid oracle's whichever rows are built
    # together, one, a block, or all.
    @pytest.mark.parametrize("extent", [1.5, 5.0, 40.0, 1e20])
    @pytest.mark.parametrize("d", [1, 2, 3, 12, 32])
    def test_grid_bits_equal_full_grid_oracle(self, d, extent):
        if (d, extent) == (32, 1e20):
            with pytest.raises(ConfigValidationError, match="too wide for dim 32"):
                husimi_grid(vacuum(d), extent, 41)
            return
        xs = np.linspace(-extent, extent, 41)
        expected = reference_amplitudes(extent, 41, d).T.tobytes()
        for rows in (1, 6, 41):
            blocks = [observables._coherent_rows(xs, xs[i:i + rows],
                                                 np.empty((d, xs[i:i + rows].size * 41), complex))
                      for i in range(0, 41, rows)]
            assert np.concatenate(blocks, axis=1).tobytes() == expected

    # Blocks of rows at their edges, each block's height seen by its amplitude
    # table: a 2-point grid, a last block only partly filled (201 rows in
    # blocks of 6 and one of 3 at dim 12) and one row per block (dim 48).
    @pytest.mark.parametrize("d, points, heights", [
        (12, 2, [2]), (12, 201, [6] * 33 + [3]), (48, 401, [1] * 401)])
    def test_block_edges_match_einsum_oracle(self, monkeypatch, d, points, heights):
        seen = []
        build = observables._coherent_rows

        def spy(xs, ys, out):
            seen.append(ys.size)
            return build(xs, ys, out)

        monkeypatch.setattr(observables, "_coherent_rows", spy)
        rho = random_density(np.random.default_rng(20), d)
        grid = husimi_grid(rho, 5.0, points)
        assert seen == heights
        values, mass = reference_husimi(rho, 5.0, points)
        assert np.max(np.abs(grid.values - values)) <= 1e-14
        assert abs(grid.mass - mass) <= 1e-14

    def test_repeated_calls_byte_equal(self):
        rho = random_density(np.random.default_rng(21), 12)
        first = husimi_grid(rho, 5.0, 201)
        again = husimi_grid(rho, 5.0, 201)
        assert again.values.tobytes() == first.values.tobytes()
        assert np.float64(again.mass).tobytes() == np.float64(first.mass).tobytes()

    # One amplitude table per block serves every state, and each state's Q is
    # the one-state grid's bytes whichever states share the call. At dim 12
    # and 201 points the last block is partial (33 blocks of 6 rows, one of 3).
    @pytest.mark.parametrize("points", [3, 41, 201])
    @pytest.mark.parametrize("d", [2, 12, 33])
    def test_husimi_grids_byte_equal_one_state_grids(self, d, points):
        rng = np.random.default_rng(22)
        states = [random_density(rng, d), vacuum(d), coherent_density(0.7 - 1.1j, d)]
        grids = husimi_grids(states, 5.0, points)
        assert len(grids) == len(states)
        for rho, grid in zip(states, grids):
            alone = husimi_grid(rho, 5.0, points)
            assert grid.values.tobytes() == alone.values.tobytes()
            assert np.float64(grid.mass).tobytes() == np.float64(alone.mass).tobytes()
            assert grid.x.tobytes() == alone.x.tobytes() == grid.y.tobytes()

    def test_husimi_grids_build_each_block_once(self, monkeypatch):
        seen = []
        build = observables._coherent_rows

        def spy(xs, ys, out):
            seen.append(ys.size)
            return build(xs, ys, out)

        monkeypatch.setattr(observables, "_coherent_rows", spy)
        rng = np.random.default_rng(23)
        husimi_grids([random_density(rng, 12) for _ in range(5)], 5.0, 201)
        assert seen == [6] * 33 + [3]

    # Rows per amplitude block, written out so that a changed _HUSIMI_BLOCK_BYTES
    # shows here. Blocks of any height build bit-equal tables, but the BLAS
    # product rho @ A is not bit-equal across heights: at dim 12 and 201 points,
    # 6- and 20-row blocks gave products up to 3.1e-19 apart for a random state,
    # and 14 of its Q cells differed in their last bits. So a new height can move
    # the bytes of the CLI's Husimi files.
    BLOCK_ROWS = {(2, 401): 20, (8, 101): 20, (12, 201): 6, (12, 401): 3, (48, 401): 1}

    @pytest.mark.parametrize("d, points", sorted(BLOCK_ROWS))
    def test_block_rows(self, monkeypatch, d, points):
        seen = []
        build = observables._coherent_rows
        monkeypatch.setattr(observables, "_coherent_rows",
                            lambda xs, ys, out: seen.append(ys.size) or build(xs, ys, out))
        husimi_grids([vacuum(d)] * 2, 5.0, points)
        rows, rest = self.BLOCK_ROWS[d, points], points % self.BLOCK_ROWS[d, points]
        assert seen == [rows] * (points // rows) + [rest] * (rest > 0)

    def test_husimi_grids_of_no_state_is_empty(self):
        assert husimi_grids([], 5.0, 201) == []

    # With no state to evaluate the window is still checked, as for any list.
    def test_husimi_grids_of_no_state_checks_the_window(self):
        with pytest.raises(ConfigValidationError,
                           match=r"^husimi extent: must be finite, a real number > 0, got -1\.0$"):
            husimi_grids([], extent=-1.0)
        with pytest.raises(InvalidDimensionError,
                           match=r"^husimi grid needs a whole number of at least 2 points per "
                                 r"axis, got 0$"):
            husimi_grids([], resolution=0)

    def test_husimi_grids_of_different_dims_rejected(self):
        with pytest.raises(InvalidDimensionError, match=r"different dims \[4, 6\]"):
            husimi_grids([vacuum(4), vacuum(6)], 5.0, 5)

    # The cap counts the full amplitude table; evaluated one block of rows at a
    # time, the grid holds little more than ``values`` itself.
    @pytest.mark.parametrize("d", [2, 12, 32, 48])
    def test_peak_is_values_plus_one_row(self, d):
        rho = random_density(np.random.default_rng(19), d)
        grid, peak = traced_peak(husimi_grid, rho, 5.0, 401)
        assert peak < 2 * grid.values.nbytes

    def test_window_checked_without_a_state(self):
        assert husimi_window(5, 3.0, 12) == (5.0, 3)
        with pytest.raises(ConfigValidationError, match="needs 1920000000000 bytes"):
            husimi_window(5.0, 100000, 12)
        with pytest.raises(ConfigValidationError, match="too wide for dim 12"):
            husimi_window(1e200, 3, 12)


class TestMalformedState:
    """One-state observables reject anything but a square 2-D array."""

    @pytest.mark.parametrize("func", [
        lambda rho: trace_distance(rho, rho),
        lambda rho: fidelity_coherent(rho, 0.3),
        lambda rho: husimi_grid(rho, 2.0, 5),
        lambda rho: husimi_grids([vacuum(2), rho], 2.0, 5),
        mean_photon,
        purity,
        quadrature_variances,
        trajectory_point,
        ground_population,
    ], ids=["trace_distance", "fidelity_coherent", "husimi_grid", "husimi_grids", "mean_photon",
            "purity", "quadrature_variances", "trajectory_point", "ground_population"])
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejected(self, func, shape):
        with pytest.raises(InvalidDimensionError, match="square 2-D array"):
            func(np.zeros(shape, dtype=complex))


class TestNonNumericState:
    """Every state-taking entry point rejects entries that are not numbers, and a ragged
    sequence, with a package error. Each used to raise a bare TypeError or ValueError,
    or, for a datetime state, to return a number."""

    BAD = {"str": np.array([["1", "0"], ["0", "0"]]),
           "object": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=object),
           "datetime": np.zeros((2, 2), dtype="datetime64[s]")}
    RAGGED = [[1.0, 0.0], [0.0]]
    CALLS = {
        "ground_population": lambda rho: ground_population(rho),
        "mean_photon": lambda rho: mean_photon(rho),
        "purity": lambda rho: purity(rho),
        "trajectory_point": lambda rho: trajectory_point(rho),
        "quadrature_variances": lambda rho: quadrature_variances(rho),
        "fidelity_coherent": lambda rho: fidelity_coherent(rho, 0.3),
        "trace_distance a": lambda rho: trace_distance(rho, vacuum(2)),
        "trace_distance b": lambda rho: trace_distance(vacuum(2), rho),
        "husimi_grid": lambda rho: husimi_grid(rho, 2.0, 5),
        "husimi_grids": lambda rho: husimi_grids([vacuum(2), rho], 2.0, 5),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call):
        name = call.split()[1] if " " in call else "rho"
        for kind, rho in self.BAD.items():
            with pytest.raises(ConfigValidationError,
                               match=rf"^{name}: must be an array of numbers, got dtype "):
                self.CALLS[call](rho)
        with pytest.raises(InvalidDimensionError,
                           match=r"^state must be a square 2-D array, got a ragged sequence$"):
            self.CALLS[call](self.RAGGED)

    # Nested lists of numbers are states too, and give the array's values.
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_number_lists_accepted(self, call):
        def values(result):
            grids = result if isinstance(result, list) else [result]
            return [g.values.tobytes() if isinstance(g, HusimiGrid) else g for g in grids]

        rho = coherent_density(0.3, 2)
        assert values(self.CALLS[call](rho.tolist())) == values(self.CALLS[call](rho))


class TestNonFiniteState:
    """One-state observables reject a state with a non-finite entry, as trace_distance does.

    Each used to return nan (or a number read past the bad entry) for such a state.
    """

    MESSAGE = r"^rho: must be finite, got a state with a non-finite entry$"

    @staticmethod
    def bad_states():
        """The all-NaN state, then NaN, +inf and -inf in the real and in the imaginary part,
        on and off the diagonal, of an otherwise valid state."""
        yield np.full((4, 4), math.nan)
        for value in (math.nan, math.inf, -math.inf):
            for imaginary in (False, True):
                for where in ((0, 0), (3, 1)):
                    rho = vacuum(4)
                    if imaginary:
                        rho.imag[where] = value
                    else:
                        rho.real[where] = value
                    yield rho

    def check(self, func):
        states = list(self.bad_states())
        assert len(states) == 13
        for rho in states:
            with pytest.raises(ConfigValidationError, match=self.MESSAGE):
                func(rho)

    def test_ground_population(self):
        self.check(ground_population)

    def test_mean_photon(self):
        self.check(mean_photon)

    def test_purity(self):
        self.check(purity)

    def test_trajectory_point(self):
        self.check(trajectory_point)

    def test_quadrature_variances(self):
        self.check(quadrature_variances)

    def test_fidelity_coherent(self):
        self.check(lambda rho: fidelity_coherent(rho, 0.3))

    def test_husimi_grid(self):
        self.check(lambda rho: husimi_grid(rho, 2.0, 5))

    def test_husimi_grids(self):
        self.check(lambda rho: husimi_grids([vacuum(4), rho], 2.0, 5))


class TestStridedTraceSum:
    """``rows[:n, :d].sum(axis=1)`` over the recorder's strided (n, 3d - 3) rows equals each
    state's ``rho.trace()`` bit for bit, which the recorder's trace drift rests on."""

    @pytest.mark.parametrize("n", [1, 2, 8, 56, 64])
    @pytest.mark.parametrize("d", [2, 3, 5, 12, 17, 33, 64, 65])
    def test_strided_sum_is_the_trace(self, d, n):
        rng = np.random.default_rng([d, n])
        # The recorder's gather: the flat positions of the diagonals 0, -1 and -2.
        k = np.arange(d) * (d + 1)
        index = np.concatenate([k, k[1:] - 1, k[2:] - 2])
        rows = np.empty((observables._CHUNK, index.size), dtype=complex)
        states = []
        for i in range(n):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = m * 10.0 ** rng.uniform(-13, 13, size=(d, d))
            rows[i] = rho.ravel()[index]
            states.append(rho)
        sums = rows[:n, :d].sum(axis=1)
        assert sums.tobytes() == np.array([rho.trace() for rho in states]).tobytes()
