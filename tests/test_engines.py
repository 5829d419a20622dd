"""Stepping engines: couplings, single steps, closed-form kernels, full runs."""

import cmath
import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hlq import engines
from hlq.engines import (
    SimConfig,
    initial_state,
    make_schedule,
    phase_multiplicity,
    run,
    run_compare,
)
from hlq.errors import (
    ConfigValidationError,
    InvalidPreparationError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from hlq.fockcore import coherent_vector, hermiticity_defect, unitarity_defect
from hlq.observables import (
    fidelity_coherent,
    quadrature_variances,
    trace_distance,
    trajectory_point,
)
from hlq.oracles import ground_state_probability
from hlq.schedules import AtomPrep, uniform_schedule
from reference import (
    annihilation_matrix,
    hermitian_propagator,
    hidden_step,
    interaction_hamiltonian,
    jc_hamiltonian,
    joint_propagator,
    model_operator,
    standard_step,
)

OMEGA_SLOW = 2 * math.pi / 5


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_vector(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def random_prep(rng, eta):
    theta = rng.uniform(0.0, math.pi / 2)
    return AtomPrep(complex(math.cos(theta)),
                    math.sin(theta) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)), eta)


def pulse_schedule(n, eta, seed=3):
    """sin^2 pulse: |zeta| changes every step, with a seeded phase jitter on zeta."""
    jitter = np.random.default_rng(seed).uniform(-0.3, 0.3, n)
    return [
        uniform_schedule(1, 0.5 * math.sin(math.pi * (j + 0.5) / n) ** 2,
                         float(jitter[j]), eta)[0]
        for j in range(n)
    ]


def eta_schedule(n, two_values=False, seed=5):
    """|zeta| = 0.4 with a seeded phase; |eta| new every step, or swapping between two values."""
    phases = np.random.default_rng(seed).uniform(-0.3, 0.3, n)
    if two_values:
        etas = [(0.8 + 0.3j, 1.3 - 0.2j)[j % 2] for j in range(n)]
    else:
        etas = [(0.6 + 0.8 * j / n) * cmath.exp(0.1j * j) for j in range(n)]
    return [uniform_schedule(1, 0.4, float(p), eta)[0] for p, eta in zip(phases, etas)]


def reference_run(cfg, sched, engine):
    """Final state of cfg over sched by the direct dense step of one engine."""
    r0 = model_operator(cfg.model, cfg.dim)
    k = phase_multiplicity(cfg.model, cfg.phase)
    rho = initial_state(cfg)
    for j in range(1, cfg.steps + 1):
        tau = (j - 0.5) * cfg.dt
        prep = sched[j - 1]
        if engine == "hidden":
            rho = hidden_step(rho, prep, r0, k, cfg.omega, tau, cfg.dt)
        else:
            eps = prep.eta * np.conj(prep.zeta)
            rho = standard_step(rho, eps, r0, k, cfg.omega, tau, cfg.dt)
    return rho


class TestCouplings:
    def test_jc_zero_coupling(self):
        r0 = model_operator("linear", 4)
        assert np.array_equal(jc_hamiltonian(r0, 1, 0.0, 1.0, 0.3), np.zeros((8, 8)))

    def test_jc_hermitian(self):
        rng = np.random.default_rng(21)
        for model in ("linear", "two-boson", "intensity"):
            r0 = model_operator(model, 6)
            k = phase_multiplicity(model, "operator")
            eta = complex(rng.normal(), rng.normal())
            v = jc_hamiltonian(r0, k, eta, 1.7, 0.9)
            assert hermiticity_defect(v) <= 1e-14

    def test_jc_d2_blocks(self):
        r0 = model_operator("linear", 2)
        v = jc_hamiltonian(r0, 1, 1.0, 1.0, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1.0
        expected[3, 0] = 1.0
        assert np.allclose(v, expected)
        assert np.allclose(v[:2, 2:], r0)
        assert np.allclose(v[2:, :2], r0.conj().T)

    def test_interaction_hermitian_and_zero(self):
        r0 = model_operator("two-boson", 5)
        assert hermiticity_defect(interaction_hamiltonian(r0, 2, 0.4 - 0.1j, 1.0, 0.2)) <= 1e-14
        assert np.array_equal(
            interaction_hamiltonian(r0, 2, 0.0, 1.0, 0.2), np.zeros((5, 5))
        )

    def test_phase_multiplicity_table(self):
        assert phase_multiplicity("linear", "operator") == 1
        assert phase_multiplicity("two-boson", "operator") == 2
        assert phase_multiplicity("intensity", "operator") == 1
        for model in ("linear", "two-boson", "intensity"):
            assert phase_multiplicity(model, "coherence") == 1


class TestHiddenStep:
    def test_zero_coupling_identity(self):
        rng = np.random.default_rng(22)
        rho = random_density(rng, 8)
        prep = AtomPrep(math.cos(0.5), math.sin(0.5), 0.0)
        out = hidden_step(rho, prep, model_operator("linear", 8), 1, 1.0, 0.2, 0.01)
        assert np.allclose(out, rho, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        r0 = model_operator("intensity", 10)
        for _ in range(10):
            rho = random_density(rng, 10)
            prep = AtomPrep(math.cos(0.3), math.sin(0.3) * np.exp(0.4j), 1.2)
            out = hidden_step(rho, prep, r0, 1, 0.9, 0.15, 0.02)
            assert abs(np.trace(out) - np.trace(rho)) <= 1e-12

    def test_first_order_generator(self):
        # rho' - rho = -i dt [H_eff, rho] + O(dt^2),
        # H_eff = conj(eta) zeta R e^{-i k w tau} + eta conj(zeta) R^dag e^{+i k w tau}
        rng = np.random.default_rng(24)
        d, omega, tau = 10, 0.7, 0.4
        r0 = model_operator("linear", d)
        rho = random_density(rng, d)
        prep = AtomPrep(math.cos(0.5), math.sin(0.5) * np.exp(0.3j), 0.9 + 0.4j)
        zeta = prep.zeta
        resid = []
        for dt in (1e-5, 5e-6):
            out = hidden_step(rho, prep, r0, 1, omega, tau, dt)
            h_eff = np.conj(prep.eta) * zeta * r0 * np.exp(-1j * omega * tau) + (
                prep.eta * np.conj(zeta) * r0.conj().T * np.exp(1j * omega * tau)
            )
            first = -1j * dt * (h_eff @ rho - rho @ h_eff)
            resid.append(np.max(np.abs(out - rho - first)))
        assert 3.5 <= resid[0] / resid[1] <= 4.5

    def test_matches_standard_to_first_order(self):
        # same state, one hidden step vs one standard step with eps = eta conj(zeta)
        rng = np.random.default_rng(25)
        d = 12
        r0 = model_operator("linear", d)
        rho = random_density(rng, d)
        prep = AtomPrep(math.cos(0.4), math.sin(0.4) * np.exp(0.7j), 1.1 - 0.2j)
        eps = prep.eta * np.conj(prep.zeta)
        gaps = []
        for dt in (1e-4, 5e-5):
            h = hidden_step(rho, prep, r0, 1, 1.0, 0.3, dt)
            s = standard_step(rho, eps, r0, 1, 1.0, 0.3, dt)
            gaps.append(np.max(np.abs(h - s)))
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5


class TestStandardStep:
    def test_zero_amplitude_identity(self):
        rng = np.random.default_rng(26)
        rho = random_density(rng, 6)
        out = standard_step(rho, 0.0, model_operator("linear", 6), 1, 1.0, 0.1, 0.05)
        assert np.allclose(out, rho, atol=1e-14)

    def test_purity_preserved_exactly(self):
        rng = np.random.default_rng(27)
        rho = random_density(rng, 8)
        out = standard_step(rho, 0.3 + 0.2j, model_operator("linear", 8), 1, 1.3, 0.2, 0.04)
        assert np.vdot(out, out).real == pytest.approx(np.vdot(rho, rho).real, abs=1e-13)

    def test_long_static_step_survival(self):
        # one step of width T at omega = 0 displaces the vacuum by -i eps T
        d, eps, t_pulse = 32, 0.25, 1.2
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        out = standard_step(rho, eps, annihilation_matrix(d), 1, 0.0, 0.0, t_pulse)
        expected = math.exp(-((eps * t_pulse) ** 2))
        assert out[0, 0].real == pytest.approx(expected, abs=1e-10)
        # displaced-vacuum overlap computed independently from coherent_vector
        c = coherent_vector(-1j * eps * t_pulse, d)
        assert out[0, 0].real == pytest.approx(abs(c[0]) ** 2, abs=1e-10)
        assert fidelity_coherent(out, -1j * eps * t_pulse) == pytest.approx(1.0, abs=1e-9)


class TestCachedStepping:
    """The engines' closed-form kernels against the direct dense reference."""

    def config(self, model, schedule, phase="operator"):
        return SimConfig(
            model=model, omega=1.3, dt=0.002, steps=60, dim=16,
            zeta_abs=0.41, eta=0.8 + 0.3j, schedule=schedule, phase=phase,
        )

    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("schedule", ["uniform", "alternating", "rotating"])
    def test_hidden_cache_matches_direct(self, model, schedule):
        cfg = self.config(model, schedule)
        rho = reference_run(cfg, make_schedule(cfg), "hidden")
        kernel = run(cfg, deep_checks=False).final
        assert np.max(np.abs(kernel - rho)) <= 1e-10

    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("schedule", ["uniform", "alternating", "rotating"])
    def test_standard_cache_matches_direct(self, model, schedule):
        cfg = self.config(model, schedule)
        rho = reference_run(cfg, make_schedule(cfg), "standard")
        kernel = run(dataclasses.replace(cfg, engine="standard"), deep_checks=False).final
        assert np.max(np.abs(kernel - rho)) <= 1e-10

    def test_tau_zero_identical(self):
        cfg = self.config("linear", "uniform")
        sched = make_schedule(cfg)
        p0 = sched[0]
        step = engines._build_stepper(cfg, "hidden").step
        rng = np.random.default_rng(28)
        rho = random_density(rng, cfg.dim)
        direct = hidden_step(rho, p0, model_operator("linear", cfg.dim), 1, cfg.omega, 0.0, cfg.dt)
        assert np.max(np.abs(step(rho, p0, 0.0) - direct)) <= 1e-13

    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("phase", ["operator", "coherence"])
    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_one_step_matches_reference(self, model, phase, d):
        rng = np.random.default_rng([29, d, len(model), len(phase)])
        r0 = model_operator(model, d)
        k = phase_multiplicity(model, phase)
        for _ in range(5):
            cfg = SimConfig(model=model, omega=rng.uniform(-3.0, 3.0), dt=rng.uniform(1e-3, 0.1),
                            steps=1, dim=d, phase=phase)
            prep = random_prep(rng, complex(rng.normal(), rng.normal()))
            tau = rng.uniform(0.0, 5.0)
            rho = random_density(rng, d)
            psi = random_vector(rng, d)
            step_h = engines._build_stepper(cfg, "hidden").step
            step_s = engines._build_stepper(cfg, "standard").step
            eps = prep.eta * np.conj(prep.zeta)
            ref_h = hidden_step(rho, prep, r0, k, cfg.omega, tau, cfg.dt)
            # The standard kernel steps the state vector: psi' psi'^dag against
            # the dense conjugation of psi psi^dag.
            ref_s = standard_step(np.outer(psi, psi.conj()), eps, r0, k, cfg.omega, tau, cfg.dt)
            out_s = step_s(psi, prep, tau)
            assert np.max(np.abs(step_h(rho, prep, tau) - ref_h)) <= 1e-13
            assert np.max(np.abs(np.outer(out_s, out_s.conj()) - ref_s)) <= 1e-13

    @pytest.mark.parametrize("engine", ["hidden", "standard"])
    def test_pulse_run_matches_reference(self, engine):
        eta = 1.2 * cmath.exp(0.4j)
        cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=1e-2, steps=160, dim=16,
                        eta=eta, engine=engine)
        sched = pulse_schedule(cfg.steps, eta)
        kernel = run(cfg, sched, deep_checks=False).final
        assert np.max(np.abs(kernel - reference_run(cfg, sched, engine))) <= 1e-10

    def test_eigh_once_per_engine_build(self, monkeypatch):
        eta = 1.2 * cmath.exp(0.4j)
        cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=1e-2, steps=160, eta=eta)
        sched = pulse_schedule(cfg.steps, eta)
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        run_compare(cfg, sched, per_step_distance=False)
        assert len(calls) <= 2

    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("two_values", [False, True])
    def test_varying_eta_matches_direct(self, model, two_values):
        cfg = self.config(model, "uniform")
        sched = eta_schedule(cfg.steps, two_values)
        ref_h = reference_run(cfg, sched, "hidden")
        single = run(cfg, sched, deep_checks=False).final
        both = run_compare(cfg, sched, per_step_distance=False)
        assert np.max(np.abs(single - ref_h)) <= 1e-10
        assert np.max(np.abs(both.final_hidden - ref_h)) <= 1e-10
        ref_s = reference_run(cfg, sched, "standard")
        assert np.max(np.abs(both.final_standard - ref_s)) <= 1e-10

    @pytest.mark.parametrize("engine", ["hidden", "standard"])
    def test_kernel_freed_without_cycle_collector(self, engine):
        # The held factors live on the kernel, not in a cycle through it, so
        # a finished run's kernel goes at once rather than at the next full
        # collection (dead kernels otherwise pile up across runs).
        cfg = self.config("linear", "uniform")
        kernel = engines._build_stepper(cfg, engine)
        start = kernel.start(engines.initial_vector(cfg))
        kernel.step(start, make_schedule(cfg)[0], 0.5 * cfg.dt)
        gone = weakref.ref(kernel)
        gc.disable()
        try:
            del kernel
            assert gone() is None
        finally:
            gc.enable()

    def test_kernel_state_does_not_grow_with_steps(self):
        # A new |eta| every step rebuilds the hidden blocks and the standard
        # phases every step; the peak still grows only by the 72-byte record
        # row per added step.
        for engine in ("hidden", "standard"):
            peaks = []
            for steps in (500, 5000):
                cfg = SimConfig(model="linear", omega=1.3, dt=0.002, steps=steps, dim=16,
                                engine=engine)
                sched = eta_schedule(steps)
                tracemalloc.start()
                try:
                    run(cfg, sched, deep_checks=False)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] <= 1.2 * 72 * 4500, engine

    def test_unitarity_defect_reported_for_varying_schedule(self, monkeypatch):
        sentinel = 0.123
        monkeypatch.setattr(engines, "unitarity_defect", lambda u: sentinel)
        eta = 0.9 - 0.3j
        cfg = SimConfig(model="two-boson", omega=1.0, dt=1e-2, steps=20, dim=12, eta=eta)
        res = run_compare(cfg, pulse_schedule(cfg.steps, eta), per_step_distance=False)
        assert res.diagnostics_hidden.propagator_unitarity_defect == sentinel
        assert res.diagnostics_standard.propagator_unitarity_defect == sentinel

        # Each check returns a new value, keyed by the checked matrix's size
        # (the hidden kernel checks a stack of 2 x 2 pairs, the standard one
        # its d x d eigenbasis): the hidden lane reports the largest over its
        # block builds, one per step whose |eta| differs from the step before.
        rng = np.random.default_rng(31)
        checked = []

        def fake(u):
            checked.append((u.shape[-1], rng.uniform()))
            return checked[-1][1]

        monkeypatch.setattr(engines, "unitarity_defect", fake)
        for two_values in (False, True):
            checked.clear()
            sched = eta_schedule(cfg.steps, two_values)
            res = run_compare(cfg, sched, per_step_distance=False)
            hidden = [v for n, v in checked if n == 2]
            standard = [v for n, v in checked if n == cfg.dim]
            assert len(hidden) == cfg.steps
            assert res.diagnostics_hidden.propagator_unitarity_defect == max(hidden)
            assert [res.diagnostics_standard.propagator_unitarity_defect] == standard

    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
    def test_pairwise_unitarity_matches_dense(self, model, d):
        k_low = engines.LOWERED_QUANTA[model]
        for eta_abs in (0.3, 1.2, 7.0):
            for dt in (1e-3, 0.1):
                cfg = SimConfig(model=model, omega=0.0, dt=dt, steps=1, dim=d)
                kernel = engines._build_stepper(cfg, "hidden")
                blocks = kernel._blocks(eta_abs)
                joint = joint_propagator(*blocks, eta_abs, k_low)
                # the blocks are exp(-i dt V) at tau = 0 and real eta
                v = jc_hamiltonian(model_operator(model, d), 1, eta_abs, 0.0, 0.0)
                assert np.max(np.abs(joint - hermitian_propagator(v, dt))) <= 1e-13
                dense = unitarity_defect(joint)
                assert abs(kernel.unitarity_defect - dense) <= 4.4e-16, (eta_abs, dt)

    def test_corrupted_block_reaches_diagnostics(self, monkeypatch):
        # A sin(g dt) / g band off by one part in 1e3 breaks the joint
        # unitarity far past the 1e-12 invariant bound: the pairwise check
        # sees what the dense one does.
        sin_over = engines._sin_over
        monkeypatch.setattr(engines, "_sin_over", lambda g, dt: (1 + 1e-3) * sin_over(g, dt))
        cfg = SimConfig(model="two-boson", omega=1.0, dt=1e-2, steps=20, dim=12, eta=0.9 - 0.3j)
        blocks = engines._build_stepper(cfg, "hidden")._blocks(abs(cfg.eta))
        dense = unitarity_defect(joint_propagator(*blocks, abs(cfg.eta), 2))
        assert dense > 1e-6
        for diag in (run(cfg, deep_checks=False).diagnostics,
                     run_compare(cfg, per_step_distance=False).diagnostics_hidden):
            assert abs(diag.propagator_unitarity_defect - dense) <= 4.4e-16

    def test_two_boson_phase_multiplicity_emerges(self):
        # conjugating V(0) by e^{i phi n} must reproduce jc_hamiltonian at k = 2
        d, omega, tau, eta = 8, 1.1, 0.37, 0.9 - 0.2j
        r0 = model_operator("two-boson", d)
        v0 = jc_hamiltonian(r0, 2, eta, omega, 0.0)
        phi = 2 * omega * tau / 2  # k = 2 phase spread over 2 lowered quanta
        fock = np.exp(1j * phi * np.arange(d))
        q = np.concatenate((fock, fock))
        conj = (q[:, None] * v0) * q.conj()[None, :]
        assert np.max(np.abs(conj - jc_hamiltonian(r0, 2, eta, omega, tau))) <= 1e-12


class TestStandardLane:
    """The standard lane steps a state vector; all it shows is the density psi psi^dag."""

    @staticmethod
    def config(model, schedule, steps=300):
        return SimConfig(model=model, omega=1.3, dt=2e-3, steps=steps, dim=24, zeta_abs=0.41,
                         eta=0.8 + 0.5j, schedule=schedule, engine="standard",
                         initial="coherent", gamma0=0.7 - 0.4j)

    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("schedule", ["uniform", "alternating", "rotating"])
    def test_purity_stays_one(self, model, schedule):
        purity = run(self.config(model, schedule), deep_checks=False).records.purity
        assert np.max(np.abs(purity - 1.0)) <= 1e-12

    def test_final_and_snapshots_are_psi_psi_dag(self):
        cfg = self.config("two-boson", "rotating", steps=60)
        res = run(cfg, snapshot_steps=range(cfg.steps + 1))
        kernel = engines._build_stepper(cfg, "standard")
        psi = kernel.start(engines.initial_vector(cfg))
        assert np.array_equal(res.snapshots[0], np.outer(psi, psi.conj()))
        for j, prep in enumerate(make_schedule(cfg), start=1):
            psi = kernel.step(psi, prep, (j - 0.5) * cfg.dt)
            assert np.array_equal(res.snapshots[j], np.outer(psi, psi.conj())), j
        assert np.array_equal(res.final, np.outer(psi, psi.conj()))

    def test_deep_guard_inspects_every_density(self, monkeypatch):
        seen = []
        inspect = engines._Guard.inspect

        def recording(guard, rho, step):
            seen.append((step, rho.shape))
            return inspect(guard, rho, step)

        monkeypatch.setattr(engines._Guard, "inspect", recording)
        cfg = self.config("intensity", "uniform")
        res = run(cfg)
        assert seen == [(j, (cfg.dim, cfg.dim)) for j in range(cfg.steps + 1)]
        # psi psi^dag is Hermitian up to the rounding of one product
        assert res.diagnostics.max_hermiticity_defect <= np.finfo(float).eps


class TestRun:
    def test_single_inert_step(self):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.1, steps=1, eta=0.0)
        res = run(cfg)
        assert np.allclose(res.final, initial_state(cfg), atol=1e-14)
        assert len(res.records) == 2
        assert res.records[0].p00 == 1.0

    def test_records_shape_and_times(self):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=25)
        res = run(cfg)
        assert len(res.records) == 26
        assert [r.step for r in res.records] == list(range(26))
        assert res.records[10].t == pytest.approx(0.1)

    def test_zero_coherence_standard_engine_constant(self):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=50,
                        zeta_abs=0.0, engine="standard")
        res = run(cfg)
        assert all(r.p00 == pytest.approx(1.0, abs=1e-14) for r in res.records)

    def test_zero_coherence_hidden_engine_second_order_leak(self):
        # with zeta = 0 the spin still exchanges quanta at O(dt^2) per step;
        # each step adds about (|eta| dt)^2 (<n> + 1), so the total stays
        # within N (|eta| dt)^2 up to the small <n> enhancement
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=50, zeta_abs=0.0)
        res = run(cfg)
        bound = cfg.steps * (abs(cfg.eta) * cfg.dt) ** 2
        assert res.records[-1].mean_n <= bound * (1 + bound)
        assert res.records[-1].mean_n > 0.0

    def test_truncation_overflow_raised(self):
        cfg = SimConfig(model="linear", omega=0.0, dt=0.01, steps=400, dim=6)
        with pytest.raises(TruncationOverflowError) as info:
            run(cfg)
        assert info.value.step > 0
        assert info.value.population >= 1e-6

    def test_engine_both_rejected(self):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=5, engine="both")
        with pytest.raises(ConfigValidationError):
            run(cfg)

    def test_schedule_length_mismatch(self):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=5)
        with pytest.raises(ConfigValidationError):
            run(cfg, uniform_schedule(4, 0.5))

    def test_invalid_config_fields(self):
        bad = [
            dict(model="bogus", omega=1.0, dt=0.01, steps=5),
            dict(model="linear", omega=1.0, dt=0.0, steps=5),
            dict(model="linear", omega=1.0, dt=0.01, steps=0),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, dim=1),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, zeta_abs=0.7),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, schedule="sawtooth"),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, phase="detuned"),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, initial="thermal"),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigValidationError):
                run(SimConfig(**kwargs))

    def test_non_integer_steps_and_dim_rejected(self):
        base = dict(model="linear", omega=1.0, dt=0.01, steps=5)
        for field, value in (("steps", 3.5), ("dim", 3.5), ("steps", 5.0)):
            cfg = SimConfig(**{**base, field: value})
            with pytest.raises(ConfigValidationError, match=f"{field}: must be an integer"):
                run(cfg)
        res = run(SimConfig(**{**base, "steps": np.int64(5), "dim": np.int32(8)}))
        assert len(res.records) == 6 and res.final.shape == (8, 8)

    @pytest.mark.parametrize("gamma0", [complex("nan"), complex("inf"), complex(0.3, math.nan)])
    @pytest.mark.parametrize("deep", [False, True])
    def test_non_finite_coherent_amplitude_rejected(self, gamma0, deep):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=5,
                        initial="coherent", gamma0=gamma0)
        with pytest.raises(ConfigValidationError, match="initial: amplitude must be finite"):
            run(cfg, deep_checks=deep)

    def test_out_of_range_snapshots_rejected(self):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=5)
        with pytest.raises(ConfigValidationError,
                           match=r"steps: snapshot\(s\) \[-1, 99\] outside \[0, 5\]"):
            run(cfg, snapshot_steps={-1, 99, 3})
        with pytest.raises(ConfigValidationError, match=r"snapshot\(s\) \[2.5\]"):
            run(cfg, snapshot_steps=(2.5,))
        assert set(run(cfg, snapshot_steps={0, 5}).snapshots) == {0, 5}

    def test_snapshots_returned(self):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=20)
        res = run(cfg, snapshot_steps={0, 10, 20})
        assert set(res.snapshots) == {0, 10, 20}
        assert np.allclose(res.snapshots[0], initial_state(cfg))
        assert np.allclose(res.snapshots[20], res.final)

    def test_sign_of_drive_invisible_in_observables(self):
        cfg = SimConfig(model="linear", omega=1.1, dt=0.002, steps=300)
        plus = run(cfg, uniform_schedule(300, 0.5, 0.0), deep_checks=False)
        minus = run(cfg, uniform_schedule(300, 0.5, math.pi), deep_checks=False)
        for a, b in zip(plus.records, minus.records):
            assert a.p00 == pytest.approx(b.p00, abs=1e-12)
            assert a.mean_n == pytest.approx(b.mean_n, abs=1e-12)
            assert a.purity == pytest.approx(b.purity, abs=1e-12)

    def test_coherent_initial_state(self):
        gamma = 0.6 + 0.2j
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=1,
                        eta=0.0, initial="coherent", gamma0=gamma)
        res = run(cfg)
        assert res.records[0].mean_n == pytest.approx(abs(gamma) ** 2, rel=1e-9)
        assert abs(np.trace(res.final) - 1.0) <= 1e-12


class TestNonFiniteStop:
    # building a kernel from the overflowing coupling warns before the run stops
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("deep", [False, True])
    @pytest.mark.parametrize("fields", [dict(eta=1e308), dict(dt=1e308, steps=1)],
                             ids=["eta", "dt"])
    def test_first_non_finite_step_raises(self, fields, deep):
        cfg = SimConfig(**{**dict(model="linear", omega=1.0, dt=0.01, steps=3, dim=8), **fields})
        for call in (run, run_compare):
            with pytest.raises(NonFiniteStateError, match="trace .*nan.* at step 1") as info:
                call(cfg, deep_checks=deep)
            assert info.value.step == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("deep", [False, True])
    def test_standard_overflow_names_first_bad_step(self, deep):
        # Steps 1 and 2 carry no drift (zeta = 0); step 3's |eps| dt overflows.
        cfg = SimConfig(model="linear", omega=1.0, dt=100.0, steps=4, dim=8, engine="standard")
        inert = AtomPrep(1.0, 0.0, 1.0)
        bad = uniform_schedule(1, 0.5, 0.0, 1e308)[0]
        with pytest.raises(NonFiniteStateError, match=r"trace .*nan.* at step 3") as info:
            run(cfg, [inert, inert, bad, inert], deep_checks=deep)
        assert info.value.step == 3

    def test_deep_guard_checks_hermiticity_before_eigvalsh(self):
        rho = initial_state(SimConfig(model="linear", omega=1.0, dt=0.01, steps=3, dim=8))
        rho[0, 5] = np.inf
        engines._Guard(deep=False).inspect(rho, 4)
        with pytest.raises(NonFiniteStateError, match="Hermiticity defect inf at step 4"):
            engines._Guard(deep=True).inspect(rho, 4)


class TestConfigBoundary:
    BASE = dict(model="linear", omega=1.0, dt=0.01, steps=5)

    @pytest.mark.parametrize("fields, message", [
        (dict(omega=1e308, dt=1.0, steps=3), r"k \* omega \* steps \* dt overflows"),
        (dict(model="two-boson", omega=1e308, dt=1.0, steps=1), r"k \* omega"),
        (dict(dt=1e308, steps=3), r"dt: steps \* dt or"),
        (dict(steps=10**400), r"dt: steps \* dt or"),
        (dict(eta=complex(1.7e308, 1.7e308)), r"eta: must be finite"),
        (dict(initial="coherent", gamma0=1e200), "initial: amplitude .* too large"),
        (dict(initial="coherent", gamma0=complex(1e154, 1e154)), "initial: .* too large"),
    ])
    def test_overflow_rejected_where_it_enters(self, fields, message):
        with pytest.raises(ConfigValidationError, match=message):
            run(SimConfig(**{**self.BASE, **fields}))

    # validate() alone: no run is made, so nothing near the cap is allocated.
    def test_run_size_cap_edge(self):
        most = engines.RUN_MAX_BYTES // 280
        SimConfig(**{**self.BASE, "steps": most}).validate()
        with pytest.raises(ConfigValidationError, match=f"steps: {most + 1} steps need"):
            SimConfig(**{**self.BASE, "steps": most + 1}).validate()

    @pytest.mark.parametrize("field, value", [
        ("omega", "1.0"), ("dt", None), ("steps", "5"), ("zeta_abs", "0.3"),
        ("eta", "1+1j"), ("gamma0", "0.3"), ("model", 3), ("outputs", "final"),
    ])
    def test_field_of_the_wrong_type_named(self, field, value):
        with pytest.raises(ConfigValidationError, match=f"^{field}: (must be|unknown value)"):
            run(SimConfig(**{**self.BASE, field: value}))

    @pytest.mark.parametrize("prep, message", [
        (AtomPrep(1.0, 0.0, complex("nan")), r"eta: must be finite"),
        (AtomPrep(1.0, 0.0, complex(1.7e308, 1.7e308)), r"eta: .* with \|eta\| finite"),
        (AtomPrep(complex("nan"), 0.0, 1.0), r"\|alpha\|\^2 \+ \|beta\|\^2 = nan, expected 1"),
        (AtomPrep(1.0, math.inf, 1.0), r"\|alpha\|\^2 \+ \|beta\|\^2 = inf"),
        (AtomPrep(1e200, 0.0, 1.0), r"\|alpha\|\^2 \+ \|beta\|\^2 = inf, expected 1"),
        (AtomPrep(1e155, 1e155, 1.0), r"\|alpha\|\^2 \+ \|beta\|\^2 = inf"),
        (AtomPrep(1.0, 0.0, "1"), r"alpha, beta, eta must be numbers"),
    ])
    @pytest.mark.parametrize("call", [run, run_compare])
    def test_bad_explicit_schedule_step_named(self, prep, message, call):
        good = uniform_schedule(1, 0.5)[0]
        schedule = [good, good, prep, good]
        cfg = SimConfig(**{**self.BASE, "steps": 4})
        with pytest.raises(InvalidPreparationError, match=f"^schedule step 3: {message}"):
            call(cfg, schedule)

    def test_numpy_scalars_accepted(self):
        plain = run(SimConfig(**self.BASE, zeta_abs=0.3, eta=0.8 + 0.2j, initial="coherent",
                              gamma0=0.2 - 0.1j))
        scalars = run(SimConfig(model=np.str_("linear"), omega=np.float64(1.0),
                                dt=np.float64(0.01), steps=np.int64(5), dim=np.int32(32),
                                zeta_abs=np.float64(0.3), eta=np.complex128(0.8 + 0.2j),
                                initial="coherent", gamma0=np.complex128(0.2 - 0.1j),
                                outputs=["final"]))
        assert np.array_equal(plain.final, scalars.final)


class TestEngineAgreement:
    def test_first_order_convergence_small(self):
        dists = []
        for i in range(3):
            dt = 5e-3 / 2**i
            cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=dt,
                            steps=int(round(0.5 / dt)))
            res = run_compare(cfg, per_step_distance=False)
            dists.append(res.trace_distances[-1])
        assert dists[0] > dists[1] > dists[2]
        for a, b in zip(dists, dists[1:]):
            assert 1.7 <= a / b <= 2.3

    def test_static_limit_coherent_displacement(self):
        # omega = 0, coherent start gamma0: final ~ |gamma0 - i eta zeta* T>
        gamma0 = 0.3 - 0.1j
        cfg = SimConfig(model="linear", omega=0.0, dt=2e-3, steps=500,
                        initial="coherent", gamma0=gamma0)
        res = run(cfg)
        t_final = cfg.steps * cfg.dt
        target = gamma0 - 1j * cfg.eta * cfg.zeta_abs * t_final
        assert fidelity_coherent(res.final, target) >= 0.99
        assert abs(res.records[-1].mean_b - target) <= 0.01 * max(1.0, abs(target))

    def test_trajectory_matches_drive_integral(self):
        # omega = 0 vacuum run: <b>(T) = -i eta zeta* T within 1%
        cfg = SimConfig(model="linear", omega=0.0, dt=1e-3, steps=1000)
        res = run(cfg, deep_checks=False)
        target = -1j * 0.5 * 1.0
        assert abs(res.records[-1].mean_b - target) <= 0.01 * abs(target)

    def test_alternating_pair_cancels(self):
        cfg = SimConfig(model="linear", omega=0.0, dt=1e-3, steps=2,
                        schedule="alternating")
        res = run(cfg, deep_checks=False)
        bound = 10.0 * (abs(cfg.eta) * cfg.zeta_abs * cfg.dt) ** 2
        assert trace_distance(res.final, initial_state(cfg)) <= bound

    def test_subradiant_run_stays_near_vacuum(self):
        # even-N alternating drive at omega = 0; the residual occupation is
        # the per-step O(dt^2) exchange leak, about N (eta zeta dt)^2 / 4 at
        # |zeta| = 1/2, so a dt = 1e-3 run at N = 200 sits below 1e-4
        cfg = SimConfig(model="linear", omega=0.0, dt=1e-3, steps=200,
                        schedule="alternating")
        res = run(cfg)
        assert res.records[-1].mean_n < 1e-4
        assert res.diagnostics.min_purity >= 0.999

    def test_uniform_schedule_tracks_closed_form(self):
        cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=2e-3, steps=1875)
        res = run(cfg, deep_checks=False)
        dev = max(
            abs(r.p00 - ground_state_probability(0.5, cfg.omega, r.t))
            for r in res.records
        )
        assert dev <= 0.01

    def test_rotating_schedule_breaks_closed_form(self):
        # the arbitration experiment: constant zeta with the phase on the
        # operator reproduces the closed form; putting the rotation on the
        # coherence as well does not
        cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=2e-3, steps=1875,
                        schedule="rotating")
        res = run(cfg, deep_checks=False)
        dev = max(
            abs(r.p00 - ground_state_probability(0.5, cfg.omega, r.t))
            for r in res.records
        )
        assert dev > 0.1

    def test_two_boson_convention_gap(self):
        # k = 1 (coherence convention) lands on the doubled-exponent closed
        # form; k = 2 (operator convention) does not
        p_ref = ground_state_probability(0.5, math.pi, 0.8, model="two-boson")
        cfg = SimConfig(model="two-boson", omega=math.pi, dt=1e-3, steps=800,
                        phase="coherence")
        res = run(cfg, deep_checks=False)
        assert abs(res.records[-1].p00 - p_ref) <= 0.05
        cfg_op = SimConfig(model="two-boson", omega=math.pi, dt=1e-3, steps=800,
                           phase="operator")
        res_op = run(cfg_op, deep_checks=False)
        assert abs(res_op.records[-1].p00 - p_ref) > 0.1

    def test_compare_lockstep_columns(self):
        cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=5e-3, steps=100)
        res = run_compare(cfg)
        assert len(res.records_hidden) == len(res.records_standard) == 101
        assert len(res.trace_distances) == 101
        assert res.trace_distances[0] == 0.0
        assert max(res.trace_distances) <= 0.02


class TestLockstepDriver:
    """run and run_compare share one driver, so a lane is a single-engine run."""

    @staticmethod
    def rotating():
        cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=1e-2, steps=120, dim=16,
                        eta=0.8 - 0.5j, schedule="rotating")
        return cfg, make_schedule(cfg)

    @staticmethod
    def pulse():
        eta = 1.2 * cmath.exp(0.4j)
        cfg = SimConfig(model="two-boson", omega=4.0, dt=1e-2, steps=120, dim=24, eta=eta)
        return cfg, pulse_schedule(cfg.steps, eta)

    @pytest.mark.parametrize("deep", [False, True])
    @pytest.mark.parametrize("case", ["rotating", "pulse"])
    def test_compare_lanes_equal_single_runs(self, case, deep):
        cfg, sched = getattr(self, case)()
        both = run_compare(cfg, sched, deep_checks=deep)
        for engine in ("hidden", "standard"):
            single = run(dataclasses.replace(cfg, engine=engine), sched, deep_checks=deep)
            records = getattr(both, f"records_{engine}")
            assert records.dtype == single.records.dtype
            for name in records.dtype.names:
                assert np.array_equal(records[name], single.records[name]), name
            assert np.array_equal(getattr(both, f"final_{engine}"), single.final)
            assert getattr(both, f"diagnostics_{engine}") == single.diagnostics

    def test_records_are_columns_and_rows(self):
        cfg, sched = self.rotating()
        res = run(cfg, sched, snapshot_steps={0, 7, 60, 120})
        records = res.records
        assert isinstance(records, np.recarray)
        assert isinstance(records.p00, np.ndarray) and records.p00.shape == (121,)
        assert np.array_equal(records.p00, [r.p00 for r in records])
        assert np.array_equal(records.var_x, [r.var_x for r in records])
        assert np.array_equal(records.t, np.arange(121) * cfg.dt)
        for j, rho in res.snapshots.items():
            assert (records.var_x[j], records.var_y[j]) == quadrature_variances(rho)
            assert records.mean_b[j] == trajectory_point(rho)

    def test_records_table_is_not_copied(self):
        # The recorder fills the returned table in place: no second per-step buffer.
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=3000, dim=4, eta=0.0)
        tracemalloc.start()
        try:
            res = run(cfg, deep_checks=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.records.nbytes == 72 * 3001
        assert peak <= 1.5 * res.records.nbytes

    @pytest.mark.parametrize("deep", [False, True])
    def test_purity_taken_once_per_step(self, monkeypatch, deep):
        from hlq import observables

        calls, original = [], observables.purity

        def counting(rho):
            calls.append(1)
            return original(rho)

        monkeypatch.setattr(observables, "purity", counting)
        # engines would look it up in its own namespace had it imported the name
        monkeypatch.setattr(engines, "purity", counting, raising=False)
        cfg, sched = self.rotating()
        res = run(cfg, sched, deep_checks=deep)
        assert len(calls) == cfg.steps + 1
        purities = res.records.purity
        assert purities.min() < 1.0 - 1e-6
        assert res.diagnostics.min_purity == min(1.0, float(purities.min()))
        assert res.diagnostics.max_purity == max(1.0, float(purities.max()))
