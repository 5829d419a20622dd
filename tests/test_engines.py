"""Stepping engines: couplings, single steps, closed-form kernels, full runs."""

import cmath
import dataclasses
import gc
import json
import math
import os
import platform
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from hlq import engines, observables
from hlq.engines import (
    RunDiagnostics,
    SimConfig,
    converge,
    make_schedule,
    phase_multiplicity,
    run,
    run_compare,
)
from hlq.errors import (
    ConfigValidationError,
    InvalidModelError,
    InvalidPreparationError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from hlq.fockcore import coherent_vector, model_band, unitarity_defect
from hlq.observables import (
    TrajectoryRecorder,
    fidelity_coherent,
    quadrature_variances,
    trace_distance,
    trajectory_point,
)
from hlq.oracles import ground_state_law, ground_state_probability
from hlq.schedules import AtomPrep, alternating_schedule, uniform_schedule
from reference import (
    annihilation_matrix,
    frame_rate,
    hermitian_propagator,
    hermiticity_defect,
    hidden_step,
    initial_state,
    interaction_hamiltonian,
    jc_hamiltonian,
    joint_propagator,
    model_operator,
    reference_diagnostics,
    reference_records,
    standard_step,
    to_lab,
    traced_peak,
    two_pass_hidden_step,
)

OMEGA_SLOW = 2 * math.pi / 5


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_vector(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def signed_zero_vector(rng, d):
    """A random unit vector with signed zeros in either part, where a zero's sign would differ first."""
    psi = random_vector(rng, d)
    zeros = rng.integers(0, 4, d)
    psi.real[zeros == 1] = rng.choice([0.0, -0.0], d)[zeros == 1]
    psi.imag[zeros == 2] = rng.choice([0.0, -0.0], d)[zeros == 2]
    psi[zeros == 3] = complex(-0.0, -0.0)
    return psi


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


def lab_step(cfg, engine, state, prep, tau):
    """One kernel step of the lab-frame state at tau - dt/2, returned in the lab frame at
    tau + dt/2: the kernel steps the co-rotating frame, which ``to_lab`` turns in and out."""
    rate = frame_rate(cfg)
    kernel = engines._build_stepper(cfg, engine)
    out = kernel.step(to_lab(state, rate, -(tau - 0.5 * cfg.dt)), prep)
    return to_lab(out, rate, tau + 0.5 * cfg.dt)


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

    @pytest.mark.parametrize("convention", ["operator", "coherence"])
    def test_phase_multiplicity_unknown_model(self, convention):
        with pytest.raises(InvalidModelError,
                           match=r"^model: must be one of \('linear', 'two-boson', 'intensity'\), "
                                 r"got 'foo'$"):
            phase_multiplicity("foo", convention)


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
        rng = np.random.default_rng(28)
        rho = random_density(rng, cfg.dim)
        direct = hidden_step(rho, p0, model_operator("linear", cfg.dim), 1, cfg.omega, 0.0, cfg.dt)
        assert np.max(np.abs(lab_step(cfg, "hidden", rho, p0, 0.0) - direct)) <= 1e-13

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
            eps = prep.eta * np.conj(prep.zeta)
            ref_h = hidden_step(rho, prep, r0, k, cfg.omega, tau, cfg.dt)
            # The standard kernel steps the state vector: psi' psi'^dag against
            # the dense conjugation of psi psi^dag.
            ref_s = standard_step(np.outer(psi, psi.conj()), eps, r0, k, cfg.omega, tau, cfg.dt)
            out_s = lab_step(cfg, "standard", psi, prep, tau)
            assert np.max(np.abs(lab_step(cfg, "hidden", rho, prep, tau) - ref_h)) <= 1e-13
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
        kernel.step(start, make_schedule(cfg)[0])
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
                peaks.append(traced_peak(run, cfg, eta_schedule(steps), deep_checks=False)[1])
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
                c_up, c_down, band_up, band_down = kernel._blocks(eta_abs)
                n = d - k_low
                joint = joint_propagator(c_up, band_up[:n], c_down, band_down[:n], eta_abs, k_low)
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
        kernel = engines._build_stepper(cfg, "hidden")
        c_up, c_down, band_up, band_down = kernel._blocks(abs(cfg.eta))
        dense = unitarity_defect(joint_propagator(c_up, band_up[:10], c_down, band_down[:10],
                                                  abs(cfg.eta), 2))
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


class TestStackedHiddenStep:
    """The hidden kernel's one stacked pass against one ``sandwich`` per Kraus operator."""

    @staticmethod
    def replay(cfg, schedule):
        """(step, stacked state, two-pass state) after every step, both from the same start."""
        kernel = engines._build_stepper(cfg, "hidden")
        r, k_low = model_band(cfg.model, cfg.dim), engines.LOWERED_QUANTA[cfg.model]
        stacked = two_pass = initial_state(cfg)
        for j, prep in enumerate(schedule, start=1):
            stacked = kernel.step(stacked, prep)
            two_pass = two_pass_hidden_step(two_pass, prep, r, k_low, frame_rate(cfg), cfg.dt)
            yield j, stacked, two_pass

    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("d", [2, 3, 12, 32, 48, 64, 96])
    @pytest.mark.parametrize("schedule", ["uniform", "alternating", "rotating"])
    @pytest.mark.parametrize("initial", ["vacuum", "coherent"])
    def test_equals_two_pass_bytes(self, model, d, schedule, initial):
        # The last two keep exact zeros in the state (a real or imaginary eta,
        # dt = 1 turning cosines negative), where a zero's sign would differ first.
        # numpy buffers a call differently either side of 8,192 entries: 2 x 64^2
        # and 96^2 are past it.
        for eta, omega, dt in ((0.9 - 0.4j, 1.3, 0.05), (0j, 1.3, 0.05), (2j, 0.0, 1.0),
                               (1 + 0j, 2.0, 1.0)):
            cfg = SimConfig(model=model, omega=omega, dt=dt, steps=40, dim=d, zeta_abs=0.4,
                            eta=eta, schedule=schedule, initial=initial, gamma0=0.6 - 0.3j)
            for j, stacked, two_pass in self.replay(cfg, make_schedule(cfg)):
                assert stacked.tobytes() == two_pass.tobytes(), (eta, j)

    def test_value_equal_preps_refill_the_planes(self):
        # -0.0 == 0.0, so these preps compare equal, but their diagonal factors differ
        # in a zero's sign, which reaches the state at dt = 1 (cosines turn negative).
        eta = 0.9 - 0.4j
        plus, minus = AtomPrep(0j, 1 + 0j, eta), AtomPrep(complex(-0.0, 0.0), 1 + 0j, eta)
        assert plus == minus
        cfg = SimConfig(model="linear", omega=1.3, dt=1.0, steps=8, dim=12, eta=eta)
        for j, stacked, two_pass in self.replay(cfg, [plus, minus] * 4):
            assert stacked.tobytes() == two_pass.tobytes(), j

    def test_real_amplitudes_equal_values(self):
        # float alpha or beta make the two-pass diagonal factors real, so an exact
        # zero can come out with the other sign; every value is still equal
        cfg = SimConfig(model="linear", omega=0.7, dt=1.0, steps=40, dim=12)
        for prep in (AtomPrep(-0.8, 0.6, 3.0), AtomPrep(0.0, -1.0, 2 + 1j)):
            for j, stacked, two_pass in self.replay(cfg, [prep] * cfg.steps):
                assert np.array_equal(stacked, two_pass), (prep, j)

    def test_non_contiguous_state(self):
        rng = np.random.default_rng(41)
        cfg = SimConfig(model="two-boson", omega=1.3, dt=0.05, steps=1, dim=12, eta=0.9 - 0.4j)
        rho = random_density(rng, 24)[::2, ::2]
        prep = make_schedule(cfg)[0]
        expected = two_pass_hidden_step(rho, prep, model_band("two-boson", 12), 2, 1.3, 0.05)
        step = engines._build_stepper(cfg, "hidden").step(rho, prep)
        assert step.tobytes() == expected.tobytes()


    def test_state_held_by_the_kernel(self):
        # The kernel steps its own buffer: a caller's array is read and never
        # written, and a run's final state is its last snapshot, untouched by
        # a later run.
        rng = np.random.default_rng(43)
        cfg = SimConfig(model="intensity", omega=1.3, dt=0.05, steps=12, dim=12, eta=0.9 - 0.4j,
                        schedule="rotating")
        sched = make_schedule(cfg)
        kernel = engines._build_stepper(cfg, "hidden")
        rho = random_density(rng, cfg.dim)
        before = rho.tobytes()
        state = kernel.step(rho, sched[0])
        assert rho.tobytes() == before
        assert kernel.step(state, sched[1]) is state

        first = run(cfg, snapshot_steps={cfg.steps})
        assert first.final.tobytes() == first.snapshots[cfg.steps].tobytes()
        kept = first.final.copy()
        run(dataclasses.replace(cfg, eta=0.3j), deep_checks=False)
        assert first.final.tobytes() == kept.tobytes()


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
        # The lane steps psi in the co-rotating frame; a snapshot is psi psi^dag taken
        # to the lab frame by the lane's one phase-plane product, and equals the dense
        # D psi (D psi)^dag to rounding.
        cfg = self.config("two-boson", "rotating", steps=60)
        res = run(cfg, snapshot_steps=range(cfg.steps + 1))
        kernel, rate = engines._build_stepper(cfg, "standard"), frame_rate(cfg)
        psi = kernel.start(engines.initial_vector(cfg))
        assert np.array_equal(res.snapshots[0], np.outer(psi, psi.conj()))
        for j, prep in enumerate(make_schedule(cfg), start=1):
            psi = kernel.step(psi, prep)
            lab = to_lab(psi, rate, j * cfg.dt)
            turned = observables._turned(np.outer(psi, psi.conj()), rate * (j * cfg.dt))
            assert np.array_equal(res.snapshots[j], turned), j
            assert np.max(np.abs(res.snapshots[j] - np.outer(lab, lab.conj()))) <= 1e-15, j
        assert np.array_equal(res.final, res.snapshots[cfg.steps])

    def test_density_is_outer_bytes_in_a_held_buffer(self):
        rng = np.random.default_rng(44)
        for d in (2, 3, 12, 32, 64, 96):
            cfg = SimConfig(model="linear", omega=1.3, dt=0.01, steps=1, dim=d, engine="standard")
            kernel = engines._build_stepper(cfg, "standard")
            held = kernel.density(random_vector(rng, d))
            for _ in range(20):
                psi = signed_zero_vector(rng, d)
                rho = kernel.density(psi)
                assert rho is held
                assert rho.tobytes() == np.outer(psi, psi.conj()).tobytes(), d

    def test_shallow_guard_inspects_every_density(self, monkeypatch):
        # Deep checks on, yet the pure lane builds no guard: its recorder still folds the
        # trace of every density into the drift, from the rows it reduces.
        monkeypatch.setattr(engines, "_Guard", lambda d: pytest.fail("the pure lane built a guard"))
        seen = []
        flush = TrajectoryRecorder._flush

        def recording(recorder):
            seen.extend(row.copy() for row in recorder._pending[:recorder._next - recorder._done])
            return flush(recorder)

        monkeypatch.setattr(TrajectoryRecorder, "_flush", recording)
        cfg = self.config("intensity", "uniform")
        res = run(cfg, snapshot_steps=range(cfg.steps + 1))
        # Steps 0..steps, each folded once and in order: row j holds step j's diagonal.
        assert len(seen) == cfg.steps + 1
        for j, row in enumerate(seen):
            assert row.shape == (3 * cfg.dim - 3,)
            assert row[:cfg.dim].tobytes() == np.diagonal(res.snapshots[j]).tobytes(), j
        traces = [np.diagonal(rho).sum() for rho in res.snapshots.values()]
        assert res.diagnostics.max_trace_drift == max(
            0.0, *(abs(t.real - 1.0) + abs(t.imag) for t in traces))
        # psi psi^dag is Hermitian up to the rounding of one product
        assert res.diagnostics.max_hermiticity_defect <= np.finfo(float).eps

    def test_density_meets_the_deep_bounds_by_construction(self):
        # What the pure lane's shallow guard leaves out: psi psi^dag, signed zeros and
        # all, is Hermitian to one product's rounding and has no negative eigenvalue
        # beyond rounding. These 1,248 draws read a largest defect of 5.55e-17 (0.0
        # without numpy's AVX2 loops) and a lowest eigenvalue of -3.8e-16.
        rng = np.random.default_rng(21)
        worst_defect, lowest = 0.0, np.inf
        for d in range(2, 98):
            cfg = SimConfig(model="linear", omega=1.3, dt=0.01, steps=1, dim=d, engine="standard")
            kernel = engines._build_stepper(cfg, "standard")
            for _ in range(13):
                rho = kernel.density(signed_zero_vector(rng, d))
                worst_defect = max(worst_defect, hermiticity_defect(rho))
                lowest = min(lowest, float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]))
        assert worst_defect <= np.finfo(float).eps
        assert lowest >= -1e-14


class TestStepHeap:
    """The step path allocates nothing that grows with dim, so it never reaches malloc's trim cliff."""

    @pytest.mark.parametrize("engine", ["hidden", "standard"])
    @pytest.mark.parametrize("d", [12, 32, 48, 64, 96])
    def test_step_and_density_allocate_little(self, engine, d):
        cfg = SimConfig(model="linear", omega=1.3, dt=1e-3, steps=8, dim=d, engine=engine,
                        initial="coherent", gamma0=1.0 + 0.5j, schedule="rotating")
        sched = make_schedule(cfg)
        kernel = engines._build_stepper(cfg, engine)
        state = kernel.start(engines.initial_vector(cfg))
        for j in range(1, cfg.steps):  # warm-up; a rotating schedule's prep is new every step
            state = kernel.step(state, sched[j - 1])
            kernel.density(state)
        _, peak = traced_peak(lambda: kernel.density(kernel.step(state, sched[-1])))
        assert peak < 16 * 1024

    @pytest.mark.parametrize("d, height", [(12, 56), (32, 8), (64, 2)])
    def test_deep_inspect_allocates_little(self, d, height):
        cfg = SimConfig(model="linear", omega=1.3, dt=1e-3, steps=8, dim=d,
                        initial="coherent", gamma0=1.0 + 0.5j)
        rho = initial_state(cfg)
        guard = engines._Guard(d)
        assert len(guard.stack) == height
        for _ in range(2):  # the first full stack warms numpy's caches; the second is traced
            guard.stack[:] = rho
            guard.held = height
            _, peak = traced_peak(guard.inspect)
        assert guard.min_eigenvalue < 1e-9
        assert peak < 16 * 1024

    CHILD = """
import json, math, resource
from hlq.engines import SimConfig, run, run_compare

def config(model, dim, engine, initial):
    return SimConfig(model=model, omega=2 * math.pi / 5, dt=1e-2 if model == "linear" else 1e-3,
                     steps=1000, dim=dim, engine=engine, initial=initial, gamma0=1.5 + 1.0j,
                     phase="coherence")

def compare(cfg, deep_checks):
    return run_compare(cfg, per_step_distance=False, deep_checks=deep_checks)

cases = {"hidden 64": (config("linear", 64, "hidden", "coherent"), run, False),
         "hidden 96": (config("linear", 96, "hidden", "coherent"), run, False),
         "two-boson 48": (config("two-boson", 48, "hidden", "vacuum"), run, False),
         "standard 64": (config("linear", 64, "standard", "coherent"), run, False),
         "standard 96": (config("linear", 96, "standard", "coherent"), run, False),
         "compare 64": (config("linear", 64, "hidden", "coherent"), compare, False),
         "hidden 96 deep": (config("linear", 96, "hidden", "coherent"), run, True),
         "standard 96 deep": (config("linear", 96, "standard", "coherent"), run, True)}
faults = {}
for name, (cfg, call, deep) in cases.items():
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call(cfg, deep_checks=deep)
        faults[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.steps
print(json.dumps(faults))
"""

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="MALLOC_TRIM_THRESHOLD_ and the 128 KiB trim threshold are glibc's")
    def test_second_run_takes_no_page_faults_under_eager_trim(self):
        # With the trim threshold at 0, glibc hands back every freed top chunk, so a
        # step that allocates and frees >= 128 KiB faults its pages in again each
        # step. The second run of each case in one process counts what the step
        # path itself costs.
        env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="0", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(engines.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", self.CHILD], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        faults = json.loads(out.stdout)
        # A deep dim-96 hidden step still faults in eigvalsh's own copy of its one-state
        # block (37.7 faults per step read when the bound was set, 223 with a
        # guard that formed its Hermitian part and defect in fresh arrays). A deep
        # standard run takes no eigvalsh (37.9 per step when it did, 0.70 without).
        bounds = {"hidden 96 deep": 48.0}
        for name, per_step in faults.items():
            assert per_step <= bounds.get(name, 1.0), (name, faults)


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
            dict(model="linear", omega=1.0, dt=-0.01, steps=5),
            dict(model="linear", omega=1.0, dt=math.nan, steps=5),
            dict(model="linear", omega=1.0, dt=math.inf, steps=5),
            dict(model="linear", omega=math.nan, dt=0.01, steps=5),
            dict(model="linear", omega=10**400, dt=0.01, steps=5),
            dict(model="linear", omega=1.0, dt=0.01, steps=-3),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, dim=0),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, zeta_abs=-0.1),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, zeta_abs=math.nan),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, engine="quantum"),
            dict(model="linear", omega=1.0, dt=0.01, steps=5, outputs=("final", "movie")),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigValidationError):
                run(SimConfig(**kwargs))

    def test_non_integer_steps_and_dim_rejected(self):
        base = dict(model="linear", omega=1.0, dt=0.01, steps=5)
        for field, value in (("steps", 3.5), ("dim", 3.5), ("steps", 5.0)):
            with pytest.raises(ConfigValidationError, match=f"{field}: must be an integer"):
                run(SimConfig(**{**base, field: value}))
        res = run(SimConfig(**{**base, "steps": np.int64(5), "dim": np.int32(8)}))
        assert len(res.records) == 6 and res.final.shape == (8, 8)

    # A bool is a numbers.Integral, yet no step count: steps=True once ran one step.
    def test_bool_steps_rejected(self):
        with pytest.raises(ConfigValidationError,
                           match=r"^steps: must be an integer >= 1, got True$"):
            SimConfig(model="linear", omega=1.0, dt=0.01, steps=True, dim=8)

    @pytest.mark.parametrize("gamma0", [complex("nan"), complex("inf"), complex(0.3, math.nan)])
    @pytest.mark.parametrize("deep", [False, True])
    def test_non_finite_coherent_amplitude_rejected(self, gamma0, deep):
        with pytest.raises(ConfigValidationError,
                           match=r"^gamma0: must be finite, a number with \|gamma0\| <= "
                                 r"9\.480751908109176e\+153, got "):
            run(SimConfig(model="linear", omega=1.0, dt=0.01, steps=5,
                          initial="coherent", gamma0=gamma0), deep_checks=deep)

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


def inspect_blocks(states, deep: bool) -> RunDiagnostics:
    """The diagnostics a lane folds over ``states``, the densities of steps 0, 1, ...: a
    recorder's trace drift and purity range, the running top-two maximum and, when
    ``deep``, a guard's, which inspects each full stack and then the states left."""
    recorder = TrajectoryRecorder(len(states) - 1, 1.0)
    guard = engines._Guard(states[0].shape[0]) if deep else None
    top2 = 0.0
    for rho in states:
        recorder.record(rho)
        top2 = max(top2, rho.item(-1).real + rho.item(-rho.shape[0] - 2).real)
        if deep:
            guard.take(rho)
    purities = recorder.records.purity
    diag = RunDiagnostics(max_trace_drift=recorder.max_trace_drift,
                          min_purity=min(1.0, float(purities.min())),
                          max_purity=max(1.0, float(purities.max())),
                          max_top_two_population=top2)
    if deep:
        guard.inspect()
        diag.max_hermiticity_defect, diag.min_eigenvalue = (guard.max_hermiticity_defect,
                                                             guard.min_eigenvalue)
    return diag


class TestGuardOracle:
    """The deep guard takes lowest eigenvalues a stack of states at a time, with one's bits."""

    # States per eigvalsh block, written out so that a changed block size shows here.
    HEIGHTS = {2: 64, 12: 56, 32: 8, 64: 2}

    @staticmethod
    def bits(diag):
        return np.array(dataclasses.astuple(diag), dtype=float).tobytes()

    @pytest.mark.parametrize("d", sorted(HEIGHTS))
    def test_block_height(self, d, monkeypatch):
        monkeypatch.setattr(engines, "TRUNCATION_LIMIT", 2.0)  # dim 2's top two levels are all
        cfg = SimConfig(model="linear", omega=1.3, dt=1e-3, steps=1, dim=d, eta=0.0)
        (lane,), _ = engines._lockstep(cfg, None, ("hidden",), True)
        assert lane.guard.stack.shape == (self.HEIGHTS[d], d, d)

    # Each stack's edges, and at dim 2 also the edges of its former 2,048-state stack:
    # runs of many stacks. Step 0 is the first state of the first stack.
    @pytest.mark.parametrize("deep", [True, False])
    @pytest.mark.parametrize("d, count", [(d, n) for d, h in [*HEIGHTS.items(), (2, 2048)]
                                          for n in (h - 2, h - 1, h, 2 * h + 3) if n >= 1])
    def test_inspected_states_equal_oracle_bits(self, d, count, deep):
        # Scaled so the top two levels stay under the truncation limit at every dim;
        # indefinite states, and zero ones of either sign, where the first minimum counts.
        rng = np.random.default_rng([d, count])
        states = []
        for j in range(count):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            states.append(1e-8 * (m if j % 3 else m + m.conj().T))
        states[count // 2] = np.zeros((d, d), dtype=complex)
        states[-1] = np.full((d, d), complex(-0.0, -0.0))
        diag = inspect_blocks(states, deep)
        assert self.bits(diag) == self.bits(reference_diagnostics(states, deep))

    @pytest.mark.parametrize("first", [0.0, -0.0])
    @pytest.mark.parametrize("d", sorted(HEIGHTS))
    def test_first_of_tied_minima_kept(self, d, first):
        # Zero states of either sign, whose lowest eigenvalues tie: the earliest is kept.
        signs = [first] + [-first] * (2 * self.HEIGHTS[d] + 3)
        states = [np.full((d, d), complex(s, s)) for s in signs]
        diag = inspect_blocks(states, True)
        assert self.bits(diag) == self.bits(reference_diagnostics(states, True))

    @staticmethod
    def config(model, d, steps):
        # Weak enough that two-boson at dim 12 stays under the truncation limit for 115 steps.
        return SimConfig(model=model, omega=1.3, dt=2e-3, steps=steps, dim=d, zeta_abs=0.41,
                         eta=0.4 + 0.25j, schedule="rotating", initial="coherent",
                         gamma0=0.5 - 0.3j)

    @pytest.mark.parametrize("deep", [True, False])
    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    @pytest.mark.parametrize("d, steps", [(d, n) for d, h in HEIGHTS.items() if d > 2
                                          for n in (h - 2, h - 1, h, 2 * h + 3) if n >= 1])
    def test_run_diagnostics_equal_oracle_bits(self, model, d, steps, deep):
        # A run stacks steps + 1 states, step 0 first: the counts end a stack one short,
        # on it, one past it, and past two stacks. Dim 2 cannot run: its top two levels are all.
        # The guards check the states the kernels step, in the co-rotating frame.
        cfg = self.config(model, d, steps)
        both = run_compare(cfg, per_step_distance=False, deep_checks=deep)
        for engine in ("hidden", "standard"):
            single = run(dataclasses.replace(cfg, engine=engine), deep_checks=deep)
            states = stepped_states(cfg, engine)
            for got in (single.diagnostics, getattr(both, f"diagnostics_{engine}")):
                # The pure standard lane's guard is shallow whatever deep_checks says.
                expected = dataclasses.replace(
                    reference_diagnostics(states, deep and engine == "hidden"),
                    propagator_unitarity_defect=got.propagator_unitarity_defect)
                assert self.bits(got) == self.bits(expected), (engine, got, expected)
                assert {type(v) for v in vars(got).values()} == {float}, (engine, got)


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

    @staticmethod
    def nan_at_step_3(step):
        def nan_entry(psi):
            psi[1] = complex(math.nan, 0.0)
            return psi
        return failing_at(step, 3, nan_entry)

    @staticmethod
    def doubling(step):
        def mutated(kernel, psi, prep):
            return 2.0 * step(kernel, psi, prep)
        return mutated

    @pytest.mark.parametrize("call", ["run", "run_compare"])
    @pytest.mark.parametrize("mutation, error, message, step", [
        ("nan_at_step_3", NonFiniteStateError, r"trace .*nan.* at step 3", 3),
        ("doubling", TruncationOverflowError, r"population .* at step 11 exceeds", 11)])
    def test_mutated_standard_kernel_stops_alike_deep_on_and_off(
            self, monkeypatch, call, mutation, error, message, step):
        # The pure lane's guard is shallow either way, and it alone stops a wrong kernel.
        monkeypatch.setattr(engines._StandardKernel, "step",
                            getattr(self, mutation)(engines._StandardKernel.step))
        cfg = SimConfig(model="linear", omega=1.3, dt=0.01, steps=40, dim=12, engine="standard",
                        initial="coherent", gamma0=0.5 + 0.2j)
        stops = []
        for deep in (False, True):
            with pytest.raises(error, match=message) as info:
                getattr(engines, call)(cfg, deep_checks=deep)
            stops.append((type(info.value), info.value.step, str(info.value)))
        assert stops[0] == stops[1]
        assert stops[0][:2] == (error, step)

    def test_deep_guard_checks_hermiticity_before_eigvalsh(self, monkeypatch):
        cfg = SimConfig(model="linear", omega=1.0, dt=0.01, steps=5, dim=8)
        rho = initial_state(cfg)
        bad = rho.copy()
        bad[0, 5] = np.inf
        # Each lane has taken its step 0; steps 3 and 4 are checked as they are taken.
        lanes = {deep: engines._Lane(cfg, "hidden", deep, set()) for deep in (False, True)}
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh was called"))
        messages = {}
        for deep, lane in lanes.items():
            lane.state = rho
            lane.take(3)
            lane.state = bad
            with pytest.raises(NonFiniteStateError) as info:
                lane.take(4)
            assert info.value.step == 4
            messages[deep] = str(info.value)
        assert messages[True] == "Hermiticity defect inf at step 4 is not finite; reduce dt or eta"
        # zdotc may form an inf entry's square as inf or nan, by BLAS kernel
        assert re.fullmatch(r"purity (inf|nan) at step 4 is not finite; reduce dt or eta",
                            messages[False])


def stepped_states(cfg, engine, schedule=None):
    """The densities of steps 0..steps of one kernel stepped one step at a time, in
    the co-rotating frame the kernel steps."""
    kernel = engines._build_stepper(cfg, engine)
    state = kernel.start(engines.initial_vector(cfg))
    states = [kernel.density(state).copy()]
    for prep in schedule or make_schedule(cfg):
        state = kernel.step(state, prep)
        states.append(kernel.density(state).copy())
    return states


def lab_states(cfg, states):
    """Frame states of steps 0, 1, ... taken to the lab frame as a lane takes its snapshots."""
    rate = frame_rate(cfg)
    return [observables._turned(rho, rate * (j * cfg.dt)) for j, rho in enumerate(states)]


class TestBlockChecks:
    """The lockstep's buffers fold and record a stack of steps at a time, with each step's bits."""

    # States per stack when a lane holds whole states (a deep hidden lane, or per-step
    # distances): the deep guard's height. Otherwise 64, the recorder's chunk. Step 0
    # is the first state of each lane's first stack, so steps h - 1 fill one.
    DEEP_HEIGHTS = {4: 64, 12: 56, 32: 8, 64: 2, 65: 1}
    CALLS = ["run hidden", "run standard", "compare every step", "compare last step"]

    @staticmethod
    def config(d, steps):
        # Weakly driven from the vacuum at dim 4, whose top two levels fill fast.
        start = dict(initial="coherent", gamma0=0.5 - 0.3j) if d > 4 else dict(zeta_abs=0.05)
        return SimConfig(**{**dict(model="linear", omega=1.3, dt=2e-3, steps=steps, dim=d,
                                   zeta_abs=0.41, eta=0.4 + 0.25j, schedule="rotating"), **start})

    @staticmethod
    def assert_lane(records, final, diagnostics, states, labs, deep, dt):
        # Records of the lab-frame states, with the purity the recorder takes of the
        # frame state; guards of the frame states; the final state in the lab frame.
        expected = reference_records(dict(enumerate(labs)), dt)
        expected.purity = [np.vdot(rho, rho).real for rho in states]
        assert records.tobytes() == expected.tobytes()
        assert final.tobytes() == labs[-1].tobytes()
        expected = dataclasses.replace(
            reference_diagnostics(states, deep),
            propagator_unitarity_defect=diagnostics.propagator_unitarity_defect)
        assert TestGuardOracle.bits(diagnostics) == TestGuardOracle.bits(expected)

    @pytest.mark.parametrize("deep", [True, False])
    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("d", sorted(DEEP_HEIGHTS))
    def test_runs_equal_reference_bits(self, d, call, deep):
        whole = deep and call != "run standard" or call == "compare every step"
        h = self.DEEP_HEIGHTS[d] if whole else 64
        for steps in sorted({max(1, h - 2), max(1, h - 1), h, h + 1, 2 * h - 1, 2 * h + 1}):
            cfg = self.config(d, steps)
            states = {engine: stepped_states(cfg, engine) for engine in ("hidden", "standard")}
            labs = {engine: lab_states(cfg, states[engine]) for engine in states}
            if call.startswith("run"):
                engine = call.split()[1]
                res = run(dataclasses.replace(cfg, engine=engine),
                          snapshot_steps=range(steps + 1), deep_checks=deep)
                self.assert_lane(res.records, res.final, res.diagnostics, states[engine],
                                 labs[engine], deep and engine == "hidden", cfg.dt)
                assert sorted(res.snapshots) == list(range(steps + 1))
                for j, rho in res.snapshots.items():
                    assert rho.tobytes() == labs[engine][j].tobytes(), (steps, j)
                continue
            every = call == "compare every step"
            res = run_compare(cfg, per_step_distance=every, deep_checks=deep)
            for engine in ("hidden", "standard"):
                self.assert_lane(getattr(res, f"records_{engine}"), getattr(res, f"final_{engine}"),
                                 getattr(res, f"diagnostics_{engine}"), states[engine],
                                 labs[engine], deep and engine == "hidden", cfg.dt)
            pairs = zip(states["hidden"], states["standard"])
            expected = [trace_distance(a, b) for a, b in pairs]
            expected[0] = 0.0
            if not every:
                expected[1:-1] = [math.nan] * (steps - 1)
            assert np.array(res.trace_distances).tobytes() == np.array(expected).tobytes(), steps


def failing_at(step, at, mutate):
    """A kernel step whose state of step ``at`` (counted per kernel) is passed through
    mutate (on a copy)."""
    def mutated(kernel, state, prep):
        state = step(kernel, state, prep)
        kernel.taken = getattr(kernel, "taken", 0) + 1
        if kernel.taken == at:
            state = mutate(state.copy())
        return state
    return mutated


def not_finite(state):
    state.flat[0] = math.nan
    return state


def overflowing(psi):
    psi[-1] = 0.1  # a top-level population of 1e-2
    return psi


def finite_eigvalsh(monkeypatch):
    """Make np.linalg.eigvalsh fail the test on any non-finite input."""
    eigvalsh = np.linalg.eigvalsh

    def checked(a):
        assert np.isfinite(a).all(), "a non-finite state reached eigvalsh"
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", checked)


class TestLaneOrder:
    """A run's error is its earliest failing step over all lanes, the hidden lane's on a tie."""

    CFG = SimConfig(model="linear", omega=1.3, dt=0.01, steps=140, dim=12,
                    initial="coherent", gamma0=0.5 + 0.2j)

    @staticmethod
    def fail(monkeypatch, hidden_at, standard_at):
        monkeypatch.setattr(engines._HiddenKernel, "step",
                            failing_at(engines._HiddenKernel.step, hidden_at, not_finite))
        monkeypatch.setattr(engines._StandardKernel, "step",
                            failing_at(engines._StandardKernel.step, standard_at, overflowing))
        finite_eigvalsh(monkeypatch)

    @pytest.mark.parametrize("every, deep, h", [(True, False, 56), (True, True, 56),
                                                (False, True, 56), (False, False, 64)])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    @pytest.mark.parametrize("later", [0, 3])
    def test_earliest_step_named(self, monkeypatch, every, deep, h, offset, later):
        # The standard lane fails at steps 1, h - 1, h and h + 1; the hidden lane then or later.
        at = 1 if offset is None else h + offset
        self.fail(monkeypatch, at + later, at)
        error = TruncationOverflowError if later else NonFiniteStateError
        with pytest.raises(error) as info:
            run_compare(self.CFG, per_step_distance=every, deep_checks=deep)
        assert info.value.step == at

    @pytest.mark.parametrize("deep", [True, False])
    def test_hidden_lane_first(self, monkeypatch, deep):
        self.fail(monkeypatch, 57, 58)
        with pytest.raises(NonFiniteStateError, match=r"^trace \(nan[+-].*\) at step 57 is not "):
            run_compare(self.CFG, deep_checks=deep)

    @pytest.mark.parametrize("call", [run, run_compare])
    @pytest.mark.parametrize("deep", [True, False])
    def test_overflowing_runs_reach_no_eigvalsh(self, monkeypatch, call, deep):
        # The standard lane overflows at step 8, the hidden one at step 9.
        finite_eigvalsh(monkeypatch)
        cfg = SimConfig(model="linear", omega=0.0, dt=0.05, steps=400, dim=8, eta=3)
        step = 9 if call is run else 8
        with pytest.raises(TruncationOverflowError, match=f" at step {step} exceeds"):
            call(cfg, deep_checks=deep)

    def test_no_step_taken_past_a_failure(self, monkeypatch):
        # Step 5's prep would make both kernels warn of an overflow, which this suite
        # turns into an error; the standard lane fails at step 4, so no lane takes step 5.
        monkeypatch.setattr(engines._StandardKernel, "step",
                            failing_at(engines._StandardKernel.step, 4, overflowing))
        cfg = dataclasses.replace(self.CFG, steps=10, dt=100.0)
        inert = AtomPrep(1.0, 0.0, 1.0)
        sched = [inert] * 10
        sched[4] = uniform_schedule(1, 0.5, 0.0, 1e308)[0]
        for deep in (True, False):
            with pytest.raises(TruncationOverflowError) as info:
                run_compare(cfg, sched, deep_checks=deep)
            assert info.value.step == 4

    @pytest.mark.parametrize("deep", [True, False])
    def test_non_finite_purity_fails_at_its_step(self, monkeypatch, deep):
        # A hidden coherence far off the recorded diagonals at step 20 and a standard
        # amplitude on level 0 at step 30 pass every other check; their purity is inf.
        def coherence(rho):
            rho[0, -1] = rho[-1, 0] = 1e200
            return rho

        def amplitude(psi):
            psi[0] *= 1e80
            return psi

        monkeypatch.setattr(engines._HiddenKernel, "step",
                            failing_at(engines._HiddenKernel.step, 20, coherence))
        monkeypatch.setattr(engines._StandardKernel, "step",
                            failing_at(engines._StandardKernel.step, 30, amplitude))
        finite_eigvalsh(monkeypatch)
        cfg = dataclasses.replace(self.CFG, steps=70)
        calls = [(run, cfg, 20), (run_compare, cfg, 20),
                 (run, dataclasses.replace(cfg, engine="standard"), 30)]
        for call, c, step in calls:
            with pytest.raises(NonFiniteStateError) as info:
                call(c, deep_checks=deep)
            assert info.value.step == step
            assert str(info.value) == f"purity inf at step {step} is not finite; reduce dt or eta"

    @pytest.mark.parametrize("deep", [True, False])
    def test_nan_purity_fails(self, monkeypatch, deep):
        # psi[0] scaled by 1e100: a trace of ~3e199, yet its purity overflows to nan,
        # which once passed every check and read as a purity range of [1.0, 1.0].
        def amplitude(psi):
            psi[0] *= 1e100
            return psi

        monkeypatch.setattr(engines._StandardKernel, "step",
                            failing_at(engines._StandardKernel.step, 30, amplitude))
        cfg = dataclasses.replace(self.CFG, steps=70, engine="standard")
        with pytest.raises(NonFiniteStateError,
                           match=r"^purity (nan|inf) at step 30 is not finite") as info:
            run(cfg, deep_checks=deep)
        assert info.value.step == 30


# Both sides of the bound on a coherent amplitude: 2 |gamma|^2 must be finite.
BELOW_EDGE = 9.480751908109176e153
ABOVE_EDGE = 9.480751908109177e153


class TestConfigBoundary:
    BASE = dict(model="linear", omega=1.0, dt=0.01, steps=5)

    @pytest.mark.parametrize("fields, message", [
        (dict(omega=1e308, dt=1.0, steps=3), r"k \* omega \* steps \* dt overflows"),
        (dict(model="two-boson", omega=1e308, dt=1.0, steps=1), r"k \* omega"),
        (dict(dt=1e308, steps=3), r"dt: steps \* dt or"),
        (dict(steps=10**400), r"dt: steps \* dt or"),
        (dict(eta=complex(1.7e308, 1.7e308)), r"eta: must be finite"),
        (dict(initial="coherent", gamma0=1e200), r"^gamma0: .* <= 9\.48\d*e\+153, got 1e\+200$"),
        (dict(initial="coherent", gamma0=complex(1e154, 1e154)),
         r"^gamma0: .* <= 9\.48\d*e\+153, got \(1e\+154\+1e\+154j\)$"),
        (dict(initial="coherent", gamma0=ABOVE_EDGE), r"^gamma0: .* got 9\.480751908109177e\+153$"),
        (dict(gamma0=ABOVE_EDGE), r"^gamma0: .* got 9\.480751908109177e\+153$"),
        (dict(gamma0=complex("inf")), r"^gamma0: .* <= 9\.48\d*e\+153, got \(inf\+0j\)$"),
    ])
    def test_overflow_rejected_where_it_enters(self, fields, message):
        with pytest.raises(ConfigValidationError, match=message):
            run(SimConfig(**{**self.BASE, **fields}))

    # The largest modulus with 2 |gamma0|^2 finite passes; the next float up is above.
    def test_coherent_amplitude_edge(self):
        assert math.isfinite(2.0 * BELOW_EDGE**2) and not math.isfinite(2.0 * ABOVE_EDGE**2)
        assert ABOVE_EDGE == math.nextafter(BELOW_EDGE, math.inf)
        for gamma0 in (BELOW_EDGE, complex(0.0, -BELOW_EDGE)):
            SimConfig(**self.BASE, initial="coherent", gamma0=gamma0)

    @staticmethod
    def over_budget(steps: int, dim: int, snapshots: int) -> str:
        """The whole message of a run over the budget: 280 bytes a step, 42 states
        of dim and one state a snapshot."""
        parts = (steps * 280, 42 * 16 * dim * dim, snapshots * 16 * dim * dim)
        return re.escape(f"run size: {steps} steps ({parts[0]} bytes) + dim {dim} ({parts[1]} "
                         f"bytes) + {snapshots} snapshots ({parts[2]} bytes) = {sum(parts)} "
                         f"bytes, over the 1073741824-byte limit") + "$"

    # validate() alone: no run is made, so nothing near the budget is allocated.
    def test_run_size_cap_edge(self):
        # At dim 32 the steps take what the dim's 688,128 bytes leave of the budget.
        most = (engines.RUN_MAX_BYTES - 42 * 16 * 32 ** 2) // 280
        assert most == 3_832_334
        SimConfig(**{**self.BASE, "steps": most}).validate()
        with pytest.raises(ConfigValidationError, match=self.over_budget(most + 1, 32, 0)):
            SimConfig(**{**self.BASE, "steps": most + 1}).validate()

    # validate() alone: no run is made, so nothing near the budget is allocated.
    def test_dim_cap_edge(self):
        most = math.isqrt(engines.RUN_MAX_BYTES // (16 * engines._DIM_STATES))
        assert most == 1264
        # 90,112 bytes are left over at dim 1264: 321 steps of 280.
        steps = (engines.RUN_MAX_BYTES - 42 * 16 * most ** 2) // 280
        assert steps == 321
        SimConfig(**{**self.BASE, "dim": most, "steps": steps}).validate()
        for dim, steps in [(most, steps + 1), (most + 1, 1)]:
            with pytest.raises(ConfigValidationError, match=self.over_budget(steps, dim, 0)):
                SimConfig(**{**self.BASE, "dim": dim, "steps": steps})

    # Steps, dim and snapshots are one sum: 3,834,776 steps at dim 2 with 29 snapshots
    # is the budget to the byte, and a budget one byte smaller rejects it.
    def test_budget_is_one_sum_to_the_byte(self, monkeypatch):
        steps, dim, snapshots = 3_834_776, 2, 29
        assert steps * 280 + (42 + snapshots) * 16 * dim ** 2 == engines.RUN_MAX_BYTES
        engines._check_run_size(steps, dim, snapshots)
        monkeypatch.setattr(engines, "RUN_MAX_BYTES", engines.RUN_MAX_BYTES - 1)
        with pytest.raises(ConfigValidationError, match=rf"= 1073741824 bytes, over the "
                                                        rf"1073741823-byte limit$"):
            engines._check_run_size(steps, dim, snapshots)

    # Each part is under the limit on its own, their sum is not.
    def test_parts_over_the_limit_together(self):
        with pytest.raises(ConfigValidationError, match=self.over_budget(2_000_000, 1000, 0)):
            SimConfig(model="linear", omega=1.0, dt=0.01, steps=2_000_000, dim=1000)

    # A deep rotating run_compare with every distance holds the most d x d buffers a
    # dim allows, besides snapshots; from dim 65 the guard and distance stacks hold
    # one state each.
    @pytest.mark.parametrize("d", [65, 96, 128])
    def test_dim_states_cover_a_deep_compare(self, d):
        cfg = SimConfig(model="linear", omega=1.3, dt=1e-3, steps=8, dim=d, schedule="rotating",
                        initial="coherent", gamma0=1.0 + 0.5j)
        run_compare(cfg, deep_checks=True)  # first-call caches stay out of the peak
        peak = traced_peak(run_compare, cfg, deep_checks=True)[1]
        assert peak <= engines._DIM_STATES * 16 * d * d

    # A deep run that snapshots every step holds its dim's states and one lab-frame
    # state a snapshot: its peak is under the budget's sum for it.
    @pytest.mark.parametrize("d", [65, 96])
    def test_budget_covers_a_deep_run_with_snapshots(self, d):
        cfg = SimConfig(model="linear", omega=1.3, dt=1e-3, steps=8, dim=d, schedule="rotating",
                        initial="coherent", gamma0=1.0 + 0.5j)
        snapshots = range(cfg.steps + 1)
        run(cfg, snapshot_steps=snapshots)  # first-call caches stay out of the peak
        peak = traced_peak(run, cfg, snapshot_steps=snapshots)[1]
        assert peak <= (cfg.steps * engines._STEP_BYTES
                        + (engines._DIM_STATES + len(snapshots)) * 16 * d * d)

    # Each snapshot is one more lab-frame state: a set over the budget is rejected
    # before any lane is built, and the largest set is let through.
    def test_snapshot_cap_checked_before_any_lane(self, monkeypatch):
        class Built(Exception):
            pass

        def lane(*args):
            raise Built

        monkeypatch.setattr(engines, "_Lane", lane)
        # 25 steps at dim 1000 leave 401,734,824 bytes: 25 states of 16,000,000.
        steps = 25
        most = (engines.RUN_MAX_BYTES - steps * 280 - 42 * 16 * 1000 ** 2) // (16 * 1000 ** 2)
        assert most == 25
        cfg = SimConfig(**{**self.BASE, "dim": 1000, "steps": steps})
        with pytest.raises(Built):
            run(cfg, snapshot_steps=range(most))
        with pytest.raises(ConfigValidationError,
                           match="^" + self.over_budget(steps, 1000, most + 1)):
            run(cfg, snapshot_steps=range(most + 1))

    # A rotating run_compare keeps the most per step: two rows, a prep made for
    # the step and a distance. A float eta is made complex once for the schedule.
    def test_step_bytes_cover_a_rotating_compare(self):
        def peak(steps: int) -> int:
            return traced_peak(run_compare, SimConfig(model="linear", omega=1.3, dt=1e-4,
                                                      steps=steps, dim=8, schedule="rotating",
                                                      eta=1.0))[1]

        peak(10)  # first-call caches stay out of the difference
        assert (peak(6000) - peak(2000)) / 4000 <= engines._STEP_BYTES

    @pytest.mark.parametrize("field, value", [
        ("omega", "1.0"), ("dt", None), ("steps", "5"), ("zeta_abs", "0.3"),
        ("eta", "1+1j"), ("gamma0", "0.3"), ("model", 3), ("outputs", "final"),
        ("dim", "32"), ("schedule", None), ("engine", 1), ("initial", None), ("phase", 0),
        ("omega", 1j), ("dt", 1j), ("zeta_abs", 0.3j), ("eta", None), ("outputs", None),
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
        (AtomPrep(1.0, 0.0, "1"), r"eta: must be finite, a number with \|eta\| finite, got '1'$"),
    ])
    @pytest.mark.parametrize("call", [run, run_compare])
    def test_bad_explicit_schedule_step_named(self, prep, message, call):
        good = uniform_schedule(1, 0.5)[0]
        schedule = [good, good, prep, good]
        cfg = SimConfig(**{**self.BASE, "steps": 4})
        with pytest.raises(InvalidPreparationError, match=f"^schedule step 3: {message}"):
            call(cfg, schedule)

    @pytest.mark.parametrize("make, error, message", [
        (lambda: [1, 2, 3], InvalidPreparationError,
         r"^schedule step 1: expected an AtomPrep, got 1$"),
        (lambda: [None] * 3, InvalidPreparationError,
         r"^schedule step 1: expected an AtomPrep, got None$"),
        (lambda: "abc", InvalidPreparationError,
         r"^schedule step 1: expected an AtomPrep, got 'a'$"),
        (lambda: iter(uniform_schedule(3, 0.5)), ConfigValidationError,
         r"^schedule: must be a sequence of AtomPrep, got list_iterator$"),
        (lambda: set(alternating_schedule(3, 0.5)), ConfigValidationError,
         r"^schedule: must be a sequence of AtomPrep, got set$"),
    ], ids=["ints", "nones", "string", "iterator", "set"])
    @pytest.mark.parametrize("call", [run, run_compare])
    def test_malformed_explicit_schedule_typed(self, make, error, message, call):
        cfg = SimConfig(**{**self.BASE, "steps": 3})
        with pytest.raises(error, match=message):
            call(cfg, make())

    def test_snapshot_steps_not_a_collection(self):
        cfg = SimConfig(**{**self.BASE, "steps": 3})
        with pytest.raises(ConfigValidationError,
                           match=r"^steps: snapshots must be a collection of step numbers"):
            run(cfg, snapshot_steps=None)

    # One out-of-range or mistyped value per field; a field added to SimConfig
    # without one here fails the lookup below.
    BAD = dict(model="bogus", omega=math.inf, dt=0.0, steps=0, dim=1, zeta_abs=0.7,
               eta=complex("nan"), schedule="sawtooth", engine="quantum", initial="thermal",
               gamma0=complex("inf"), phase="detuned", outputs=("final", "movie"))
    VALID = dict(BASE, initial="coherent", gamma0=0.3)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SimConfig)])
    def test_replace_checks_like_the_constructor(self, field):
        bad = {field: self.BAD[field]}
        with pytest.raises(ConfigValidationError) as made:
            SimConfig(**{**self.VALID, **bad})
        with pytest.raises(ConfigValidationError) as replaced:
            dataclasses.replace(SimConfig(**self.VALID), **bad)
        assert str(replaced.value) == str(made.value)

    def test_fields_cannot_be_assigned(self):
        cfg = SimConfig(**self.VALID)
        for f in dataclasses.fields(SimConfig):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))
        assert cfg == SimConfig(**self.VALID)

    def test_numpy_scalars_accepted(self):
        plain = run(SimConfig(**self.BASE, zeta_abs=0.3, eta=0.8 + 0.2j, initial="coherent",
                              gamma0=0.2 - 0.1j))
        scalars = run(SimConfig(model=np.str_("linear"), omega=np.float64(1.0),
                                dt=np.float64(0.01), steps=np.int64(5), dim=np.int32(32),
                                zeta_abs=np.float64(0.3), eta=np.complex128(0.8 + 0.2j),
                                initial="coherent", gamma0=np.complex128(0.2 - 0.1j),
                                outputs=["final"]))
        assert np.array_equal(plain.final, scalars.final)

    def test_list_outputs_held_as_tuple(self):
        names = ["final"]
        cfg = SimConfig(**self.BASE, outputs=names)
        names.append("movie")
        assert cfg.outputs == ("final",)
        assert hash(cfg) == hash(SimConfig(**self.BASE, outputs=("final",)))
        assert dataclasses.replace(cfg, outputs=["timeseries"]).outputs == ("timeseries",)
        with pytest.raises(ConfigValidationError,
                           match=r"^outputs: must be one of \('timeseries', 'final'\), "
                                 r"got 'movie'$"):
            dataclasses.replace(cfg, outputs=["final", "movie"])


class TestEngineAgreement:
    def test_first_order_convergence_small(self):
        dists = converge(SimConfig(model="linear", omega=OMEGA_SLOW, dt=5e-3, steps=100), 2)
        assert dists[0] > dists[1] > dists[2]
        for a, b in zip(dists, dists[1:]):
            assert 1.7 <= a / b <= 2.3

    def test_converge_is_the_run_compare_ladder(self):
        cfg = SimConfig(model="two-boson", omega=1.3, dt=1e-2, steps=20, dim=12,
                        eta=0.8 - 0.3j, schedule="rotating", initial="coherent",
                        gamma0=0.3 + 0.2j)
        ladder = [run_compare(dataclasses.replace(cfg, dt=cfg.dt / 2**i, steps=cfg.steps * 2**i)
                              ).trace_distances[-1] for i in range(3)]
        assert converge(cfg, 2) == ladder

    @pytest.mark.parametrize("halvings", [1, 1.5, True])
    def test_converge_takes_two_or_more_halvings(self, monkeypatch, halvings):
        monkeypatch.setattr(engines, "run_compare", lambda *a, **k: pytest.fail("a run was made"))
        with pytest.raises(ConfigValidationError,
                           match=rf"^halvings: must be an integer >= 2, got {halvings!r}$"):
            converge(SimConfig(model="linear", omega=1.0, dt=1e-2, steps=10), halvings)

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


class TestOrderAgainstExactLaw:
    """Each engine's order in dt, from its largest p00 gap to the linear model's exact law
    over T = 4 (omega 1.3, |zeta| 1/2, dim 32): a gap that falls 4x per halving is
    second order, 2x first order."""

    LAW = ground_state_law(0.5, 1.3)

    @staticmethod
    def p00(engine: str, steps: int) -> np.ndarray:
        cfg = SimConfig(model="linear", omega=1.3, dt=4.0 / steps, steps=steps, engine=engine)
        return run(cfg, deep_checks=False).records.p00

    @classmethod
    def gap(cls, p00: np.ndarray) -> float:
        law = np.array([cls.LAW(4.0 * j / (p00.size - 1)) for j in range(p00.size)])
        return float(np.abs(p00 - law).max())

    @staticmethod
    def ratios(gaps: list[float]) -> list[float]:
        return [a / b for a, b in zip(gaps, gaps[1:])]

    def test_standard_engine_is_second_order(self):
        gaps = [self.gap(self.p00("standard", n)) for n in (125, 250, 500, 1000)]
        assert all(3.5 <= r <= 4.5 for r in self.ratios(gaps)), gaps

    def test_hidden_engine_is_first_order_and_its_extrapolation_second(self):
        series = [self.p00("hidden", n) for n in (500, 1000, 2000, 4000)]
        gaps = [self.gap(p) for p in series]
        assert all(1.8 <= r <= 2.2 for r in self.ratios(gaps)), gaps
        # Richardson: 2 X(dt / 2) - X(dt) on the coarse run's rows cancels the O(dt) term.
        extrapolated = [self.gap(2.0 * fine[::2] - coarse)
                        for coarse, fine in zip(series, series[1:])]
        assert all(3.5 <= r <= 4.5 for r in self.ratios(extrapolated)), extrapolated


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
        res, peak = traced_peak(run, cfg, deep_checks=False)
        assert res.records.nbytes == 72 * 3001
        assert peak <= 1.5 * res.records.nbytes

    @pytest.mark.parametrize("call", [run, run_compare])
    def test_only_an_explicit_schedule_is_checked_per_prep(self, monkeypatch, call):
        # A schedule the driver makes from the config is valid by construction.
        calls, original = [], AtomPrep.validate

        def counting(prep):
            calls.append(prep)
            return original(prep)

        monkeypatch.setattr(AtomPrep, "validate", counting)
        cfg, sched = self.rotating()
        call(cfg)
        assert calls == []
        call(cfg, sched)
        assert calls == sched

    @pytest.mark.parametrize("deep", [False, True])
    def test_purity_taken_once_per_step(self, monkeypatch, deep):
        calls, original = [], observables._purity

        def counting(rho):
            calls.append(1)
            return original(rho)

        monkeypatch.setattr(observables, "_purity", counting)
        # engines would look it up in its own namespace had it imported the name
        monkeypatch.setattr(engines, "_purity", counting, raising=False)
        cfg, sched = self.rotating()
        res = run(cfg, sched, deep_checks=deep)
        assert len(calls) == cfg.steps + 1
        purities = res.records.purity
        assert purities.min() < 1.0 - 1e-6
        assert res.diagnostics.min_purity == min(1.0, float(purities.min()))
        assert res.diagnostics.max_purity == max(1.0, float(purities.max()))


class TestFrameEquivalence:
    """Both lanes step the drive's co-rotating frame; taken back to the lab frame, every
    step of a run lies within 1e-12 of the dense lab-frame references."""

    @staticmethod
    def reference_states(cfg, sched, engine):
        """The dense lab-frame densities of steps 0..steps of one engine."""
        r0 = model_operator(cfg.model, cfg.dim)
        k = phase_multiplicity(cfg.model, cfg.phase)
        states = [initial_state(cfg)]
        for j, prep in enumerate(sched, start=1):
            tau = (j - 0.5) * cfg.dt
            if engine == "hidden":
                states.append(hidden_step(states[-1], prep, r0, k, cfg.omega, tau, cfg.dt))
            else:
                eps = prep.eta * np.conj(prep.zeta)
                states.append(standard_step(states[-1], eps, r0, k, cfg.omega, tau, cfg.dt))
        return states

    @pytest.mark.parametrize("d", [2, 3, 12, 32, 65])
    @pytest.mark.parametrize("schedule", ["uniform", "alternating", "rotating", "pulse"])
    @pytest.mark.parametrize("phase", ["operator", "coherence"])
    @pytest.mark.parametrize("model", ["linear", "two-boson", "intensity"])
    def test_every_step_matches_lab_references(self, monkeypatch, model, phase, schedule, d):
        monkeypatch.setattr(engines, "TRUNCATION_LIMIT", 2.0)  # dims 2 and 3 fill their top
        for initial in ("vacuum", "coherent"):
            cfg = SimConfig(model=model, omega=3.1, dt=0.05, steps=12, dim=d, zeta_abs=0.4,
                            eta=0.9 - 0.4j, phase=phase, initial=initial, gamma0=0.6 - 0.3j,
                            schedule="uniform" if schedule == "pulse" else schedule)
            sched = (pulse_schedule(cfg.steps, cfg.eta) if schedule == "pulse"
                     else make_schedule(cfg))
            refs = {}
            for engine in ("hidden", "standard"):
                refs[engine] = self.reference_states(cfg, sched, engine)
                res = run(dataclasses.replace(cfg, engine=engine), sched,
                          snapshot_steps=range(cfg.steps + 1), deep_checks=False)
                for j, rho in res.snapshots.items():
                    assert np.max(np.abs(rho - refs[engine][j])) <= 1e-12, (engine, initial, j)
                assert np.max(np.abs(res.final - refs[engine][-1])) <= 1e-12, (engine, initial)
                expected = reference_records(dict(enumerate(refs[engine])), cfg.dt)
                for name in ("p00", "mean_n", "purity", "mean_b", "var_x", "var_y"):
                    gap = np.max(np.abs(res.records[name] - expected[name]))
                    assert gap <= 1e-12, (engine, initial, name)
            both = run_compare(cfg, sched)
            distances = [trace_distance(a, b) for a, b in zip(refs["hidden"], refs["standard"])]
            assert np.max(np.abs(np.array(both.trace_distances) - distances)) <= 1e-12, initial
