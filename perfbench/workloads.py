"""The four hlq benchmark workloads.

A workload builds its inputs in ``__init__``: configs parsed and validated,
schedules built. That is the set-up ``setup_s`` times. ``ops`` lists the
calls of one pass and ``check`` holds a finished pass against its oracles.
Every call goes through the public API (``hlq.run``, ``hlq.run_compare``,
``hlq.cli.main``) and starts after the previous one returned: a closed loop
with one caller.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hlq
import hlq.cli

OMEGA_SLOW = 2 * math.pi / 5


@dataclass
class Op:
    """One closed-loop call into hlq."""

    name: str
    steps: int  # engine steps the call performs; a lockstep compare step counts 2
    call: Callable[[], Any]
    count: int = 1  # operations the call stands for: each sweep value is one


class Gate:
    """Pass/fail checks of one benchmark run, plus its worst oracle gap."""

    def __init__(self):
        self.failures: list[str] = []
        self.oracle_err = 0.0

    def at_most(self, name: str, value: float, limit: float) -> None:
        if not value <= limit:  # NaN fails as well
            self.failures.append(f"{name}: {value:.3e} exceeds {limit:.1e}")

    def gap(self, name: str, err: float, limit: float) -> None:
        """A distance from a reference answer; the largest is oracle_err.max."""
        if not err <= self.oracle_err:
            self.oracle_err = err
        self.at_most(name, err, limit)

    def require(self, name: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}")


def displacement(schedule, omega: float, dt: float) -> complex:
    """Coherent amplitude a linear drive adds: -i dt sum_j eta conj(zeta_j) e^{i omega tau_j}.

    The semiclassical step is a displacement by -i eps_j e^{i omega tau_j} dt with
    eps_j = eta conj(zeta_j), so a run moves a coherent state rigidly by this sum.
    """
    return -1j * dt * sum(
        p.eta * p.zeta.conjugate() * cmath.exp(1j * omega * (j - 0.5) * dt)
        for j, p in enumerate(schedule, start=1)
    )


def closed_form_p00(cfg, t: float, eps: float | None = None) -> float:
    eps = cfg.eps_eff if eps is None else eps
    return hlq.ground_state_probability(eps, cfg.omega, t, model=cfg.model)


def check_invariants(gate: Gate, label: str, diag, deep: bool) -> None:
    """Acceptance criterion 7's structural bounds on a run's diagnostics."""
    gate.at_most(f"{label} trace drift", diag.max_trace_drift, 1e-9)
    gate.at_most(f"{label} propagator unitarity", diag.propagator_unitarity_defect, 1e-12)
    gate.at_most(f"{label} top-two population", diag.max_top_two_population, 1e-6)
    if deep:
        gate.at_most(f"{label} hermiticity", diag.max_hermiticity_defect, 1e-12)
        gate.at_most(f"{label} negative eigenvalue", -diag.min_eigenvalue, 1e-10)
        gate.at_most(f"{label} purity loss", 1.0 - diag.min_purity, 0.01)


class AcceptDim32:
    """The acceptance run set at a twentieth of its length, plus the criterion-5 ladder.

    Same models, schedules, phase conventions, dt and deep checks as
    tests/test_acceptance.py; the closed forms hold at any length, so the
    oracles keep the acceptance tolerances.
    """

    def __init__(self, seed: int, work: Path):
        C = hlq.SimConfig
        linear = partial(C, model="linear", dt=1e-3)
        # (label, config, oracle): "series" holds p00 to the closed form at
        # every step, "final" at the last one; "superradiant" adds the N^2
        # photon build-up, "subradiant" the cancellation, "displacement" the
        # final p00 to exp(-|beta|^2) over the built schedule. Every run is
        # held to the structural invariants.
        self.runs = [
            ("slow-linear", linear(omega=OMEGA_SLOW, steps=188), "series"),
            ("long-linear", linear(omega=OMEGA_SLOW, steps=500), "series"),
            ("two-boson-k1", C(model="two-boson", omega=math.pi, dt=1e-4, steps=400,
                               phase="coherence"), "final"),
            ("two-boson-k2", C(model="two-boson", omega=math.pi, dt=1e-4, steps=400), None),
            ("two-boson-fast", C(model="two-boson", omega=4 * math.pi, dt=1e-4,
                                 steps=400), None),
            ("intensity", C(model="intensity", omega=math.pi, dt=1e-4, steps=400), "final"),
            *[(f"superradiant-{n}", linear(omega=0.0, steps=n), "superradiant")
              for n in (50, 100, 200)],
            ("subradiant", linear(omega=0.0, steps=100, schedule="alternating"), "subradiant"),
            ("rotating", linear(omega=OMEGA_SLOW, steps=500, schedule="rotating"), "displacement"),
        ]
        self.ladder = [linear(omega=OMEGA_SLOW, dt=1e-3 / 2**i, steps=50 * 2**i)
                       for i in range(4)]
        for cfg in [cfg for _, cfg, _ in self.runs] + self.ladder:
            cfg.validate()
        self.beta = {label: displacement(hlq.make_schedule(cfg), cfg.omega, cfg.dt)
                     for label, cfg, oracle in self.runs if oracle == "displacement"}

    def ops(self, out: Path) -> list[Op]:
        ops = [Op(label, cfg.steps, partial(hlq.run, cfg)) for label, cfg, _ in self.runs]
        ops += [Op(f"ladder-{i}", 2 * cfg.steps,
                   partial(hlq.run_compare, cfg, per_step_distance=False))
                for i, cfg in enumerate(self.ladder)]
        return ops

    def check(self, results: list, gate: Gate, out: Path) -> None:
        for (label, cfg, oracle), res in zip(self.runs, results):
            check_invariants(gate, label, res.diagnostics, deep=True)
            if oracle in ("series", "superradiant"):
                err = max(abs(r.p00 - closed_form_p00(cfg, r.t)) for r in res.records)
                gate.gap(f"{label} max |p00 - closed form|", err, 0.01)
            elif oracle == "final":
                err = abs(res.final[0, 0].real - closed_form_p00(cfg, cfg.t_final))
                gate.gap(f"{label} final |p00 - closed form|", err, 0.05)
            if oracle == "superradiant":
                target = (cfg.eps_eff * cfg.t_final) ** 2
                rel = abs(hlq.mean_photon(res.final) - target) / target
                gate.at_most(f"{label} relative <n> error", rel, 0.05)
                gamma = -1j * cfg.eta * cfg.zeta_abs * cfg.t_final
                gate.at_most(f"{label} coherent infidelity",
                             1.0 - hlq.fidelity_coherent(res.final, gamma), 0.01)
            elif oracle == "subradiant":
                gate.at_most(f"{label} <n>", hlq.mean_photon(res.final), 1e-4)
            elif oracle == "displacement":
                err = abs(res.final[0, 0].real - math.exp(-abs(self.beta[label]) ** 2))
                gate.gap(f"{label} final |p00 - displacement|", err, 0.01)
        dists = [res.trace_distances[-1] for res in results[len(self.runs):]]
        for a, b in zip(dists, dists[1:]):
            gate.require("ladder distance ratio", 1.7 <= a / b <= 2.3,
                         f"{a / b:.3f} outside [1.7, 2.3]")


class KernelDim64:
    """Hidden and standard runs at dim 64 from a coherent start, two-boson at dim 48.

    Deep checks are off, so the step kernel does nearly all the work. The
    seed draws the phase of the coherent start (|gamma0|^2 = 5).
    """

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        gamma0 = math.sqrt(5.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        self.coherent = [
            hlq.SimConfig(model="linear", omega=OMEGA_SLOW, dt=1e-2, steps=300, dim=64,
                          engine=engine, initial="coherent", gamma0=gamma0)
            for engine in ("hidden", "standard")
        ]
        self.two_boson = hlq.SimConfig(model="two-boson", omega=math.pi, dt=1e-3, steps=300,
                                       dim=48, phase="coherence")
        for cfg in self.coherent + [self.two_boson]:
            cfg.validate()
        # A linear drive displaces a coherent state rigidly.
        schedule = hlq.make_schedule(self.coherent[0])
        self.target = gamma0 + displacement(schedule, OMEGA_SLOW, self.coherent[0].dt)

    def ops(self, out: Path) -> list[Op]:
        return [Op(f"{cfg.model}-{cfg.engine}-dim{cfg.dim}", cfg.steps,
                   partial(hlq.run, cfg, deep_checks=False))
                for cfg in self.coherent + [self.two_boson]]

    def check(self, results: list, gate: Gate, out: Path) -> None:
        # The hidden engine heats the state by O(dt); the standard one is exact.
        for cfg, res, limit in zip(self.coherent, results, (0.01, 1e-9)):
            label = f"dim-64 {cfg.engine}"
            check_invariants(gate, label, res.diagnostics, deep=False)
            infidelity = 1.0 - hlq.fidelity_coherent(res.final, self.target)
            gate.gap(f"{label} infidelity to |gamma0 + beta>", infidelity, limit)
        res = results[-1]
        check_invariants(gate, "two-boson dim-48", res.diagnostics, deep=False)
        err = abs(res.final[0, 0].real - closed_form_p00(self.two_boson, self.two_boson.t_final))
        gate.gap("two-boson dim-48 final |p00 - closed form|", err, 0.05)


class PulseDirect:
    """Lockstep compare over a sin^2 pulse whose |zeta| changes every step.

    Non-constant amplitudes take the engines' uncached path. The seed draws
    a per-step phase jitter on zeta; eta is complex.
    """

    STEPS = 160

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        n, dt, eta = self.STEPS, 1e-2, 1.2 * cmath.exp(0.4j)
        self.config = hlq.SimConfig(model="linear", omega=OMEGA_SLOW, dt=dt, steps=n, eta=eta)
        self.config.validate()
        jitter = rng.uniform(-0.3, 0.3, n)
        self.schedule = [
            hlq.uniform_schedule(1, 0.5 * math.sin(math.pi * (j + 0.5) / n) ** 2,
                                 float(jitter[j]), eta)[0]
            for j in range(n)
        ]
        # From vacuum the pulse is a pure displacement by beta: p00 = exp(-|beta|^2).
        self.p00 = math.exp(-abs(displacement(self.schedule, OMEGA_SLOW, dt)) ** 2)

    def ops(self, out: Path) -> list[Op]:
        return [Op("pulse-compare", 2 * self.STEPS,
                   partial(hlq.run_compare, self.config, self.schedule,
                           per_step_distance=False))]

    def check(self, results: list, gate: Gate, out: Path) -> None:
        res = results[0]
        check_invariants(gate, "pulse hidden", res.diagnostics_hidden, deep=False)
        check_invariants(gate, "pulse standard", res.diagnostics_standard, deep=False)
        gate.gap("pulse standard final |p00 - displacement|",
                 abs(res.final_standard[0, 0].real - self.p00), 1e-9)
        gate.gap("pulse hidden final |p00 - displacement|",
                 abs(res.final_hidden[0, 0].real - self.p00), 0.05)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _last_row(path: Path) -> list[float]:
    return [float(v) for v in path.read_text().rstrip("\n").rsplit("\n", 1)[1].split(",")]


class CliIo:
    """In-process ``hlq.cli.main`` calls at dim 12, writing into a fresh out dir per pass.

    The first pass is checked against the oracles and its manifests become
    the reference every later pass must reproduce byte for byte.
    """

    SNAPSHOTS = "0,125,250,375,500"
    ZETAS = ("0.1", "0.2", "0.3", "0.4", "0.5")
    COMMANDS = ("husimi", "run", "compare", "sweep")

    def __init__(self, seed: int, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        text = (f"model = linear\nomega = {OMEGA_SLOW!r}\ndt = 0.002\n"
                "steps = 500\ndim = 12\n")
        self.both = work / "both.cfg"
        self.both.write_text(text + "engine = both\n")
        self.hidden = work / "hidden.cfg"
        self.hidden.write_text(text + "engine = hidden\n")
        self.config = hlq.cli.parse_config(self.both.read_text())
        hlq.cli.parse_config(self.hidden.read_text())
        self.work = work
        self.reference: dict[str, str] | None = None

    @staticmethod
    def _cli(*argv) -> Callable[[], int]:
        def call() -> int:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = hlq.cli.main([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"hlq {argv[0]} exited with {code}")
            return code
        return call

    def ops(self, out: Path) -> list[Op]:
        n = self.config.steps
        return [
            Op("husimi", n, self._cli("husimi", self.both, "--out-dir", out / "husimi",
                                      "--steps", self.SNAPSHOTS, "--grid", 201)),
            Op("run", 2 * n, self._cli("run", self.both, "--out-dir", out / "run")),
            Op("compare", 2 * n, self._cli("compare", self.both, "--out-dir", out / "compare")),
            Op("sweep", len(self.ZETAS) * n,
               self._cli("sweep", self.hidden, "--param", "zeta", "--values",
                         ",".join(self.ZETAS), "--out-dir", out / "sweep"),
               count=len(self.ZETAS)),
        ]

    def _manifest_digests(self, out: Path, gate: Gate) -> dict[str, str]:
        digests = {}
        for cmd in self.COMMANDS:
            path = out / cmd / "manifest.json"
            manifest = json.loads(path.read_text())
            if cmd == "sweep":
                listed = [(out / cmd / e["dir"], e.get("outputs", {})) for e in manifest["results"]]
            else:
                listed = [(out / cmd, manifest["outputs"])]
            for folder, outputs in listed:
                for name, digest in outputs.items():
                    gate.require(f"{cmd} {name}", _sha256(folder / name) == digest,
                                 "SHA-256 differs from the manifest")
            digests[cmd] = _sha256(path)
        return digests

    def check(self, results: list, gate: Gate, out: Path) -> None:
        digests = self._manifest_digests(out, gate)
        if self.reference is not None:
            for cmd, digest in digests.items():
                gate.require(f"{cmd} rerun", digest == self.reference[cmd],
                             "manifest differs from the first pass")
            return
        self.reference = digests
        self._check_physics(out, gate)

    def _check_physics(self, out: Path, gate: Gate) -> None:
        # The hidden engine is off by O(dt); the standard one only by the
        # dim-12 truncation (~1e-7 here).
        cfg = self.config
        table = np.loadtxt(out / "compare" / "compare.csv", delimiter=",", skiprows=1)
        p_hidden, p_standard, p_oracle = table[:, 2], table[:, 3], table[:, 4]
        gate.gap("compare hidden |p00 - closed form|",
                 float(np.max(np.abs(p_hidden - p_oracle))), 0.01)
        gate.gap("compare standard |p00 - closed form|",
                 float(np.max(np.abs(p_standard - p_oracle))), 1e-6)
        p_final = closed_form_p00(cfg, cfg.t_final)
        for engine, limit in (("hidden", 0.01), ("standard", 1e-6)):
            p00 = float((out / "run" / f"final_state_{engine}.csv").read_text()
                        .split("\n")[1].split(",")[2])
            gate.gap(f"run {engine} final |p00 - closed form|", abs(p00 - p_final), limit)
        for zeta in self.ZETAS:
            p00 = _last_row(out / "sweep" / f"zeta={zeta}" / "timeseries.csv")[3]
            gate.gap(f"sweep zeta={zeta} final |p00 - closed form|",
                     abs(p00 - closed_form_p00(cfg, cfg.t_final, eps=float(zeta))), 0.01)
        q0 = np.loadtxt(out / "husimi" / "husimi_step0.csv", delimiter=",", skiprows=1)[:, 2]
        gate.at_most("husimi vacuum peak |max Q - 1/pi|", abs(q0.max() - 1 / math.pi), 1e-9)
        beta = displacement(hlq.make_schedule(cfg), cfg.omega, cfg.dt)
        _, re_b, im_b = _last_row(out / "husimi" / "trajectory.csv")
        gate.gap("husimi trajectory final |<b> - beta|", abs(complex(re_b, im_b) - beta), 0.01)

    def probe_sweep_both(self) -> str:
        """Run the known-failing ``sweep`` with ``engine = both`` once and describe it."""
        out = self.work / "sweep-both"
        try:
            self._cli("sweep", self.both, "--param", "zeta", "--values",
                      ",".join(self.ZETAS), "--out-dir", out)()
        except RuntimeError:
            manifest = json.loads((out / "manifest.json").read_text())
            failed = [e for e in manifest["results"] if e["status"] == "failed"]
            reason = failed[0]["error"] if failed else "no value failed"
            return (f"sweep with engine = both: {len(failed)} of {len(self.ZETAS)} "
                    f"values failed ({reason})")
        return "sweep with engine = both: every value succeeded"


WORKLOADS = {
    "accept-dim32": AcceptDim32,
    "kernel-dim64": KernelDim64,
    "pulse-direct": PulseDirect,
    "cli-io": CliIo,
}
