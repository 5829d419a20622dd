"""Acceptance gate: every stated criterion at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL verdict line
(visible with ``pytest tests/test_acceptance.py -v -s``); the collected
lines are also written to ``acceptance_report.txt`` at the repository root
when the module finishes, but only if all ten criteria reported, so a partial
run (``-k criterion_09``) leaves the full report alone. Heavy engine runs are shared through
module-scoped fixtures so each happens exactly once.

Run set shared by the structural-invariant sweep: the slow
linear run and its long extension, the two-boson slow runs under both phase
conventions, the two-boson fast run, the intensity run, the three
superradiant runs, and the sub-radiant run.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from hlq.engines import SimConfig, converge, run
from hlq.observables import fidelity_coherent, husimi_grid
from hlq.oracles import ground_state_probability
from reference import greens_quadrature_probability, two_boson_variances

OMEGA_SLOW = 2 * math.pi / 5
N_CRITERIA = 10

_VERDICTS: dict[int, str] = {}


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    _VERDICTS[num] = line
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def acceptance_report():
    yield
    if len(_VERDICTS) < N_CRITERIA:
        return
    text = "\n".join(_VERDICTS[n] for n in sorted(_VERDICTS)) + "\n"
    Path(__file__).resolve().parent.parent.joinpath("acceptance_report.txt").write_text(text)
    print("\n" + text)


@pytest.fixture(scope="module")
def slow_linear():
    cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=1e-3, steps=3750)
    start = time.perf_counter()
    result = run(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def revival():
    cfg = SimConfig(model="linear", omega=OMEGA_SLOW, dt=1e-3, steps=10_000)
    return cfg, run(cfg)


@pytest.fixture(scope="module")
def two_boson_matched():
    # k = 1 rotation, the convention under which the doubled-exponent
    # closed form is derived (see DECISIONS.md)
    cfg = SimConfig(model="two-boson", omega=math.pi, dt=1e-4, steps=8000,
                    phase="coherence")
    return cfg, run(cfg)


@pytest.fixture(scope="module")
def two_boson_slow():
    cfg = SimConfig(model="two-boson", omega=math.pi, dt=1e-4, steps=8000)
    return cfg, run(cfg)


@pytest.fixture(scope="module")
def two_boson_fast():
    cfg = SimConfig(model="two-boson", omega=4 * math.pi, dt=1e-4, steps=8000)
    return cfg, run(cfg)


@pytest.fixture(scope="module")
def intensity_run():
    cfg = SimConfig(model="intensity", omega=math.pi, dt=1e-4, steps=8000)
    return cfg, run(cfg)


@pytest.fixture(scope="module")
def superradiant():
    results = {}
    for n in (1000, 2000, 4000):
        cfg = SimConfig(model="linear", omega=0.0, dt=1e-3, steps=n)
        results[n] = (cfg, run(cfg))
    return results


@pytest.fixture(scope="module")
def subradiant():
    cfg = SimConfig(model="linear", omega=0.0, dt=1e-3, steps=200,
                    schedule="alternating")
    return cfg, run(cfg)


def max_closed_form_deviation(cfg, result, model="linear"):
    return max(
        abs(r.p00 - ground_state_probability(cfg.eps_eff, cfg.omega, r.t, model=model))
        for r in result.records
    )


def test_criterion_01_slow_linear_tracks_closed_form(slow_linear):
    cfg, result, elapsed = slow_linear
    dev = max_closed_form_deviation(cfg, result)
    ok = dev <= 0.01 and elapsed <= 60.0
    verdict(1, "slow linear run vs closed form", ok,
            f"max |p00 - closed| = {dev:.2e} (<= 0.01), runtime {elapsed:.1f}s (<= 60s)")


def test_criterion_02_revival_periodicity(revival):
    cfg, result = revival
    dev = max_closed_form_deviation(cfg, result)
    # omega T hits 2 pi at step 5000 and 4 pi at step 10000
    p_rev1 = result.records[5000].p00
    p_rev2 = result.records[10_000].p00
    ok = dev <= 0.01 and abs(1 - p_rev1) <= 0.01 and abs(1 - p_rev2) <= 0.01
    verdict(2, "long run revivals", ok,
            f"max dev {dev:.2e} (<= 0.01); p00 at revivals {p_rev1:.4f}, "
            f"{p_rev2:.4f} (within 0.01 of 1)")


def test_criterion_03_two_boson_matches_doubled_exponent(two_boson_matched):
    cfg, result = two_boson_matched
    p_ref = ground_state_probability(cfg.eps_eff, cfg.omega, cfg.t_final,
                                     model="two-boson")
    gap = abs(result.records[-1].p00 - p_ref)
    verdict(3, "two-boson final p00 vs doubled-exponent form", gap <= 0.05,
            f"|{result.records[-1].p00:.4f} - {p_ref:.4f}| = {gap:.4f} (<= 0.05, "
            f"k = 1 rotation convention)")


def test_criterion_04_intensity_matches_linear_form(intensity_run):
    cfg, result = intensity_run
    p_ref = ground_state_probability(cfg.eps_eff, cfg.omega, cfg.t_final,
                                     model="intensity")
    gap = abs(result.records[-1].p00 - p_ref)
    verdict(4, "intensity-coupling final p00 vs linear-form law", gap <= 0.05,
            f"|{result.records[-1].p00:.4f} - {p_ref:.4f}| = {gap:.4f} (<= 0.05)")


def test_criterion_05_engine_agreement_first_order():
    dists = converge(SimConfig(model="linear", omega=OMEGA_SLOW, dt=1e-3, steps=1000), 3)
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    verdict(5, "hidden-vs-standard distance halves with dt", ok,
            f"ratios {[f'{r:.3f}' for r in ratios]} (each in [1.7, 2.3])")


def test_criterion_06_quadrature_oracle_agreement():
    worst = 0.0
    for t in np.linspace(0.0, 4 * math.pi / OMEGA_SLOW, 21):
        pq = greens_quadrature_probability(0.5, OMEGA_SLOW, float(t), 10_000)
        pc = ground_state_probability(0.5, OMEGA_SLOW, float(t))
        worst = max(worst, abs(pq - pc))
    verdict(6, "quadrature vs closed form", worst <= 1e-6,
            f"worst gap {worst:.2e} over omega*T in [0, 4 pi] (<= 1e-6 at resolution 1e4)")


def test_criterion_07_structural_invariants(slow_linear, revival, two_boson_matched,
                                            two_boson_slow, two_boson_fast,
                                            intensity_run, superradiant, subradiant):
    runs = {
        "slow-linear": slow_linear[1],
        "long-linear": revival[1],
        "two-boson-k1": two_boson_matched[1],
        "two-boson-k2": two_boson_slow[1],
        "two-boson-fast": two_boson_fast[1],
        "intensity": intensity_run[1],
        "subradiant": subradiant[1],
    }
    for n, (_, res) in superradiant.items():
        runs[f"superradiant-{n}"] = res
    drift = max(r.diagnostics.max_trace_drift for r in runs.values())
    herm = max(r.diagnostics.max_hermiticity_defect for r in runs.values())
    mineig = min(r.diagnostics.min_eigenvalue for r in runs.values())
    unit = max(r.diagnostics.propagator_unitarity_defect for r in runs.values())
    minpur = min(r.diagnostics.min_purity for r in runs.values())
    top2 = max(r.diagnostics.max_top_two_population for r in runs.values())
    ok = (drift <= 1e-9 and herm <= 1e-12 and mineig >= -1e-10
          and unit <= 1e-12 and minpur >= 0.99 and top2 < 1e-6)
    verdict(7, "structural invariants over all headline runs", ok,
            f"trace drift {drift:.1e} (<= 1e-9), hermiticity {herm:.1e} (<= 1e-12), "
            f"min eig {mineig:.1e} (>= -1e-10), unitarity {unit:.1e} (<= 1e-12), "
            f"min purity {minpur:.4f} (>= 0.99), top-two {top2:.1e} (< 1e-6) "
            f"across {len(runs)} runs")


def test_criterion_08_superradiance_and_subradiance(superradiant, subradiant):
    details = []
    ok = True
    for n, (cfg, res) in superradiant.items():
        target = (abs(cfg.eta) * cfg.zeta_abs * n * cfg.dt) ** 2
        mean_n = res.records[-1].mean_n
        rel = abs(mean_n - target) / target
        gamma_a = -1j * cfg.eta * cfg.zeta_abs * cfg.t_final
        fid = fidelity_coherent(res.final, gamma_a)
        ok = ok and rel <= 0.05 and fid >= 0.99
        details.append(f"N={n}: <n> {mean_n:.4f} vs {target:.4f} ({rel * 100:.2f}%), "
                       f"fidelity {fid:.4f}")
    sub_n = subradiant[1].records[-1].mean_n
    ok = ok and sub_n < 1e-4
    details.append(f"sub-radiant N=200: <n> {sub_n:.1e} (< 1e-4)")
    verdict(8, "superradiant N^2 buildup, sub-radiant cancellation", ok,
            "; ".join(details))


def test_criterion_09_squeezing_slow_fast(two_boson_slow, two_boson_fast):
    # The quadratic drive makes the variances breathe between e^{+-2r}/4, so
    # "vacuum-like" means inside the rotating-wave envelope e^{2 r_max} - 1,
    # sinh r_max = 2|eps|/Omega, not a fixed band (see DECISIONS.md). Both runs
    # must also follow the Bogoliubov closed form at every step.
    gaps, envelopes, departures = {}, {}, {}
    for name, (cfg, res) in (("slow", two_boson_slow), ("fast", two_boson_fast)):
        eps = cfg.eta * cfg.zeta_abs
        t = np.array([r.t for r in res.records])
        vx = np.array([r.var_x for r in res.records])
        vy = np.array([r.var_y for r in res.records])
        ox, oy = two_boson_variances(eps, cfg.omega, t)
        gaps[name] = float(max(np.max(np.abs(vx - ox)), np.max(np.abs(vy - oy))))
        big_omega = math.sqrt(cfg.omega**2 - 4 * abs(eps) ** 2)  # Delta = omega at k = 2
        envelopes[name] = math.exp(2 * math.asinh(2 * abs(eps) / big_omega)) - 1
        departures[name] = float(max(np.max(np.abs(vx - 0.25)),
                                     np.max(np.abs(vy - 0.25)))) / 0.25
    min_var = min(min(r.var_x, r.var_y) for r in two_boson_slow[1].records)
    ok = (min_var < 0.25
          and max(gaps.values()) <= 1e-3
          and departures["fast"] <= envelopes["fast"] + 4e-3)
    verdict(9, "two-boson squeezing: slow squeezes, fast stays vacuum-like", ok,
            f"slow min var {min_var:.4f} (< 0.25); worst Bogoliubov oracle gap "
            f"slow {gaps['slow']:.1e}, fast {gaps['fast']:.1e} (<= 1e-3 every step); "
            f"fast max departure {departures['fast'] * 100:.2f}% of 1/4 within "
            f"envelope {envelopes['fast'] * 100:.2f}% (+0.4%), slow envelope "
            f"{envelopes['slow'] * 100:.2f}%; see DECISIONS.md on the fast-branch band")


def test_criterion_10_husimi_and_circular_trajectory(slow_linear):
    cfg, result, _ = slow_linear
    # vacuum grid sanity
    vac = np.zeros((32, 32), dtype=complex)
    vac[0, 0] = 1.0
    grid = husimi_grid(vac, 5.0, 201)
    peak = float(grid.values.max())
    peak_ok = abs(peak - 1.0 / math.pi) <= 1e-9
    mass_ok = abs(grid.mass - 1.0) <= 0.01

    # circle fit (least squares in the algebraic form) over the trajectory
    pts = np.array([r.mean_b for r in result.records])
    x, y = pts.real, pts.imag
    basis = np.column_stack([2 * x, 2 * y, np.ones_like(x)])
    (cx, cy, c0), *_ = np.linalg.lstsq(basis, x * x + y * y, rcond=None)
    radius = math.sqrt(c0 + cx * cx + cy * cy)
    dists = np.hypot(x - cx, y - cy)
    eq_dev = float(np.max(np.abs(dists - radius)) / radius)
    circle_ok = eq_dev <= 0.02
    ok = peak_ok and mass_ok and circle_ok
    verdict(10, "Husimi sanity and circular trajectory", ok,
            f"vacuum peak {peak:.9f} (1/pi +- 1e-9), grid mass {grid.mass:.4f} "
            f"(within 0.01 of 1); trajectory radius {radius:.4f}, max equidistance "
            f"deviation {eq_dev * 100:.3f}% (<= 2%)")
