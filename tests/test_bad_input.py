"""One table of bad input over every entry point of the README's table: each bad value
raises the HlqError subclass the README names, never a bare Python or numpy error."""

import dataclasses
import math

import numpy as np
import pytest

from hlq import (
    AtomPrep,
    SimConfig,
    alternating_schedule,
    coherent_vector,
    converge,
    fidelity_coherent,
    ground_population,
    ground_state_probability,
    husimi_grid,
    husimi_grids,
    mean_photon,
    model_band,
    phase_multiplicity,
    purity,
    quadrature_variances,
    rotating_schedule,
    run,
    run_compare,
    trace_distance,
    trajectory_point,
    uniform_schedule,
)
from hlq.engines import MODELS
from hlq.observables import husimi_window
from hlq.errors import (
    ConfigValidationError,
    HlqError,
    InvalidCoherenceError,
    InvalidDimensionError,
    InvalidModelError,
    InvalidPreparationError,
)
from test_tools import readme_entry_points

# Fed to every argument, numpy's bools beside Python's. A complex number is fed too
# where a real one is due.
BAD = {"True": True, "False": False, "np.True_": np.True_, "np.False_": np.False_,
       "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "'1'": "1", "None": None,
       "[1]": [1]}
COMPLEX = 0.5 + 0.25j
# The values of BAD that make a d x d state with a bad dtype or a non-finite entry.
FILLS = ("nan", "inf", "-inf", "'1'", "None")

# The valid arguments each row holds fixed, drawn once from a fixed seed.
_rng = np.random.default_rng(33)
DIM, STEPS = int(_rng.integers(4, 13)), int(_rng.integers(2, 6))
BASE = dict(model=str(_rng.choice(MODELS)), omega=float(_rng.uniform(0.5, 2.0)),
            dt=float(_rng.uniform(1e-3, 1e-2)), steps=STEPS, dim=DIM,
            zeta_abs=float(_rng.uniform(0.0, 0.5)),
            eta=complex(*_rng.uniform(-1.0, 1.0, 2)), schedule=str(_rng.choice(
                ("uniform", "alternating", "rotating"))), engine=str(_rng.choice(
                ("hidden", "standard"))), initial="coherent",
            gamma0=complex(*_rng.uniform(-0.3, 0.3, 2)), phase=str(_rng.choice(
                ("operator", "coherence"))), outputs=("timeseries", "final"))
CONFIG = SimConfig(**BASE)
THETA, PHI = float(_rng.uniform(0.0, math.pi / 2)), float(_rng.uniform(-math.pi, math.pi))
ALPHA, BETA = complex(math.cos(THETA)), math.sin(THETA) * complex(math.cos(PHI), math.sin(PHI))
GAMMA = complex(*_rng.uniform(-0.5, 0.5, 2))
RHO = np.outer(coherent_vector(GAMMA, DIM), coherent_vector(GAMMA, DIM).conj())
EXTENT, POINTS = float(_rng.uniform(1.0, 4.0)), 5

# The values of BAD a row feeds: every one and a complex number, or BAD alone where a
# complex number is due.
ALL, NUMBER = (*BAD, "complex"), tuple(BAD)


def validated(field, value):
    """SimConfig.validate of a made config whose field is set to value afterwards."""
    config = SimConfig(**BASE)
    object.__setattr__(config, field, value)
    config.validate()


def config_rows(field, values):
    return [("SimConfig", field, values, lambda v: SimConfig(**{**BASE, field: v})),
            ("dataclasses.replace", field, values,
             lambda v: dataclasses.replace(CONFIG, **{field: v})),
            ("SimConfig.validate", field, values, lambda v: validated(field, v))]


def generator_rows(function, **base):
    errors = dict(zeta_abs=InvalidCoherenceError)
    return [(function.__name__, arg, NUMBER if arg == "eta" else ALL,
             lambda v, a=arg: function(**{**base, a: v}), errors.get(arg, ConfigValidationError))
            for arg in base]


def state_rows(entry, arg, call):
    """A bad value as the state, and as every entry of a d x d state."""
    return [(entry, arg, ALL, call, InvalidDimensionError),
            (entry, f"{arg} entries", FILLS, lambda v: call(np.full((DIM, DIM), v)),
             ConfigValidationError)]


# (entry point, argument, values fed, call of one value, error class the README names)
TABLE = [
    *[(*row, ConfigValidationError) for field in SimConfig.__dataclass_fields__
      for row in config_rows(field, NUMBER if field in ("eta", "gamma0") else ALL)],
    *[row for entry in (run, run_compare) for row in (
        (entry.__name__, "config", ALL, entry, ConfigValidationError),
        (entry.__name__, "schedule", tuple(v for v in ALL if v != "None"),
         lambda v, f=entry: f(CONFIG, v), ConfigValidationError),
        (entry.__name__, "schedule item", ALL, lambda v, f=entry: f(CONFIG, [v] * STEPS),
         InvalidPreparationError))],
    ("run", "snapshot_steps", tuple(v for v in ALL if v != "[1]"),
     lambda v: run(CONFIG, snapshot_steps=v), ConfigValidationError),
    ("run", "snapshot step", ALL, lambda v: run(CONFIG, snapshot_steps=[v]),
     ConfigValidationError),
    ("converge", "config", ALL, lambda v: converge(v, 2), ConfigValidationError),
    ("converge", "halvings", ALL, lambda v: converge(CONFIG, v), ConfigValidationError),
    # Each bool (a Python or a numpy one) alone makes |alpha|^2 + |beta|^2 = 1 with the
    # other amplitude 0.
    ("AtomPrep.validate", "alpha", NUMBER, lambda v: AtomPrep(v, 0j, BASE["eta"]).validate(),
     InvalidPreparationError),
    ("AtomPrep.validate", "beta", NUMBER, lambda v: AtomPrep(0j, v, BASE["eta"]).validate(),
     InvalidPreparationError),
    ("AtomPrep.validate", "eta", NUMBER, lambda v: AtomPrep(ALPHA, BETA, v).validate(),
     InvalidPreparationError),
    *generator_rows(uniform_schedule, n_steps=STEPS, zeta_abs=BASE["zeta_abs"], phase=PHI,
                    eta=BASE["eta"]),
    *generator_rows(alternating_schedule, n_steps=STEPS, zeta_abs=BASE["zeta_abs"],
                    eta=BASE["eta"]),
    *generator_rows(rotating_schedule, n_steps=STEPS, zeta_abs=BASE["zeta_abs"],
                    omega=BASE["omega"], dt=BASE["dt"], eta=BASE["eta"]),
    ("model_band", "model", ALL, lambda v: model_band(v, DIM), InvalidModelError),
    ("model_band", "d", ALL, lambda v: model_band(BASE["model"], v), InvalidDimensionError),
    ("coherent_vector", "gamma", NUMBER, lambda v: coherent_vector(v, DIM),
     ConfigValidationError),
    ("coherent_vector", "d", ALL, lambda v: coherent_vector(GAMMA, v), InvalidDimensionError),
    ("phase_multiplicity", "model", ALL, lambda v: phase_multiplicity(v, BASE["phase"]),
     InvalidModelError),
    ("phase_multiplicity", "convention", ALL, lambda v: phase_multiplicity(BASE["model"], v),
     ConfigValidationError),
    ("ground_state_probability", "eps_eff", NUMBER,
     lambda v: ground_state_probability(v, BASE["omega"], 1.0), ConfigValidationError),
    ("ground_state_probability", "omega", ALL,
     lambda v: ground_state_probability(0.3, v, 1.0), ConfigValidationError),
    ("ground_state_probability", "t_final", ALL,
     lambda v: ground_state_probability(0.3, BASE["omega"], v), ConfigValidationError),
    ("ground_state_probability", "model", ALL,
     lambda v: ground_state_probability(0.3, BASE["omega"], 1.0, v), InvalidModelError),
    *state_rows("husimi_grid", "rho", lambda v: husimi_grid(v, EXTENT, POINTS)),
    ("husimi_grid", "extent", ALL, lambda v: husimi_grid(RHO, v, POINTS), ConfigValidationError),
    ("husimi_grid", "resolution", ALL, lambda v: husimi_grid(RHO, EXTENT, v),
     InvalidDimensionError),
    ("husimi_grids", "states", ALL, lambda v: husimi_grids(v, EXTENT, POINTS),
     InvalidDimensionError),
    *state_rows("husimi_grids", "a state", lambda v: husimi_grids([RHO, v], EXTENT, POINTS)),
    ("husimi_grids", "extent", ALL, lambda v: husimi_grids([RHO], v, POINTS),
     ConfigValidationError),
    ("husimi_grids", "resolution", ALL, lambda v: husimi_grids([RHO], EXTENT, v),
     InvalidDimensionError),
    ("husimi_window", "extent", ALL, lambda v: husimi_window(v, POINTS, DIM),
     ConfigValidationError),
    ("husimi_window", "resolution", ALL, lambda v: husimi_window(EXTENT, v, DIM),
     InvalidDimensionError),
    ("husimi_window", "d", ALL, lambda v: husimi_window(EXTENT, POINTS, v),
     InvalidDimensionError),
    *state_rows("trace_distance", "a", lambda v: trace_distance(v, RHO)),
    *state_rows("trace_distance", "b", lambda v: trace_distance(RHO, v)),
    *[row for function in (ground_population, mean_photon, purity, trajectory_point,
                           quadrature_variances)
      for row in state_rows(function.__name__, "rho", function)],
    *state_rows("fidelity_coherent", "rho", lambda v: fidelity_coherent(v, GAMMA)),
    ("fidelity_coherent", "gamma", NUMBER, lambda v: fidelity_coherent(RHO, v),
     ConfigValidationError),
]


@pytest.mark.parametrize("entry, arg, values, call, error", TABLE,
                         ids=[f"{row[0]}-{row[1]}" for row in TABLE])
def test_bad_value_raises_the_named_error(entry, arg, values, call, error):
    wrong = {}
    for name in values:
        try:
            call(COMPLEX if name == "complex" else BAD[name])
        except HlqError as exc:
            if type(exc) is not error:
                wrong[name] = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - a bare error is what this test looks for
            wrong[name] = f"bare {type(exc).__name__}: {exc}"
        else:
            wrong[name] = "no error"
    assert not wrong, f"{entry} {arg}: {wrong}"


def test_table_covers_the_readme_entry_points():
    missing = set(readme_entry_points()) - {row[0] for row in TABLE}
    assert not missing, f"README entry points with no bad-input row: {sorted(missing)}"


def test_numpy_numbers_pass():
    """numpy floats, ints and complex numbers are numbers; only bools are refused."""
    config = SimConfig(**{**BASE, "omega": np.float64(BASE["omega"]), "dt": np.float32(1e-2),
                          "steps": np.int64(STEPS), "dim": np.int32(DIM),
                          "zeta_abs": np.float64(0.3), "eta": np.complex128(BASE["eta"]),
                          "gamma0": np.complex64(0.1)})
    assert set(run(config, snapshot_steps=[np.int64(1)]).snapshots) == {1}
    assert len(uniform_schedule(np.int64(2), np.float64(0.3), np.float32(0.1),
                                np.complex128(1.0))) == 2
    AtomPrep(np.float64(1.0), np.complex128(0.0), np.int64(1)).validate()
    assert coherent_vector(np.float64(0.5), np.int64(3)).shape == (3,)
    assert 0.0 < ground_state_probability(np.float64(0.3), np.float64(1.0), np.float32(1.0)) < 1.0
    assert husimi_window(np.float64(2.0), np.int64(5), np.int64(4)) == (2.0, 5)
