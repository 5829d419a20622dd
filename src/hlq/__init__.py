"""Truncated-Fock-space simulator for driven (an)harmonic oscillator modes.

The package steps a field state through short time slices in two
interchangeable ways: a semiclassical drive (``standard`` engine) and a
spin-assisted encoding in which every step adjoins, couples and discards a
virtual two-state spin whose coherence carries the drive amplitude
(``hidden`` engine). The hidden step mixes, so that engine steps the density
matrix. The standard step is unitary and every run starts pure (vacuum or
coherent), so that engine steps the state vector psi and forms
rho = psi psi^dag once per step; both return density matrices.
The closed-form vacuum survival probability lives in :mod:`hlq.oracles`;
observables and phase-space views in :mod:`hlq.observables`.
"""

from .engines import (
    CompareResult,
    RunDiagnostics,
    RunResult,
    SimConfig,
    converge,
    make_schedule,
    phase_multiplicity,
    run,
    run_compare,
)
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    HlqError,
    InvalidCoherenceError,
    InvalidDimensionError,
    InvalidModelError,
    InvalidPreparationError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from .fockcore import coherent_vector, model_band
from .observables import (
    HusimiGrid,
    fidelity_coherent,
    ground_population,
    husimi_grid,
    husimi_grids,
    mean_photon,
    purity,
    quadrature_variances,
    trace_distance,
    trajectory_point,
)
from .oracles import ground_state_probability
from .schedules import (
    AtomPrep,
    alternating_schedule,
    rotating_schedule,
    uniform_schedule,
)

__version__ = "0.1.0"
