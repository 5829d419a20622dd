"""Truncated-Fock-space simulator for driven (an)harmonic oscillator modes.

The package steps a field density matrix through short time slices in two
interchangeable ways: a semiclassical drive (``standard`` engine) and a
spin-assisted encoding in which every step adjoins, couples and discards a
virtual two-state spin whose coherence carries the drive amplitude
(``hidden`` engine). Closed-form and quadrature reference answers for the
vacuum survival probability live in :mod:`hlq.oracles`; observables and
phase-space views in :mod:`hlq.observables`.
"""

from .engines import (
    CompareResult,
    RunDiagnostics,
    RunResult,
    SimConfig,
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
    InvalidHamiltonianError,
    InvalidModelError,
    InvalidPreparationError,
    TruncationOverflowError,
)
from .fockcore import (
    annihilation_matrix,
    coherent_vector,
    model_operator,
    number_matrix,
)
from .observables import (
    HusimiGrid,
    fidelity_coherent,
    ground_population,
    husimi_grid,
    mean_photon,
    purity,
    quadrature_variances,
    trace_distance,
    trajectory_point,
)
from .oracles import greens_quadrature_probability, ground_state_probability
from .schedules import (
    AtomPrep,
    alternating_schedule,
    rotating_schedule,
    uniform_schedule,
)

__version__ = "0.1.0"
