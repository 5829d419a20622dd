"""Scalar observables, per-step trajectories and phase-space views of a field state.

All functions take a dense d x d density matrix. The quadratures are
X = (b + b^dag)/2 and Y = (b - b^dag)/(2i), so the vacuum has
var X = var Y = 1/4. Expectation values of b, b^2 (weighted by the ``linear``
and ``two-boson`` bands of ``fockcore.model_band``) and b^dag b are read off
the first three diagonals of rho, which keeps per-step recording cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .fockcore import coherent_vector, model_band


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi function sampled on a rectangular grid of coherent labels.

    ``values[iy, ix]`` is Q at gamma = x[ix] + i y[iy]; ``mass`` is the
    Riemann sum of Q over the window (close to 1 when the window holds the
    state).
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    mass: float


def ground_population(rho: np.ndarray) -> float:
    """<0|rho|0>, the survival probability of the empty mode."""
    return float(rho[0, 0].real)


def mean_photon(rho: np.ndarray) -> float:
    """<b^dag b>."""
    d = rho.shape[0]
    return float(np.sum(np.arange(d) * np.diagonal(rho).real))


def purity(rho: np.ndarray) -> float:
    """Tr rho^2, computed as the squared Frobenius norm (rho is Hermitian)."""
    return float(np.vdot(rho, rho).real)


def trajectory_point(rho: np.ndarray) -> complex:
    """<b>, the phase-space centroid of the state."""
    return complex(np.sum(model_band("linear", rho.shape[0]) * np.diagonal(rho, -1)))


def _mean_bb(rho: np.ndarray) -> complex:
    return complex(np.sum(model_band("two-boson", rho.shape[0]) * np.diagonal(rho, -2)))


def _variances(mean_n: float, mean_b: complex, mean_bb: complex) -> tuple[float, float]:
    """(var X, var Y) from the scalars <b^dag b>, <b> and <b^2>.

    Kept per state, not applied to whole columns: numpy's array square and
    Python's float ** 2 (libm pow) differ by one ulp on about one input in 1200.
    """
    x2 = 0.25 * (1.0 + 2.0 * mean_n + 2.0 * mean_bb.real)
    y2 = 0.25 * (1.0 + 2.0 * mean_n - 2.0 * mean_bb.real)
    return float(x2 - mean_b.real**2), float(y2 - mean_b.imag**2)


def quadrature_variances(rho: np.ndarray) -> tuple[float, float]:
    """(var X, var Y); equals (1/4, 1/4) for the vacuum and any coherent state."""
    return _variances(mean_photon(rho), trajectory_point(rho), _mean_bb(rho))


_TRAJECTORY_DTYPE = np.dtype([
    ("step", np.int64), ("t", float), ("p00", float), ("mean_n", float),
    ("purity", float), ("mean_b", complex), ("var_x", float), ("var_y", float),
])


class TrajectoryRecorder:
    """Standard observables of one state per step, kept in preallocated columns.

    ``record(j, rho)`` fills row j (0 is the initial state); ``trajectory(dt)``
    returns them as one ``np.recarray``, so both
    ``traj.p00`` (a column) and ``traj[j].p00`` (one row) work.
    """

    def __init__(self, steps: int):
        self._real = np.empty((steps + 1, 5))
        self._mean_b = np.empty(steps + 1, dtype=complex)

    def record(self, j: int, rho: np.ndarray) -> None:
        mean_n, mean_b = mean_photon(rho), trajectory_point(rho)
        var_x, var_y = _variances(mean_n, mean_b, _mean_bb(rho))
        self._real[j] = ground_population(rho), mean_n, purity(rho), var_x, var_y
        self._mean_b[j] = mean_b

    def trajectory(self, dt: float) -> np.recarray:
        traj = np.recarray(self._mean_b.size, dtype=_TRAJECTORY_DTYPE)
        traj.step = np.arange(traj.size)
        traj.t = traj.step * dt
        traj.p00, traj.mean_n, traj.purity, traj.var_x, traj.var_y = self._real.T
        traj.mean_b = self._mean_b
        return traj


def fidelity_coherent(rho: np.ndarray, gamma: complex) -> float:
    """<gamma|rho|gamma> against the truncated coherent vector."""
    c = coherent_vector(gamma, rho.shape[0])
    return float((c.conj() @ rho @ c).real)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) sum |eigenvalues(a - b)| for Hermitian a, b."""
    if a.shape != b.shape:
        raise InvalidDimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def husimi_grid(
    rho: np.ndarray,
    extent: float | tuple[float, float, float, float] = 5.0,
    resolution: int | tuple[int, int] = 201,
) -> HusimiGrid:
    """Husimi function Q(x, y) = <gamma|rho|gamma>/pi at gamma = x + iy.

    ``extent`` is either a half-width (symmetric window) or an explicit
    (x_min, x_max, y_min, y_max); ``resolution`` a point count per axis or a
    pair (n_x, n_y). Q is bounded by 1/pi and integrates to 1 over the
    whole plane.
    """
    if np.isscalar(extent):
        e = float(extent)
        window = (-e, e, -e, e)
    else:
        window = tuple(float(v) for v in extent)
    if isinstance(resolution, (int, np.integer)):
        n_x = n_y = int(resolution)
    else:
        n_x, n_y = (int(v) for v in resolution)
    if n_x < 2 or n_y < 2:
        raise InvalidDimensionError("husimi grid needs at least 2 points per axis")

    d = rho.shape[0]
    xs = np.linspace(window[0], window[1], n_x)
    ys = np.linspace(window[2], window[3], n_y)
    gx, gy = np.meshgrid(xs, ys)
    gamma = (gx + 1j * gy).ravel()

    # Coherent amplitudes for every grid point at once, by running product.
    mat = np.empty((gamma.size, d), dtype=complex)
    mat[:, 0] = 1.0
    for n in range(1, d):
        mat[:, n] = mat[:, n - 1] * gamma / np.sqrt(n)
    mat *= np.exp(-0.5 * np.abs(gamma) ** 2)[:, None]

    q = np.einsum("gi,ij,gj->g", mat.conj(), rho, mat).real / np.pi
    values = q.reshape(n_y, n_x)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return HusimiGrid(x=xs, y=ys, values=values, mass=float(values.sum() * cell))
