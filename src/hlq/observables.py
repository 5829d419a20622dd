"""Scalar observables, per-step trajectories and phase-space views of a field state.

All functions take a dense d x d density matrix; the one-state functions
reject a ragged sequence or any other shape with ``InvalidDimensionError``,
and a state whose entries are not numbers or not finite with
``ConfigValidationError`` (the recorder and ``purity``, which run every step,
do not check). The quadratures are
X = (b + b^dag)/2 and Y = (b - b^dag)/(2i), so the vacuum has
var X = var Y = 1/4. Expectation values of b^dag b, b and b^2 are sums over
the diagonals 0, -1 and -2 of rho, weighted by arange(d) and by the
``linear`` and ``two-boson`` bands of ``fockcore.model_band``;
``_Diagonals`` states those positions and weights once.

``TrajectoryRecorder`` keeps per-step recording cheap: each step appends the
next row, copying the three diagonals into a fixed buffer of ``_CHUNK`` rows
with one gather and taking the purity; a full chunk is reduced column-wise
to the moments of all its states at once. Before that reduction overwrites
them, the chunk's diagonals 0 are summed into traces, and the largest trace
drift |Re tr - 1| + |Im tr| is kept for the run's diagnostics. A recorder
given a frame rate records states held in the engines' co-rotating frame:
it turns each row's diagonals -1 and -2 back to the lab frame before the
reduction, which is ``_turned`` on those entries. Reading
``records`` reduces the rows still pending, so every row recorded so far is
complete whenever the table is read. The one-state functions below are the
same reduction on one row, so a recorded row equals them bit for bit.

``husimi_grids`` evaluates Q of a list of states on blocks of grid rows: each
block's coherent-amplitude table is built once, in one pass, for all the
states, and Q = <gamma|rho|gamma>/pi of every point in the block takes one
matrix product with each rho. ``husimi_grid`` is that loop over one state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValidationError, InvalidDimensionError, check_number
from .fockcore import coherent_vector, model_band

# Largest coherent-amplitude table (resolution^2 x dim complex entries) that
# husimi_grid will allocate, in bytes.
HUSIMI_MAX_BYTES = 1 << 30

# Amplitude table husimi_grid evaluates per block of grid rows, in bytes.
_HUSIMI_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class HusimiGrid:
    """Husimi function sampled on a square grid of coherent labels.

    ``values[iy, ix]`` is Q at gamma = x[ix] + i y[iy]; ``mass`` is the
    Riemann sum of Q over the window (close to 1 when the window holds the
    state).
    """

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    mass: float


def _check_state(rho: np.ndarray, name: str = "rho") -> int:
    """d of a d x d state; a ragged sequence or any other shape raises
    InvalidDimensionError, and entries that are not numbers (a dtype outside the
    kinds b, i, u, f and c) or not finite raise ConfigValidationError."""
    try:
        state = np.asarray(rho)
    except ValueError:  # a ragged nested sequence
        raise InvalidDimensionError("state must be a square 2-D array, got a ragged sequence"
                                    ) from None
    shape = state.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidDimensionError(f"state must be a square 2-D array, got shape {shape}")
    if state.dtype.kind not in "biufc":
        raise ConfigValidationError(f"{name}: must be an array of numbers, got dtype {state.dtype}")
    if not np.isfinite(state).all():
        raise ConfigValidationError(f"{name}: must be finite, got a state with a non-finite entry")
    return shape[0]


def ground_population(rho: np.ndarray) -> float:
    """<0|rho|0>, the survival probability of the empty mode."""
    _check_state(rho)
    return float(np.asarray(rho)[0, 0].real)


def mean_photon(rho: np.ndarray) -> float:
    """<b^dag b>."""
    return _moments(rho)[0]


def purity(rho: np.ndarray) -> float:
    """Tr rho^2, computed as the squared Frobenius norm (rho is Hermitian)."""
    return float(np.vdot(rho, rho).real)


def trajectory_point(rho: np.ndarray) -> complex:
    """<b>, the phase-space centroid of the state."""
    return _moments(rho)[1]


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
    return _variances(*_moments(rho))


class _Diagonals:
    """Flat positions and weights of the diagonals 0, -1 and -2 of a d x d matrix.

    ``index`` picks the three diagonals, in that order, out of ``rho.ravel()``
    as one row of ``index.size`` entries (3d - 3 for d >= 2). ``moments``
    reduces a stack of up to ``rows`` such complex rows, one state per row, to
    the columns <b^dag b>, <b> and <b^2>: each is the sum along the row of one
    diagonal times its weights, arange(d) for the real part of diagonal 0 and
    the ``linear`` and ``two-boson`` bands for the diagonals -1 and -2.

    The weights are a full (rows, index.size) real plane, arange(d) and then
    ones, which scales the real parts in place, and one complex row, zeros and
    then the bands, copied into a held complex plane of the same shape, which
    scales the whole rows in place after diagonal 0 is summed. Rows of states
    held in the engines' co-rotating frame are first turned back to the lab
    frame: the same plane, filled with 1 on diagonal 0 and with each row's
    ``turns`` e^{i phi} and e^{2i phi} on the diagonals -1 and -2, multiplies
    them, with the factors and operand order of ``_turned``. Every product is
    then one flat run over operands of one shape and type: none casts,
    broadcasts, buffers a strided operand or allocates a block, and the
    plane's fills are copies that allocate nothing. The returned columns are
    views of held buffers, valid until the next call.
    """

    def __init__(self, d: int, rows: int = 1):
        n = np.arange(d)
        self.index = np.concatenate([n * (d + 1), n[1:] * (d + 1) - 1, n[2:] * (d + 1) - 2])
        self.d = d
        self._cuts = (d, 2 * d - 1)
        self._weights_n = np.ones((rows, self.index.size))
        self._weights_n[:, :d] = n
        self._weights_b = np.zeros(self.index.size, dtype=complex)
        self._weights_b[d:2 * d - 1] = model_band("linear", d)
        self._weights_b[2 * d - 1:] = model_band("two-boson", d)
        self._plane = np.empty((rows, self.index.size), dtype=complex)
        self._sums = (np.empty(rows), np.empty(rows, dtype=complex), np.empty(rows, dtype=complex))

    def moments(self, rows: np.ndarray, turns: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three columns of a contiguous complex128 stack ``rows``, which is overwritten.

        ``turns``, each row's (e^{i phi}, e^{2i phi}), first turns rows held in
        a frame back to the lab frame.
        """
        k, d = rows.shape[0], self.d
        mean_n, mean_b, mean_bb = (total[:k] for total in self._sums)
        plane = self._plane[:k]
        if turns is not None:
            plane[:, :d] = 1.0
            plane[:, d:2 * d - 1] = turns[:, :1]
            plane[:, 2 * d - 1:] = turns[:, 1:]
            np.multiply(plane, rows, out=rows)
        np.multiply(self._weights_n[:k], rows.real, out=rows.real)
        np.sum(rows.real[:, :d], axis=1, out=mean_n)
        np.copyto(plane, self._weights_b)
        np.multiply(plane, rows, out=rows)
        _, low1, low2 = np.split(rows, self._cuts, axis=1)
        np.sum(low1, axis=1, out=mean_b)
        np.sum(low2, axis=1, out=mean_bb)
        return mean_n, mean_b, mean_bb


def _moments(rho: np.ndarray) -> tuple[float, complex, complex]:
    """(<b^dag b>, <b>, <b^2>) of one state: the recorder's reduction on one row."""
    diagonals = _Diagonals(_check_state(rho))
    # A complex128 copy, which the in-place products need; a real or complex64
    # state's entries cast to it exactly.
    row = np.asarray(np.ravel(rho)[diagonals.index], dtype=complex)
    mean_n, mean_b, mean_bb = diagonals.moments(row[None])
    return float(mean_n[0]), complex(mean_b[0]), complex(mean_bb[0])


_TRAJECTORY_DTYPE = np.dtype([
    ("step", np.int64), ("t", float), ("p00", float), ("mean_n", float),
    ("purity", float), ("mean_b", complex), ("var_x", float), ("var_y", float),
])

# Rows the recorder gathers before it reduces them: its buffer is a fixed
# _CHUNK x (3d - 3) complex entries, whatever the number of steps.
_CHUNK = 64

# Offsets m - n of the diagonals -1 and -2, which the recorder turns.
_LOWER_OFFSETS = np.arange(1, 3)


def _turns(angles: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """e^{i angle x} for each angle (a row) and each x of offsets (a column): the
    turns of the frame's diagonals (x = m - n) or of its levels (x = n)."""
    return np.exp(1j * np.multiply.outer(angles, offsets))


def _turned(rho: np.ndarray, angle: float) -> np.ndarray:
    """D rho D^dag for D = diag(e^{i angle n}): entry [m, n] of rho times
    e^{i angle (m - n)}, by one product with a phase plane. A new array."""
    d = rho.shape[0]
    turns = _turns(angle, np.arange(1 - d, d))
    # Entry [m, n] of the view is turns[d - 1 + m - n], the turn of offset m - n.
    s = turns.itemsize
    plane = np.ndarray((d, d), turns.dtype, turns, (d - 1) * s, (s, -s)).copy()
    return np.multiply(plane, rho, out=plane)


class TrajectoryRecorder:
    """Standard observables of one state per step, written in place into one table.

    ``records`` is the ``np.recarray`` a run returns. It is allocated once,
    one row per step (row 0 is the initial state), so no copy is made when the
    run ends. Both ``records.p00`` (a column) and ``records[j].p00`` (one row)
    work.

    ``record(rho)`` appends the next row, 0 first, and returns its purity: it
    takes the purity of rho into that row and copies the diagonals 0, -1 and
    -2 of rho into a pending buffer of ``_CHUNK`` rows with one gather; the
    buffer is sized from the first state. The pending rows are always one
    contiguous range, so a full buffer is reduced column-wise
    (``_Diagonals.moments``, in place, after p00 is copied out) when the next
    row comes, and its rows' step, t, p00, mean_n and mean_b are written as
    whole column slices; var_x and var_y are taken per state from those
    moments. Reading ``records`` first reduces the rows still pending, so
    every row recorded so far is complete whenever the table is read.

    ``max_trace_drift`` is the largest |Re tr - 1| + |Im tr| over the rows
    reduced so far, so over every row once ``records`` is read. Each reduction
    first sums the chunk's diagonals 0 by one strided ``np.add.reduce``, which
    gives each state's ``rho.trace()`` bit for bit.

    The state of row j may be held in a frame turning at ``rate`` per unit
    time and per quantum, D(t) = diag(e^{i rate t n}) at t = j dt: before the
    reduction, ``_Diagonals.moments`` multiplies the entries of diagonals -1
    and -2 by e^{i phi_j} and e^{2i phi_j} (phi_j = rate t), the factors and
    operand order of ``_turned``, so a row equals the one-state functions of
    the lab-frame state bit for bit. Diagonal 0 and the purity are the same in
    either frame. The default rate 0 records lab-frame states.
    """

    def __init__(self, steps: int, dt: float, rate: float = 0.0):
        self._table = np.recarray(steps + 1, dtype=_TRAJECTORY_DTYPE)
        self._columns = self._table.view(np.ndarray)  # plain field views, no recarray lookups
        self._purity = self._columns["purity"]
        self._dt, self._rate = dt, rate
        self._diagonals: _Diagonals | None = None
        self._pending: np.ndarray | None = None
        self._done = 0  # rows reduced into the table; rows _done..._next - 1 are pending
        self._next = 0
        self.max_trace_drift = 0.0

    @property
    def records(self) -> np.recarray:
        self._flush()
        return self._table

    def record(self, rho: np.ndarray) -> float:
        """Append the next row and return its purity; a full pending buffer is reduced first."""
        if self._diagonals is None:
            self._diagonals = _Diagonals(rho.shape[0], _CHUNK)
            self._pending = np.empty((_CHUNK, self._diagonals.index.size), dtype=complex)
        elif self._next - self._done == _CHUNK:
            self._flush()
        p = self._purity[self._next] = purity(rho)
        self._pending[self._next - self._done] = rho.ravel()[self._diagonals.index]
        self._next += 1
        return p

    def _flush(self) -> None:
        if self._next == self._done:
            return
        rows = slice(self._done, self._next)
        pending = self._pending[:self._next - self._done]
        # Diagonal 0 is read before the reduction overwrites the rows.
        traces = np.add.reduce(pending[:, :self._diagonals.d], axis=1)
        drift = float((np.abs(traces.real - 1.0) + np.abs(traces.imag)).max())
        self.max_trace_drift = max(self.max_trace_drift, drift)
        cols = self._columns
        cols["p00"][rows] = pending[:, 0].real
        cols["step"][rows] = range(self._done, self._next)
        cols["t"][rows] = cols["step"][rows] * self._dt
        turns = _turns(self._rate * cols["t"][rows], _LOWER_OFFSETS)
        mean_n, mean_b, mean_bb = self._diagonals.moments(pending, turns)
        cols["mean_n"][rows] = mean_n
        cols["mean_b"][rows] = mean_b
        cols["var_x"][rows], cols["var_y"][rows] = zip(*map(
            _variances, mean_n.tolist(), mean_b.tolist(), mean_bb.tolist()))
        self._done = self._next


def fidelity_coherent(rho: np.ndarray, gamma: complex) -> float:
    """<gamma|rho|gamma> against the truncated coherent vector."""
    c = coherent_vector(gamma, _check_state(rho))
    return float((c.conj() @ rho @ c).real)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) sum |eigenvalues(a - b)| for Hermitian a, b."""
    d = _check_state(a, "a")
    if _check_state(b, "b") != d:
        raise InvalidDimensionError(f"shape mismatch {(d, d)} vs {np.shape(b)}")
    # Boolean and integer states are cast first: numpy subtracts no booleans, and their
    # Hermitian parts are not integers.
    a, b = (x if x.dtype.kind in "fc" else x.astype(float) for x in map(np.asarray, (a, b)))
    diff = np.subtract(a, b)[None]
    return float(_trace_distances(diff, np.empty_like(diff))[0])


def _trace_distances(diffs: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``trace_distance`` of each pair a, b whose a - b is a layer of the (n, d, d) ``diffs``.

    Both arrays are overwritten: the layers become their Hermitian parts
    0.5 (x + x^dag), which one ``eigvalsh`` call takes, each with one layer's
    bits. The layers must be finite; nothing here checks them.
    """
    parts = _hermitian_parts(diffs, scratch, diffs)
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(parts)), axis=1)


def _hermitian_parts(x: np.ndarray, adj: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0.5 (x + x^dag) of each layer of the (n, d, d) ``x``, written into ``out``.

    ``adj`` is left holding x^dag; ``out`` may be ``x``.
    """
    # A binary call with a transposed operand would buffer a copy of it.
    np.copyto(adj, x.transpose(0, 2, 1))
    np.conjugate(adj, out=adj)
    np.add(x, adj, out=out)
    return np.multiply(0.5, out, out=out)


def husimi_window(extent: float, resolution: int, d: int) -> tuple[float, int]:
    """Checked (extent, points) of a square Husimi window for a dim-d state.

    ``extent`` must be finite and > 0 and ``resolution`` a whole number >= 2.
    A window whose resolution^2 x d x 16-byte amplitude table exceeds
    ``HUSIMI_MAX_BYTES``, or that is too wide for d, raises
    ``ConfigValidationError``: a value the
    grid forms would overflow to inf, and Q or the mass to NaN. Those values
    are the squared span (2 * extent)^2, which bounds |gamma|^2 and the cell
    area, and the running product gamma^n / sqrt((n-1)!) (before its division
    by sqrt(n)) at the grid corner |gamma| = sqrt(2) * extent.
    """
    check_number("husimi extent", extent, ConfigValidationError, positive=True)
    e = float(extent)
    try:
        points = int(resolution)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or inf
        points = 0
    if points != resolution or points < 2:
        raise InvalidDimensionError(
            f"husimi grid needs a whole number of at least 2 points per axis, "
            f"got {resolution!r}")
    nbytes = points * points * d * 16
    if nbytes > HUSIMI_MAX_BYTES:
        raise ConfigValidationError(
            f"husimi grid {points} x {points} at dim {d} needs {nbytes} bytes, "
            f"over the {HUSIMI_MAX_BYTES}-byte limit"
        )
    log_corner = 0.5 * math.log(2.0) + math.log(e)
    logs = [n * log_corner - 0.5 * math.lgamma(n) for n in range(1, d)]
    if max([2.0 * math.log(2.0 * e), *logs]) >= math.log(sys.float_info.max):
        raise ConfigValidationError(
            f"husimi extent {e!r} is too wide for dim {d}: the grid's values "
            f"would overflow"
        )
    return e, points


def _coherent_rows(xs: np.ndarray, ys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Coherent amplitudes <n|gamma> of the grid rows gamma = x + iy, written into ``out``.

    ``out`` is d x (ys.size * xs.size): column g holds the truncated coherent
    vector of the g-th point, the points running over x within each y. Each
    point gets the same arithmetic whichever rows share a call: the running
    product gamma^n / sqrt(n!), then the factor exp(-|gamma|^2 / 2).
    """
    gamma = (xs + 1j * ys[:, None]).ravel()
    out[0] = 1.0
    for n in range(1, out.shape[0]):
        np.multiply(out[n - 1], gamma, out=out[n])
        np.divide(out[n], np.sqrt(n), out=out[n])
    out *= np.exp(-0.5 * np.abs(gamma) ** 2)
    return out


def husimi_grid(rho: np.ndarray, extent: float = 5.0, resolution: int = 201) -> HusimiGrid:
    """Husimi function Q(x, y) = <gamma|rho|gamma>/pi at gamma = x + iy.

    ``resolution`` points per axis over [-extent, extent], a window checked by
    ``husimi_window``. Q is bounded by 1/pi and integrates to 1 over the plane.
    It is ``husimi_grids`` of the one state: its peak is about ``values`` plus
    one block of amplitude table.
    """
    return husimi_grids([rho], extent, resolution)[0]


def husimi_grids(states, extent: float = 5.0, resolution: int = 201) -> list[HusimiGrid]:
    """``husimi_grid`` of each of a list of d x d states, all over one window.

    Q is evaluated on blocks of y-rows, as many as fit ``_HUSIMI_BLOCK_BYTES``
    of amplitude table (at least one). Each block's table A is built once, in
    one pass, for all the states, and each state's Q = Re sum_n conj(A) *
    (rho @ A) / pi takes one matrix product, the same product whichever states
    share the call. So the peak is about the states' ``values`` plus one block;
    the cap still counts the full resolution^2 x dim x 16-byte table. States
    of different dims raise ``InvalidDimensionError``.
    """
    states = list(states)
    dims = {_check_state(rho) for rho in states}
    if len(dims) > 1:
        raise InvalidDimensionError(f"states of different dims {sorted(dims)}")
    if not states:
        return []
    d = dims.pop()
    e, points = husimi_window(extent, resolution, d)
    xs = np.linspace(-e, e, points)
    values = [np.empty((points, points)) for _ in states]
    rows = min(points, max(1, _HUSIMI_BLOCK_BYTES // (16 * d * points)))
    table, product = np.empty((2, d * rows * points), dtype=complex)
    for start in range(0, points, rows):
        ys = xs[start:start + rows]
        size = d * ys.size * points
        amp = _coherent_rows(xs, ys, table[:size].reshape(d, -1))
        for rho, grid in zip(states, values):
            # Re(conj(a) * b) = a.re * b.re + a.im * b.im: multiply the interleaved
            # float views, sum down each column, then add each point's two parts.
            parts = np.matmul(rho, amp, out=product[:size].reshape(d, -1)).view(float)
            parts *= amp.view(float)
            sums = parts.sum(axis=0)
            grid[start:start + ys.size] = ((sums[0::2] + sums[1::2]) / np.pi).reshape(ys.size, -1)
    cell = (xs[1] - xs[0]) * (xs[1] - xs[0])
    return [HusimiGrid(x=xs.copy(), y=xs.copy(), values=grid, mass=float(grid.sum() * cell))
            for grid in values]
