"""Scalar observables, per-step trajectories and phase-space views of a field state.

All functions take a dense d x d density matrix; the one-state functions
reject a ragged sequence or any other shape with ``InvalidDimensionError``,
and a state whose entries are not numbers or not finite with
``ConfigValidationError`` (the recorder, which runs every step, does not
check). The quadratures are X = (b + b^dag)/2 and Y = (b - b^dag)/(2i), so
the vacuum has var X = var Y = 1/4. Expectation values of b^dag b, b and b^2
are sums over the diagonals 0, -1 and -2 of rho, weighted by arange(d) and
by the ``linear`` and ``two-boson`` bands of ``fockcore.model_band``.

``TrajectoryRecorder`` is the one reduction of a state to its scalar
observables, and keeps it cheap per step: each step appends the next row,
copying the three diagonals into a fixed buffer of at most ``_CHUNK`` rows
with one gather and taking the purity; a full buffer is reduced column-wise
to the observables of all its states at once. Before that reduction
overwrites them, the buffer's diagonals 0 are summed into traces, and the
largest trace drift |Re tr - 1| + |Im tr| is kept for the run's
diagnostics. A recorder given a frame rate records states held in the
engines' co-rotating frame: it turns each row's diagonals -1 and -2 back to
the lab frame before the reduction, which is ``_turned`` on those entries.
Reading ``records`` reduces the rows still pending, so every row recorded so
far is complete whenever the table is read. A one-state function is a
one-row record: it reads its field of the row its state records, so a
recorded row equals the one-state functions bit for bit.

``husimi_grids`` evaluates Q of a list of states on blocks of grid rows: each
block's coherent-amplitude table is built once, in one pass, for all the
states, and Q = <gamma|rho|gamma>/pi of every point in the block takes one
matrix product with each rho. ``husimi_grid`` is that loop over one state.
The loop is ``_husimi_rows``, which yields each block's Q rows of every
state: ``husimi_grids`` fills its grids from them, and the CLI's ``husimi``
command writes them to its files as they come.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValidationError, InvalidDimensionError, check_integer, check_number
from .fockcore import coherent_vector, model_band

# Largest coherent-amplitude table (resolution^2 x dim complex entries) that
# husimi_grid will allocate, in bytes.
HUSIMI_MAX_BYTES = 1 << 30

# Amplitude table _husimi_rows builds per block of grid rows, in bytes. Q's
# last bits depend on the block's width through the BLAS product, so a new
# value moves the bytes of the CLI's Husimi files.
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


def _row(rho: np.ndarray) -> np.record:
    """The row a recorder records of one checked state, cast to complex128 (a real,
    integer or complex64 state casts exactly): what every one-state function reads."""
    _check_state(rho)
    recorder = TrajectoryRecorder(0, 0.0)
    recorder.record(np.asarray(rho, dtype=complex))
    return recorder.records[0]


def ground_population(rho: np.ndarray) -> float:
    """<0|rho|0>, the survival probability of the empty mode."""
    return float(_row(rho).p00)


def mean_photon(rho: np.ndarray) -> float:
    """<b^dag b>."""
    return float(_row(rho).mean_n)


def purity(rho: np.ndarray) -> float:
    """Tr rho^2 of the state cast to complex128, by ``_purity``."""
    return float(_row(rho).purity)


def _purity(rho: np.ndarray) -> float:
    """Tr rho^2, computed as the squared Frobenius norm (rho is Hermitian); unchecked."""
    return float(np.vdot(rho, rho).real)


def trajectory_point(rho: np.ndarray) -> complex:
    """<b>, the phase-space centroid of the state."""
    return complex(_row(rho).mean_b)


def quadrature_variances(rho: np.ndarray) -> tuple[float, float]:
    """(var X, var Y); equals (1/4, 1/4) for the vacuum and any coherent state."""
    row = _row(rho)
    return float(row.var_x), float(row.var_y)


_TRAJECTORY_DTYPE = np.dtype([
    ("step", np.int64), ("t", float), ("p00", float), ("mean_n", float),
    ("purity", float), ("mean_b", complex), ("var_x", float), ("var_y", float),
])

# Most rows the recorder gathers before it reduces them: its buffer is a fixed
# _CHUNK x (3d - 3) complex entries at most, whatever the number of steps.
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
    takes ``_purity`` of rho into that row and copies the diagonals 0, -1 and
    -2 of rho, in that order, into a pending buffer with one gather. The
    buffer holds ``min(_CHUNK, steps + 1)`` rows; ``_build`` sizes it, with its
    flat index and weights, from the first state. The pending rows are always
    one contiguous range, so a full buffer is reduced column-wise when the
    next row comes: p00 is copied out, each row is turned back to the lab
    frame, and the weighted sums and the variances are written into the
    table's column slices. Reading ``records`` first reduces the rows still
    pending, so every row recorded so far is complete whenever the table is
    read.

    The reduction works in place on the pending rows. A held complex plane,
    filled with 1 on diagonal 0 and with each row's turns (below) on the
    diagonals -1 and -2, multiplies them first. A held real plane, arange(d)
    and then ones, scales their real parts, and diagonal 0 is summed into
    <b^dag b>. The complex plane, refilled with zeros and the ``linear`` and
    ``two-boson`` bands, scales the rows again, and the diagonals -1 and -2
    are summed into <b> and <b^2>. Every product is one flat run over operands
    of one shape and type: none casts, broadcasts, buffers a strided operand
    or allocates a block, and the plane's fills are copies. <b^dag b> and <b>
    are summed straight into the table's column slices, and the variances
    0.25 (1 + 2 <b^dag b> +- 2 Re<b^2>) - (Re<b>)^2 or (Im<b>)^2 are column
    arithmetic, each square taken as x * x.

    ``max_trace_drift`` is the largest |Re tr - 1| + |Im tr| over the rows
    reduced so far, so over every row once ``records`` is read. Each reduction
    first sums the buffer's diagonals 0 by one strided ``np.add.reduce``, which
    gives each state's ``rho.trace()`` bit for bit.

    The state of row j may be held in a frame turning at ``rate`` per unit
    time and per quantum, D(t) = diag(e^{i rate t n}) at t = j dt: the turn
    multiplies the entries of diagonals -1 and -2 by e^{i phi_j} and
    e^{2i phi_j} (phi_j = rate t), the factors and operand order of
    ``_turned``, so a row equals the one-state functions of the lab-frame
    state bit for bit. Diagonal 0 and the purity are the same in either
    frame. The default rate 0 turns by exactly 1 + 0j and records lab-frame
    states.
    """

    def __init__(self, steps: int, dt: float, rate: float = 0.0):
        self._table = np.recarray(steps + 1, dtype=_TRAJECTORY_DTYPE)
        self._columns = self._table.view(np.ndarray)  # plain field views, no recarray lookups
        self._purities = self._columns["purity"]
        self._dt, self._rate = dt, rate
        self._height = min(_CHUNK, steps + 1)
        self._done = self._next = 0  # rows _done..._next - 1 are pending, those before reduced
        self.max_trace_drift = 0.0

    def _build(self, d: int) -> None:
        """The flat positions of the diagonals 0, -1 and -2 in ``rho.ravel()``, their
        weights and the held pending buffer and planes, for d x d states."""
        n = np.arange(d)
        self._index = np.concatenate([n * (d + 1), n[1:] * (d + 1) - 1, n[2:] * (d + 1) - 2])
        self._cuts = (d, 2 * d - 1)
        shape = (self._height, self._index.size)
        self._weights_n = np.ones(shape)
        self._weights_n[:, :d] = n
        self._weights_b = np.concatenate(
            [np.zeros(d), model_band("linear", d), model_band("two-boson", d)], dtype=complex)
        self._plane, self._pending = np.empty((2, *shape), dtype=complex)

    @property
    def records(self) -> np.recarray:
        self._flush()
        return self._table

    def record(self, rho: np.ndarray) -> float:
        """Append the next row and return its purity; a full pending buffer is reduced first."""
        if self._next == 0:
            self._build(rho.shape[0])
        elif self._next - self._done == self._height:
            self._flush()
        p = self._purities[self._next] = _purity(rho)
        self._pending[self._next - self._done] = rho.ravel()[self._index]
        self._next += 1
        return p

    def _flush(self) -> None:
        if self._next == self._done:
            return
        k, rows, (d, low) = self._next - self._done, slice(self._done, self._next), self._cuts
        pending, plane = self._pending[:k], self._plane[:k]
        # Diagonal 0 is read before the reduction overwrites the rows.
        traces = np.add.reduce(pending[:, :d], axis=1)
        drift = float((np.abs(traces.real - 1.0) + np.abs(traces.imag)).max())
        self.max_trace_drift = max(self.max_trace_drift, drift)
        cols = self._columns
        cols["p00"][rows] = pending[:, 0].real
        cols["step"][rows] = range(self._done, self._next)
        cols["t"][rows] = cols["step"][rows] * self._dt
        turns = _turns(self._rate * cols["t"][rows], _LOWER_OFFSETS)
        plane[:, :d] = 1.0
        plane[:, d:low] = turns[:, :1]
        plane[:, low:] = turns[:, 1:]
        np.multiply(plane, pending, out=pending)
        mean_n, mean_b = cols["mean_n"][rows], cols["mean_b"][rows]
        np.multiply(self._weights_n[:k], pending.real, out=pending.real)
        np.sum(pending.real[:, :d], axis=1, out=mean_n)
        np.copyto(plane, self._weights_b)
        np.multiply(plane, pending, out=pending)
        np.sum(pending[:, d:low], axis=1, out=mean_b)
        mean_bb = np.sum(pending[:, low:], axis=1)
        spread, twice_bb = 1.0 + 2.0 * mean_n, 2.0 * mean_bb.real
        cols["var_x"][rows] = 0.25 * (spread + twice_bb) - mean_b.real * mean_b.real
        cols["var_y"][rows] = 0.25 * (spread - twice_bb) - mean_b.imag * mean_b.imag
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

    ``extent`` must be finite and > 0, ``resolution`` a whole number >= 2 and
    ``d`` an integer >= 1.
    A window whose resolution^2 x d x 16-byte amplitude table exceeds
    ``HUSIMI_MAX_BYTES``, or that is too wide for d, raises
    ``ConfigValidationError``: a value the
    grid forms would overflow to inf, and Q or the mass to NaN. Those values
    are the squared span (2 * extent)^2, which bounds |gamma|^2 and the cell
    area, and the running product gamma^n / sqrt((n-1)!) (before its division
    by sqrt(n)) at the grid corner |gamma| = sqrt(2) * extent.
    """
    check_number("husimi extent", extent, ConfigValidationError, positive=True)
    check_integer("dim", d, 1, InvalidDimensionError)
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
    size = np.abs(gamma)
    out *= np.exp(-0.5 * (size * size))
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
    of different dims raise ``InvalidDimensionError``. An empty list gives []
    once its window passes ``husimi_window`` at dim 1.
    """
    try:
        states = list(states)
    except TypeError:  # not a collection
        raise InvalidDimensionError(f"states: must be a list of states, got {states!r}") from None
    dims = {_check_state(rho) for rho in states}
    if len(dims) > 1:
        raise InvalidDimensionError(f"states of different dims {sorted(dims)}")
    d = dims.pop() if dims else 1  # no states: the window is still checked
    e, points = husimi_window(extent, resolution, d)
    if not states:
        return []
    xs = np.linspace(-e, e, points)
    values = [np.empty((points, points)) for _ in states]
    # A state may be a nested list, which has no shape.
    for start, rows in _husimi_rows([np.asarray(rho) for rho in states], xs):
        for grid, block in zip(values, rows):
            grid[start:start + len(block)] = block
    cell = (xs[1] - xs[0]) * (xs[1] - xs[0])
    return [HusimiGrid(x=xs.copy(), y=xs.copy(), values=grid, mass=float(grid.sum() * cell))
            for grid in values]


def _husimi_block_rows(d: int, points: int) -> int:
    """Grid rows per block of ``_husimi_rows``: as many as fit ``_HUSIMI_BLOCK_BYTES``
    of amplitude table, at least one."""
    return min(points, max(1, _HUSIMI_BLOCK_BYTES // (16 * d * points)))


def _husimi_rows(states: list[np.ndarray], xs: np.ndarray):
    """Q of each d x d array of ``states`` over the grid gamma = x + iy, x and y in ``xs``,
    one block of y-rows at a time; unchecked.

    Yields (start, rows) for each block: ``rows[k]`` is Q of states[k] at y =
    xs[start:start + rows.shape[1]], one line of ``xs.size`` points per y, in
    a buffer the next yield overwrites. A block has ``_husimi_block_rows``
    rows; its table is built once for all the states, and each state's Q
    takes one matrix product with it.
    """
    points, d = xs.size, states[0].shape[0]
    height = _husimi_block_rows(d, points)
    table, product = np.empty((2, d * height * points), dtype=complex)
    q = np.empty((len(states), height * points))
    for start in range(0, points, height):
        ys = xs[start:start + height]
        size, cells = d * ys.size * points, q[:, :ys.size * points]
        amp = _coherent_rows(xs, ys, table[:size].reshape(d, -1))
        for rho, out in zip(states, cells):
            # Re(conj(a) * b) = a.re * b.re + a.im * b.im: multiply the interleaved
            # float views, sum down each column, then add each point's two parts.
            parts = np.matmul(rho, amp, out=product[:size].reshape(d, -1)).view(float)
            parts *= amp.view(float)
            sums = parts.sum(axis=0)
            np.add(sums[0::2], sums[1::2], out=out)
            out /= np.pi
        yield start, cells.reshape(len(states), ys.size, points)
