"""Command-line surface: config parsing, orchestration, bit-stable CSV emission.

Subcommands
-----------
run       one engine over one schedule -> timeseries.csv + final_state.csv
compare   both engines in lockstep     -> compare.csv
converge  dt-halving agreement study   -> converge.csv
husimi    phase-space snapshots        -> husimi_step<j>.csv (+ trajectory.csv)
sweep     re-run over a parameter list -> per-value subdirectories

With ``engine = both``, ``run`` and each ``sweep`` value step the two engines
together in one lockstep run and write ``timeseries_<engine>.csv`` and
``final_state_<engine>.csv`` per engine; a failure names the earliest step at
which either engine fails. That run steps and checks the engines as
``compare``'s does, with one difference: its hidden lane runs deep checks,
and ``compare``'s does not. The standard lane has no guard in either and runs
only the per-step checks, since psi psi^dag passes the deep checks by
construction. ``husimi``
snapshots the hidden engine when ``engine = both``. ``converge`` writes the
distances of ``engines.converge`` and each ratio of successive ones as the
IEEE quotient: ``nan`` for 0/0, where the engines agree exactly, ``inf``
for x/0.

Every subcommand takes one config-file path and an optional ``--out-dir``
(falling back to the HLQ_OUT_DIR environment variable, then the working
directory), writes a ``manifest.json`` naming every emitted file with its
SHA-256, taken as the file is written, and prints the paths it wrote.
Numbers are written as CPython's ``%.12g`` (``%d`` for integers) writes
them, by one exact vectorised formatter that leaves to ``%`` only the cells
it cannot place (``_format_cells``); identical config and schedule give
byte-identical files.

Exit status: 0 success (``--help`` and ``--version`` included), 1
command-line usage, config or validation problem (a Husimi window too wide or
too large for ``dim`` and a run over the run-size budget included) or out of
memory, 2 numerical failure (truncation overflow, non-finite state), 3 I/O
failure.

Config files are flat ``key = value`` lines; ``#`` starts a comment. Keys:

    model     linear | two-boson | intensity          (required)
    omega     mode angular frequency                  (required)
    dt        step width, > 0                         (required)
    steps     step count N, >= 1                      (required)
    dim       Fock truncation, default 32
    zeta      |zeta| in [0, 1/2], default 0.5
    eta       complex coupling, default 1 (use j-notation: 0.8+0.3j)
    schedule  uniform | alternating | rotating, default uniform
    engine    hidden | standard | both, default hidden
    initial   vacuum | coherent(<complex>), default vacuum
    phase     operator | coherence, default operator
    outputs   comma list among {timeseries, final}, default both
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .engines import SimConfig, converge, run, run_compare
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    HlqError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from .errors import check_member
from .observables import husimi_grids, husimi_window
from .oracles import ground_state_law


def _complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _word_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# key: (SimConfig field, parser, what the parser expects, manifest echo of the field).
# The parser of ``initial`` reads the amplitude inside ``coherent(...)``.
_KEYS = {
    "model": ("model", str, None, str),
    "omega": ("omega", float, "a number", "%.12g".__mod__),
    "dt": ("dt", float, "a number", "%.12g".__mod__),
    "steps": ("steps", int, "an integer", int),
    "dim": ("dim", int, "an integer", int),
    "zeta": ("zeta_abs", float, "a number", "%.12g".__mod__),
    "eta": ("eta", _complex, "a complex number", str),
    "schedule": ("schedule", str, None, str),
    "engine": ("engine", str, None, str),
    "initial": ("initial", _complex, "a complex number", str),
    "phase": ("phase", str, None, str),
    "outputs": ("outputs", _word_list, None, ",".join),
}
_REQUIRED_KEYS = ("model", "omega", "dt", "steps")


def _convert(key: str, text: str, error):
    """Parse one value of key; a malformed one raises error(message)."""
    _, parse, kind, _ = _KEYS[key]
    try:
        return parse(text)
    except ValueError:
        raise error(f"{key}: cannot parse {text!r} as {kind}")


def parse_config(text: str) -> SimConfig:
    """Parse a flat key-value document into a SimConfig, which checks itself as it is made."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigParseError(lineno, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _KEYS:
            raise ConfigValidationError(
                f"unknown key {key!r} on line {lineno}; known keys: {', '.join(_KEYS)}"
            )
        if key in raw:
            raise ConfigParseError(lineno, f"duplicate key {key!r}")
        if not value:
            raise ConfigParseError(lineno, f"{key}: empty value")
        raw[key] = (value, lineno)

    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigValidationError(f"missing required keys: {', '.join(missing)}")

    kwargs: dict = {}
    for key, (field, *_) in _KEYS.items():
        if key not in raw:
            continue
        value, lineno = raw[key]
        bad_line = partial(ConfigParseError, lineno)
        if key != "initial":
            kwargs[field] = _convert(key, value, bad_line)
        elif value == "vacuum":
            kwargs[field] = value
        elif value.startswith("coherent(") and value.endswith(")"):
            kwargs[field] = "coherent"
            kwargs["gamma0"] = _convert(key, value[9:-1], bad_line)
        else:
            raise ConfigValidationError(
                f"initial: expected 'vacuum' or 'coherent(<amplitude>)', got {value!r}"
            )

    return SimConfig(**kwargs)


# Cells formatted per call of _format_cells: the arrays one chunk needs stay
# near 0.5 MB, however long the table is.
_CSV_CHUNK = 4096
# floor(log10 |x|) over the fast path's 1e-290 < |x| < 1e290, with one to spare
# at each end for log10's rounding.
_E_MIN, _E_MAX = -291, 290


def _byte_words(columns) -> np.ndarray:
    """uint64 words whose little-endian bytes are the given byte columns, byte 0 first."""
    return sum(np.asarray(c, np.uint64) << np.uint64(8 * k) for k, c in enumerate(columns))


@functools.cache
def _layout_tables():
    """The fast path's tables, built on first use. Per exponent e of
    _E_MIN.._E_MAX: 10**(11 - e) correctly rounded (numpy parses decimal text
    as ``float`` does), the digits always shown (the fixed form's integer
    part), the byte of the digit field where the point goes in (16: none),
    the sign word's "0." and zeros (-4 <= e < 0) and the exponent word ("e",
    its sign and two or three digits; e < -4 or e >= 12). Per 4-digit group:
    its digits word and its length with trailing zeros stripped."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    scale = np.array([f"1e{11 - k}" for k in range(_E_MIN, _E_MAX + 1)], dtype=np.float64)
    fixed = (e >= -4) & (e < 12)
    least = np.where(fixed & (e >= 0), e + 1, 1)
    point = np.where(fixed, np.where(e < 0, 16, e + 1), 1)
    # byte 0 is the sign; "0." and -e - 1 zeros follow when -4 <= e < 0
    lead = (fixed & (e < 0))[None, :] & (np.arange(5)[:, None] < 1 - e)
    prefix = _byte_words([0, *(lead * np.array([48, 46, 48, 48, 48])[:, None])])
    size = np.abs(e)
    suffix = _byte_words([101, np.where(e < 0, 45, 43), np.where(size >= 100, 48 + size // 100, 0),
                          48 + size // 10 % 10, 48 + size % 10])
    suffix[fixed] = 0
    # The digits of 0..9999, first one first; uint8 keeps the build's arrays small.
    digit = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    digits = _byte_words(48 + digit)
    length = np.max((digit > 0) * np.arange(1, 5, dtype=np.uint8)[:, None], axis=0).astype(np.intp)
    return scale, least, point, prefix, suffix, digits, length


# Over the 16-byte digit field held in two words, lo (bytes 0-7) and hi
# (8-15): _KEEP_LO[k] and _KEEP_HI[k] keep its first k bytes (k = 0..16), and
# _DOT_LO[k] and _DOT_HI[k] put "." at byte k (none at 16).
_KEEP_LO = np.array([(1 << 8 * min(k, 8)) - 1 for k in range(17)], np.uint64)
_KEEP_HI = np.array([(1 << 8 * max(k - 8, 0)) - 1 for k in range(17)], np.uint64)
_DOT_LO = np.array([46 << 8 * k if k < 8 else 0 for k in range(17)], np.uint64)
_DOT_HI = np.array([46 << 8 * (k - 8) if 8 <= k < 16 else 0 for k in range(17)], np.uint64)
# Bytes of one cell: sign and "0.000", 12 digits and a point, exponent; the
# last byte is left for the writer's separator.
_CELL_BYTES = 32


def _format_cells(columns) -> np.ndarray:
    """The cells of equal-length numeric columns as (rows, columns, 32) uint8:
    cell [i, j] is the text of row i of column j, NUL-padded, byte 31 NUL.

    Each cell's text is exactly CPython's ``"%.12g" % cell``, or ``"%d" %
    cell`` for integers, the same text below 1e12 (DECISIONS.md D4). A cell
    with 1e-290 < |x| < 1e290 takes e = floor(log10 |x|) and the scaled
    significand m = |x| * 10**(11 - e), which is within 2.3e-4 of its exact
    value. When 1e11 <= m < 1e12 - 1/2 and m is within 0.499 of rint(m), the
    12 digits of rint(m) are the ones %.12g prints, and e fixes their layout.
    Zeros take the fast path too. Every other cell goes through ``%`` on its
    own: non-finite values, the extreme exponents, near-ties (about 0.2% of
    random doubles) and integers of magnitude 1e12 or more.
    """
    scale, least, point_at, prefix, suffix, digits, length = _layout_tables()
    rows, width = columns[0].size, len(columns)
    x = np.empty((rows, width))
    deferred = {}  # cell -> its "%d" text, for integers past the fast path
    for j, c in enumerate(columns):
        with np.errstate(invalid="ignore"):  # a float32 signaling NaN is cast to a NaN
            x[:, j] = c
        if c.dtype.kind in "iu":  # the float of an int is >= 1e12 iff the int is
            wide = np.flatnonzero(~(np.abs(x[:, j]) < 1e12))
            deferred.update(zip((wide * width + j).tolist(), map("%d".__mod__, c[wide].tolist())))
            x[wide, j] = np.nan
    x = x.ravel()

    m = np.abs(x)
    fast = (m > 1e-290) & (m < 1e290)
    zero = m == 0.0
    np.putmask(m, ~fast, 1.0)
    e = np.log10(m)
    e = np.floor(e, out=e).astype(np.intp)
    e -= _E_MIN
    m *= scale[e]
    r = np.rint(m)
    fast &= m >= 1e11
    fast &= m < 1e12 - 0.5
    m -= r
    fast &= np.abs(m, out=m) < 0.499
    fast |= zero
    np.putmask(r, ~fast, 1e11)  # keeps every cell's digit groups in range
    # r < 1e12 in three exact 4-digit groups: each quotient is at least 1e-8
    # below the next integer, far more than its rounding.
    high = np.floor(np.divide(r, 1e8, out=m), out=m)
    r -= high * 1e8
    high = high.astype(np.intp)
    mid = np.floor(np.divide(r, 1e4, out=m), out=m)
    r -= mid * 1e4
    mid, low = mid.astype(np.intp), r.astype(np.intp)
    del m, r

    # The 12 digits, bytes 0-7 in lo and 8-11 in hi, cut after the last
    # nonzero one or the integer part, whichever is longer.
    shown = length[low] + 8
    rare = np.flatnonzero(low == 0)
    shown[rare] = np.where(mid[rare] > 0, 4 + length[mid[rare]], length[high[rare]])
    np.maximum(shown, least[e], out=shown)
    lo = digits[high]
    lo |= digits[mid] << np.uint64(32)
    lo &= _KEEP_LO[shown]
    hi = digits[low]
    hi &= _KEEP_HI[shown]
    np.putmask(lo, zero, 48)  # "0": a zero is stored as 1e11 at e = 0
    # The point goes in at byte `point`, moving the bytes from there up one;
    # no point when no digit follows it.
    point = point_at[e]
    np.putmask(point, shown <= point, 16)
    words = np.empty((rows * width, 4), np.uint64)
    np.bitwise_or(prefix[e], np.signbit(x).view(np.uint8) * np.uint8(45), out=words[:, 0])
    kept = lo & _KEEP_LO[point]
    lo ^= kept
    kept |= _DOT_LO[point]
    np.bitwise_or(kept, lo << np.uint64(8), out=words[:, 1])
    kept = hi & _KEEP_HI[point]
    hi ^= kept
    kept |= _DOT_HI[point]
    kept |= lo >> np.uint64(56)
    np.bitwise_or(kept, hi << np.uint64(8), out=words[:, 2])
    np.take(suffix, e, out=words[:, 3])

    cells = words.astype("<u8", copy=False).view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [deferred.get(i) or "%.12g" % v for i, v in zip(slow.tolist(), x[slow].tolist())]
        text = np.array(text, dtype=f"S{_CELL_BYTES}")
        cells[slow] = text.view(np.uint8).reshape(-1, _CELL_BYTES)
    return cells.reshape(rows, width, _CELL_BYTES)


def _text_cells(column) -> np.ndarray:
    """A chunk of a text column as (rows, width) uint8: each cell's UTF-8 bytes,
    NUL-padded, with the last byte left NUL for the writer's separator."""
    text = np.array([s.encode() + b"\0" for s in column.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(column.size, -1)


def _join_row_cells(cells: list[np.ndarray]) -> np.ndarray:
    """One (rows, width) uint8 block of lines from the (rows, width) cell blocks of
    a table's columns: each cell's last byte becomes "," or, in the last column,
    a newline."""
    for c in cells:
        c[:, -1] = 44
    cells[-1][:, -1] = 10
    return np.concatenate(cells, axis=1)


def _table_block(chunk: list[np.ndarray]) -> np.ndarray:
    """The lines of a chunk of table rows, one cell per column, as one (rows,
    width) uint8 block; the chunk's numbers are formatted in one call."""
    text = [c.dtype.kind in "UO" for c in chunk]
    numbers = [c for c, t in zip(chunk, text) if not t]
    numbers = iter(_format_cells(numbers).swapaxes(0, 1) if numbers else ())
    return _join_row_cells([_text_cells(c) if t else next(numbers) for c, t in zip(chunk, text)])


def _write_blocks(path: Path, header: str, blocks) -> str:
    """Write header, then each (rows, width) uint8 block with its NUL bytes
    dropped; return the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(data: bytes) -> None:
            fh.write(data)
            digest.update(data)

        write(header.encode() + b"\n")
        for block in blocks:
            write(block.tobytes().translate(None, b"\0"))
            del block  # before the next block is made
    return digest.hexdigest()


def _write_csv(path: Path, header: str, columns) -> str:
    """Write header, then row i of the table formed by the i-th cell of every
    column; return the file's SHA-256, taken from the bytes as they are written.

    Each column is an array or a list, flattened row-major, so a 2-D array
    contributes its cells in (row, col) order. Text columns (a str array, or
    an object array whose cells are all str) are written as they are; they
    hold no NUL, the padding every cell is dropped of. Every other cell is a
    number: ``_format_cells`` writes it as ``%.12g``, or ``%d`` for an integer,
    the one number format of the CLI. Rows are written ``_CSV_CHUNK`` cells at
    a time, the numbers of a chunk formatted in one call: the table's text is
    never held whole. The Husimi tables go through ``_write_husimi_csv``.
    """
    cols = [np.ravel(c) for c in columns]
    rows = min((c.size for c in cols), default=0)
    step = max(1, _CSV_CHUNK // max(1, len(cols)))
    return _write_blocks(path, header, (_table_block([c[start:min(start + step, rows)]
                                                      for c in cols])
                                        for start in range(0, rows, step)))


def _config_echo(config: SimConfig) -> dict:
    echo = {key: show(getattr(config, field)) for key, (field, _, _, show) in _KEYS.items()}
    if config.initial == "coherent":
        echo["gamma0"] = str(config.gamma0)
    return echo


def _write_manifest(out_dir: Path, command: str, config: SimConfig, fields: dict) -> Path:
    """Write manifest.json: the command, the config echo and the given fields."""
    manifest = {"command": command, "config": _config_echo(config),
                "schedule": config.schedule, **fields}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _finish(out_dir: Path, command: str, config: SimConfig, outputs: dict[str, str],
            extra: dict | None = None) -> int:
    """Write the manifest over outputs (file name -> the SHA-256 its writer took),
    print every path written, return exit status 0."""
    manifest = _write_manifest(out_dir, command, config, {"outputs": outputs, **(extra or {})})
    for path in [*(out_dir / name for name in outputs), manifest]:
        print(f"wrote {path}")
    return 0


def _out_dir(args) -> Path:
    """Make and return the output directory. Commands call it once their runs have
    returned, so a rejected input or a failed run leaves no directory behind."""
    root = args.out_dir or os.environ.get("HLQ_OUT_DIR") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(args) -> SimConfig:
    return parse_config(Path(args.config).read_text())


def _runs(config: SimConfig) -> list[tuple[str, np.recarray, np.ndarray]]:
    """(file suffix, records, final state) of config's engine, or of each lockstep lane
    for "both", whose first failing step in either lane stops the run."""
    if config.engine != "both":
        result = run(config)
        return [("", result.records, result.final)]
    res = run_compare(config, per_step_distance=False, deep_checks=True)
    return [("_hidden", res.records_hidden, res.final_hidden),
            ("_standard", res.records_standard, res.final_standard)]


def _emit_runs(out_dir: Path, config: SimConfig, runs) -> dict[str, str]:
    """Write the outputs config asks for of every (suffix, records, final) in runs;
    return each file's name mapped to its SHA-256."""
    outputs = {}
    for suffix, r, rho in runs:
        if "timeseries" in config.outputs:
            name = f"timeseries{suffix}.csv"
            outputs[name] = _write_csv(
                out_dir / name,
                "step,t,pulse_area_over_pi,p00,mean_n,purity,re_b,im_b,var_x,var_y",
                (r.step, r.t, config.omega * r.t / math.pi, r.p00, r.mean_n, r.purity,
                 r.mean_b.real, r.mean_b.imag, r.var_x, r.var_y))
        if "final" in config.outputs:
            name = f"final_state{suffix}.csv"
            outputs[name] = _write_csv(out_dir / name, "row,col,re,im",
                                       (*np.indices(rho.shape), rho.real, rho.imag))
    return outputs


def cmd_run(args) -> int:
    config = _load_config(args)
    runs = _runs(config)
    out_dir = _out_dir(args)
    return _finish(out_dir, "run", config, _emit_runs(out_dir, config, runs))


def cmd_compare(args) -> int:
    config = _load_config(args)
    result = run_compare(config)
    out_dir = _out_dir(args)
    hidden = result.records_hidden
    law = ground_state_law(config.eps_eff, config.omega, model=config.model)
    digest = _write_csv(out_dir / "compare.csv",
                        "step,t,p00_hidden,p00_standard,p00_oracle,trace_distance",
                        (hidden.step, hidden.t, hidden.p00, result.records_standard.p00,
                         list(map(law, hidden.t.tolist())), result.trace_distances))
    return _finish(out_dir, "compare", config, {"compare.csv": digest})


def cmd_converge(args) -> int:
    config = _load_config(args)
    dists = converge(config, args.halvings)
    # The IEEE quotient: engines that agree exactly give 0 / 0 = nan, or x / 0 = inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.divide(dists[:-1], dists[1:])
    out_dir = _out_dir(args)
    digest = _write_csv(out_dir / "converge.csv", "dt,final_trace_distance,ratio",
                        ([math.ldexp(config.dt, -i) for i in range(len(dists))], dists,
                         ["", *map("%.12g".__mod__, ratios.tolist())]))
    return _finish(out_dir, "converge", config, {"converge.csv": digest},
                   extra={"halvings": args.halvings})


def _write_husimi_csv(path: Path, axis: np.ndarray, values: np.ndarray) -> str:
    """Write a Husimi table: header x,y,q, then one line per point, y outer and x
    inner; return the file's SHA-256, taken as it is written.

    ``axis`` holds the grid axis's cells, (points, width) uint8 from
    ``_format_cells``, formatted once per command: the grid is square, so it
    serves x and y. Each chunk of ``_CSV_CHUNK // points`` grid rows (at
    least one) gathers its x and y cells from it and formats its q in one call.
    """
    points = values.shape[1]
    step = max(1, _CSV_CHUNK // points)
    xs = np.tile(axis, (min(step, points), 1))

    def block(start: int, stop: int) -> np.ndarray:
        return _join_row_cells([xs[:points * (stop - start)],
                                np.repeat(axis[start:stop], points, axis=0),
                                _format_cells([values[start:stop].ravel()])[:, 0]])

    return _write_blocks(path, "x,y,q", (block(start, min(start + step, points))
                                         for start in range(0, points, step)))


# Grid values held at once by ``husimi``, in bytes: its snapshots' grids are
# computed in groups that fit it (at least one grid a group).
_HUSIMI_GROUP_BYTES = 1 << 21


def cmd_husimi(args) -> int:
    config = _load_config(args)
    if args.steps is None:
        snaps = sorted({0, config.steps // 2, config.steps})
    else:
        try:
            snaps = sorted({int(s) for s in _word_list(args.steps)})
        except ValueError:
            raise ConfigValidationError(f"steps: cannot parse {args.steps!r}")
        if not snaps:
            raise ConfigValidationError(f"steps: no snapshot step in {args.steps!r}")
    extent, points = husimi_window(args.extent, args.grid, config.dim)

    engine = "hidden" if config.engine == "both" else config.engine
    sub = replace(config, engine=engine)
    result = run(sub, snapshot_steps=set(snaps))

    out_dir = _out_dir(args)
    outputs = {}
    group = max(1, _HUSIMI_GROUP_BYTES // (8 * points * points))
    for start in range(0, len(snaps), group):
        steps = snaps[start:start + group]
        grids = husimi_grids([result.snapshots[step] for step in steps], extent, points)
        if start == 0:
            # Only the bytes some axis cell uses, and the separator's.
            axis = _format_cells([grids[0].x])[:, 0]
            used = axis.any(axis=0)
            used[-1] = True
            axis = axis[:, used]
        # Each grid is dropped once written: the next group's grids are made
        # with none of this group's held.
        for step in steps:
            name = f"husimi_step{step}.csv"
            outputs[name] = _write_husimi_csv(out_dir / name, axis, grids.pop(0).values)
    r = result.records
    outputs["trajectory.csv"] = _write_csv(out_dir / "trajectory.csv", "t,re_b,im_b",
                                           (r.t, r.mean_b.real, r.mean_b.imag))
    return _finish(out_dir, "husimi", config, outputs,
                   extra={"snapshots": snaps, "extent": extent, "grid": points})


_SWEEPABLE = ("omega", "dt", "steps", "dim", "zeta", "eta")


def cmd_sweep(args) -> int:
    config = _load_config(args)
    check_member("param", args.param, _SWEEPABLE, ConfigValidationError)
    tokens = _word_list(args.values)
    if not tokens:
        raise ConfigValidationError("values: empty value list")

    field = _KEYS[args.param][0]
    parsed = [_convert(args.param, tok, lambda msg: ConfigValidationError(f"--values: {msg}"))
              for tok in tokens]

    out_dir = _out_dir(args)
    results = []
    statuses = [0]
    for tok, value in zip(tokens, parsed):
        sub_dir = out_dir / f"{args.param}={tok}"
        entry = {"value": tok, "dir": sub_dir.name}
        try:
            sub = replace(config, **{field: value})
            runs = _runs(sub)
            sub_dir.mkdir(parents=True, exist_ok=True)
            entry["outputs"] = _emit_runs(sub_dir, sub, runs)
            entry["status"] = "ok"
        except HlqError as exc:
            statuses.append(_exit_status(exc))
            entry["status"] = "failed"
            entry["error"] = str(exc)
            print(f"sweep value {tok}: {exc}", file=sys.stderr)
        results.append(entry)

    path = _write_manifest(out_dir, "sweep", config,
                           {"param": args.param, "values": tokens, "results": results})
    print(f"wrote {path}")
    return max(statuses)


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigValidationError, so it exits 1 like any other bad input;
    the subcommands' parsers are of this class too."""

    def error(self, message):
        raise ConfigValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hlq",
        description="Truncated-Fock-space simulator for driven oscillator modes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to a key = value config file")
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default: $HLQ_OUT_DIR or .)")
        sp.set_defaults(func=func)
        return sp

    add("run", cmd_run, "run one engine, emit timeseries and final state")
    add("compare", cmd_compare, "run both engines in lockstep, emit agreement data")
    sp = add("converge", cmd_converge, "dt-halving agreement study at fixed total time")
    sp.add_argument("--halvings", type=int, default=3, help="number of dt halvings (>= 2)")
    sp = add("husimi", cmd_husimi, "emit Husimi grids at snapshot steps plus trajectory")
    sp.add_argument("--steps", default=None,
                    help="comma list of snapshot steps (default: 0, N/2, N)")
    sp.add_argument("--extent", type=float, default=5.0, help="half-width of the grid")
    sp.add_argument("--grid", type=int, default=201, help="points per axis")
    sp = add("sweep", cmd_sweep, "re-run over a list of values for one parameter")
    sp.add_argument("--param", required=True, help=f"one of {', '.join(_SWEEPABLE)}")
    sp.add_argument("--values", required=True, help="comma list of parameter values")
    return parser


def _exit_status(exc: HlqError | OSError | MemoryError) -> int:
    """2 for a numerical failure, 3 for I/O errors, 1 for any other package error.

    A ``MemoryError`` is 1: a request too large for this machine is a problem
    of the input, like the requests the package's own caps reject.
    """
    if isinstance(exc, (TruncationOverflowError, NonFiniteStateError)):
        return 2
    return 3 if isinstance(exc, OSError) else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # A step that overflows is stopped by the guard with a NonFiniteStateError;
        # numpy's own warnings about it would only print ahead of that one line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (HlqError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _exit_status(exc)


if __name__ == "__main__":
    sys.exit(main())
