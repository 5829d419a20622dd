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
``compare``'s does, with one difference: its hidden lane's guard runs deep
checks, and ``compare``'s runs shallow. The standard lane's guard is shallow
in both, since psi psi^dag passes the deep checks by construction. ``husimi``
snapshots the hidden engine when ``engine = both``.

Every subcommand takes one config-file path and an optional ``--out-dir``
(falling back to the HLQ_OUT_DIR environment variable, then the working
directory), writes a ``manifest.json`` naming every emitted file with its
SHA-256, and prints the paths it wrote. Numbers are written with 12
significant digits; identical config and schedule give byte-identical files.

Exit status: 0 success, 1 config/validation problem (a Husimi window too
wide or too large for ``dim`` and a run over the run-size cap included) or
out of memory, 2 numerical failure (truncation overflow, non-finite state),
3 I/O failure.

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
from .engines import RUN_MAX_BYTES, SimConfig, run, run_compare
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    HlqError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from .errors import check_integer, check_member
from .observables import husimi_grids, husimi_window
from .oracles import ground_state_probability


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


# Rows formatted per write: the text and Python values held at once stay
# near 200 KB for the widest table, however long the table is.
_CSV_CHUNK = 1024
# Row-spec field per column dtype kind; any other kind is "%.12g".
_CELL_SPEC = {"i": "%d", "u": "%d", "U": "%s", "O": "%s"}


def _write_csv(path: Path, header: str, columns) -> None:
    """Write header, then row i of the table formed by the i-th cell of every column.

    Each column is an array or a list, flattened row-major, so a 2-D array
    contributes its cells in (row, col) order. One ``%`` row spec is built per
    table from the column dtypes: ``%d`` for integer kinds, ``%s`` for text (a
    str array, or an object array whose cells are all str; written as they
    are) and ``%.12g`` for everything else, the one number format of the CLI.
    Rows are formatted and written ``_CSV_CHUNK`` (1024) at a time
    from plain Python values: neither the table's text nor whole columns of
    Python objects are held, and the traced peak stays near 200 KB (a
    ten-column ``timeseries.csv``) however long the table is. The Husimi
    tables go through ``_write_husimi_csv`` instead.
    """
    cols = [np.ravel(c) for c in columns]
    spec = ",".join(_CELL_SPEC.get(c.dtype.kind, "%.12g") for c in cols) + "\n"
    rows = min((c.size for c in cols), default=0)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, rows, _CSV_CHUNK):
            chunk = [c[start:start + _CSV_CHUNK].tolist() for c in cols]
            fh.write("".join(map(spec.__mod__, zip(*chunk))))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


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


def _digests(files: list[Path]) -> dict[str, str]:
    return {p.name: _sha256(p) for p in files}


def _finish(
    out_dir: Path, command: str, config: SimConfig, files: list[Path], extra: dict | None = None
) -> int:
    """Write the manifest over files, print every path written, return exit status 0."""
    fields = {"outputs": _digests(files), **(extra or {})}
    files.append(_write_manifest(out_dir, command, config, fields))
    for path in files:
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


def _emit_runs(out_dir: Path, config: SimConfig, runs) -> list[Path]:
    """Write the outputs config asks for of every (suffix, records, final) in runs."""
    files = []
    for suffix, r, rho in runs:
        if "timeseries" in config.outputs:
            path = out_dir / f"timeseries{suffix}.csv"
            _write_csv(path, "step,t,pulse_area_over_pi,p00,mean_n,purity,re_b,im_b,var_x,var_y",
                       (r.step, r.t, config.omega * r.t / math.pi, r.p00, r.mean_n, r.purity,
                        r.mean_b.real, r.mean_b.imag, r.var_x, r.var_y))
            files.append(path)
        if "final" in config.outputs:
            path = out_dir / f"final_state{suffix}.csv"
            _write_csv(path, "row,col,re,im", (*np.indices(rho.shape), rho.real, rho.imag))
            files.append(path)
    return files


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
    oracle = [ground_state_probability(config.eps_eff, config.omega, t, model=config.model)
              for t in hidden.t.tolist()]
    path = out_dir / "compare.csv"
    _write_csv(path, "step,t,p00_hidden,p00_standard,p00_oracle,trace_distance",
               (hidden.step, hidden.t, hidden.p00, result.records_standard.p00, oracle,
                result.trace_distances))
    return _finish(out_dir, "compare", config, [path])


def cmd_converge(args) -> int:
    config = _load_config(args)
    check_integer("halvings", args.halvings, 2, ConfigValidationError)
    # The finest halving is the longest run: making its config checks it before any run.
    # Each halving doubles the steps: past RUN_MAX_BYTES.bit_length() halvings
    # every config is over the run-size cap, and 2**halvings is not formed.
    if args.halvings > RUN_MAX_BYTES.bit_length():
        raise ConfigValidationError(
            f"halvings: steps * 2**{args.halvings} steps are over the run-size limit")
    finest = 2**args.halvings
    replace(config, dt=config.dt / finest, steps=config.steps * finest)
    dts = [config.dt / 2**i for i in range(args.halvings + 1)]
    dists = [run_compare(replace(config, dt=dt, steps=config.steps * 2**i),
                         per_step_distance=False).trace_distances[-1]
             for i, dt in enumerate(dts)]
    ratios = ["", *("%.12g" % (a / b) for a, b in zip(dists, dists[1:]))]
    out_dir = _out_dir(args)
    path = out_dir / "converge.csv"
    _write_csv(path, "dt,final_trace_distance,ratio", (dts, dists, ratios))
    return _finish(out_dir, "converge", config, [path], extra={"halvings": args.halvings})


def _write_husimi_csv(path: Path, row_template: str, axis: list[str], values: np.ndarray) -> None:
    """Write a Husimi table: header x,y,q, then one line per point, y outer and x inner.

    ``row_template`` holds the lines of one y-row: each x's text, ``{y}`` and
    a ``%.12g`` field for its q. Each y-row is written with one ``%`` over
    that row's q, so the text held at once is one row's.
    """
    with open(path, "w", newline="") as fh:
        fh.write("x,y,q\n")
        for y, row in zip(axis, values):
            fh.write(row_template.replace("{y}", y) % tuple(row.tolist()))


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
    files = []
    group = max(1, _HUSIMI_GROUP_BYTES // (8 * points * points))
    for start in range(0, len(snaps), group):
        steps = snaps[start:start + group]
        grids = husimi_grids([result.snapshots[step] for step in steps], extent, points)
        if start == 0:
            # The grid is square, so one formatted axis serves x and y. It is
            # %.12g of finite floats, which never holds "%" or "{y}": the row
            # template's only format fields are its q fields.
            axis = ["%.12g" % v for v in grids[0].x.tolist()]
            row_template = "".join(x + ",{y},%.12g\n" for x in axis)
        # Each grid is dropped once written: the next group's grids are made
        # with none of this group's held.
        for step in steps:
            path = out_dir / f"husimi_step{step}.csv"
            _write_husimi_csv(path, row_template, axis, grids.pop(0).values)
            files.append(path)
    traj = out_dir / "trajectory.csv"
    r = result.records
    _write_csv(traj, "t,re_b,im_b", (r.t, r.mean_b.real, r.mean_b.imag))
    files.append(traj)
    return _finish(out_dir, "husimi", config, files,
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
            emitted = _emit_runs(sub_dir, sub, runs)
            entry["status"] = "ok"
            entry["outputs"] = _digests(emitted)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
        # A step that overflows is stopped by the guard with a NonFiniteStateError;
        # numpy's own warnings about it would only print ahead of that one line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (HlqError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _exit_status(exc)


if __name__ == "__main__":
    sys.exit(main())
