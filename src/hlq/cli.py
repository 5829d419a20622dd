"""Command-line surface: config parsing, orchestration, bit-stable CSV emission.

Subcommands
-----------
run       one engine over one schedule -> timeseries.csv + final_state.csv
compare   both engines in lockstep     -> compare.csv
converge  dt-halving agreement study   -> converge.csv
husimi    phase-space snapshots        -> husimi_step<j>.csv (+ trajectory.csv)
sweep     re-run over a parameter list -> per-value subdirectories

Every subcommand takes one config-file path and an optional ``--out-dir``
(falling back to the HLQ_OUT_DIR environment variable, then the working
directory), writes a ``manifest.json`` naming every emitted file with its
SHA-256, and prints the paths it wrote. Numbers are written with 12
significant digits; identical config and schedule give byte-identical files.

Exit status: 0 success, 1 config/validation problem, 2 numerical failure
(truncation overflow, non-finite state), 3 I/O failure.

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
from pathlib import Path

import numpy as np

from . import __version__
from .engines import RunResult, SimConfig, run, run_compare
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    HlqError,
    NonFiniteStateError,
    TruncationOverflowError,
)
from .observables import husimi_grid
from .oracles import ground_state_probability


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _word_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# key: (SimConfig field, parser, what the parser expects, manifest echo of the field).
# The parser of ``initial`` reads the amplitude inside ``coherent(...)``.
_KEYS = {
    "model": ("model", str, None, str),
    "omega": ("omega", float, "a number", _fmt),
    "dt": ("dt", float, "a number", _fmt),
    "steps": ("steps", int, "an integer", int),
    "dim": ("dim", int, "an integer", int),
    "zeta": ("zeta_abs", float, "a number", _fmt),
    "eta": ("eta", _complex, "a complex number", str),
    "schedule": ("schedule", str, None, str),
    "engine": ("engine", str, None, str),
    "initial": ("initial", _complex, "a complex number", str),
    "phase": ("phase", str, None, str),
    "outputs": ("outputs", _word_list, None, ",".join),
}
_REQUIRED_KEYS = ("model", "omega", "dt", "steps")


def _convert(key: str, text: str, line: int):
    """Parse one value of key; a malformed one is a ConfigParseError on line."""
    _, parse, kind, _ = _KEYS[key]
    try:
        return parse(text)
    except ValueError:
        raise ConfigParseError(line, f"{key}: cannot parse {text!r} as {kind}")


def parse_config(text: str) -> SimConfig:
    """Parse a flat key-value document into a validated SimConfig."""
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
        if key != "initial":
            kwargs[field] = _convert(key, value, lineno)
        elif value == "vacuum":
            kwargs[field] = value
        elif value.startswith("coherent(") and value.endswith(")"):
            kwargs[field] = "coherent"
            kwargs["gamma0"] = _convert(key, value[9:-1], lineno)
        else:
            raise ConfigValidationError(
                f"initial: expected 'vacuum' or 'coherent(<amplitude>)', got {value!r}"
            )

    config = SimConfig(**kwargs)
    config.validate()
    return config


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
            fh.write("\n")


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
    root = args.out_dir or os.environ.get("HLQ_OUT_DIR") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(args) -> SimConfig:
    return parse_config(Path(args.config).read_text())


def _timeseries_rows(result: RunResult, omega: float):
    r = result.records
    columns = (r.step, r.t, omega * r.t / math.pi, r.p00, r.mean_n, r.purity,
               r.mean_b.real, r.mean_b.imag, r.var_x, r.var_y)
    return zip(*(c.tolist() for c in columns))


_TIMESERIES_HEADER = "step,t,pulse_area_over_pi,p00,mean_n,purity,re_b,im_b,var_x,var_y"


def _final_state_rows(rho: np.ndarray):
    d = rho.shape[0]
    for i in range(d):
        for j in range(d):
            yield (i, j, rho[i, j].real, rho[i, j].imag)


def _emit_run_outputs(
    out_dir: Path, config: SimConfig, result: RunResult, suffix: str = ""
) -> list[Path]:
    files = []
    if "timeseries" in config.outputs:
        path = out_dir / f"timeseries{suffix}.csv"
        _write_csv(path, _TIMESERIES_HEADER, _timeseries_rows(result, config.omega))
        files.append(path)
    if "final" in config.outputs:
        path = out_dir / f"final_state{suffix}.csv"
        _write_csv(path, "row,col,re,im", _final_state_rows(result.final))
        files.append(path)
    return files


def _run_and_emit(out_dir: Path, config: SimConfig) -> list[Path]:
    """Run config's engine (each in turn for "both", files suffixed) and write its outputs."""
    if config.engine != "both":
        return _emit_run_outputs(out_dir, config, run(config))
    files = []
    for engine in ("hidden", "standard"):
        sub = replace(config, engine=engine)
        files += _emit_run_outputs(out_dir, sub, run(sub), suffix=f"_{engine}")
    return files


def cmd_run(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args)
    return _finish(out_dir, "run", config, _run_and_emit(out_dir, config))


def cmd_compare(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args)
    result = run_compare(config)
    hidden, standard = result.records_hidden, result.records_standard
    rows = []
    for step, t, p_hidden, p_standard, dist in zip(
        hidden.step.tolist(), hidden.t.tolist(), hidden.p00.tolist(),
        standard.p00.tolist(), result.trace_distances,
    ):
        oracle = ground_state_probability(config.eps_eff, config.omega, t, model=config.model)
        rows.append((step, t, p_hidden, p_standard, oracle, dist))
    path = out_dir / "compare.csv"
    _write_csv(path, "step,t,p00_hidden,p00_standard,p00_oracle,trace_distance", rows)
    return _finish(out_dir, "compare", config, [path])


def cmd_converge(args) -> int:
    config = _load_config(args)
    if args.halvings < 2:
        raise ConfigValidationError(f"halvings: must be >= 2, got {args.halvings}")
    out_dir = _out_dir(args)
    rows = []
    prev = None
    for i in range(args.halvings + 1):
        sub = replace(config, dt=config.dt / 2**i, steps=config.steps * 2**i)
        result = run_compare(sub, per_step_distance=False)
        dist = result.trace_distances[-1]
        ratio = "" if prev is None else _fmt(prev / dist)
        rows.append((sub.dt, dist, ratio))
        prev = dist
    path = out_dir / "converge.csv"
    _write_csv(path, "dt,final_trace_distance,ratio", rows)
    return _finish(out_dir, "converge", config, [path], extra={"halvings": args.halvings})


def cmd_husimi(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args)
    if args.steps:
        try:
            snaps = sorted({int(s) for s in _word_list(args.steps)})
        except ValueError:
            raise ConfigValidationError(f"steps: cannot parse {args.steps!r}")
    else:
        snaps = sorted({0, config.steps // 2, config.steps})
    if args.grid < 2:
        raise ConfigValidationError(f"grid: must be >= 2, got {args.grid}")
    if args.extent <= 0:
        raise ConfigValidationError(f"extent: must be > 0, got {args.extent}")
    if not math.isfinite(args.extent):
        raise ConfigValidationError(f"extent: must be finite, got {args.extent}")

    engine = "hidden" if config.engine == "both" else config.engine
    sub = replace(config, engine=engine)
    result = run(sub, snapshot_steps=set(snaps))

    files = []
    for step in snaps:
        grid = husimi_grid(result.snapshots[step], args.extent, args.grid)
        rows = (
            (grid.x[ix], grid.y[iy], grid.values[iy, ix])
            for iy in range(grid.y.size)
            for ix in range(grid.x.size)
        )
        path = out_dir / f"husimi_step{step}.csv"
        _write_csv(path, "x,y,q", rows)
        files.append(path)
    traj = out_dir / "trajectory.csv"
    r = result.records
    _write_csv(traj, "t,re_b,im_b",
               zip(r.t.tolist(), r.mean_b.real.tolist(), r.mean_b.imag.tolist()))
    files.append(traj)
    return _finish(out_dir, "husimi", config, files,
                   extra={"snapshots": snaps, "extent": args.extent, "grid": args.grid})


_SWEEPABLE = ("omega", "dt", "steps", "dim", "zeta", "eta")


def cmd_sweep(args) -> int:
    config = _load_config(args)
    if args.param not in _SWEEPABLE:
        raise ConfigValidationError(
            f"param: {args.param!r} not sweepable; choose from {_SWEEPABLE}"
        )
    tokens = _word_list(args.values)
    if not tokens:
        raise ConfigValidationError("values: empty value list")

    field = _KEYS[args.param][0]
    parsed = [_convert(args.param, tok, 0) for tok in tokens]

    out_dir = _out_dir(args)
    results = []
    statuses = [0]
    for tok, value in zip(tokens, parsed):
        sub_dir = out_dir / f"{args.param}={tok}"
        entry = {"value": tok, "dir": sub_dir.name}
        try:
            sub = replace(config, **{field: value})
            sub.validate()
            sub_dir.mkdir(parents=True, exist_ok=True)
            emitted = _run_and_emit(sub_dir, sub)
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


def _exit_status(exc: HlqError | OSError) -> int:
    """2 for a numerical failure, 1 for any other package error, 3 for I/O errors."""
    if isinstance(exc, (TruncationOverflowError, NonFiniteStateError)):
        return 2
    return 1 if isinstance(exc, HlqError) else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HlqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_status(exc)


if __name__ == "__main__":
    sys.exit(main())
