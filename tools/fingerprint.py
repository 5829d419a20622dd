"""Print one SHA-256 per case of a fixed run matrix, to show two trees give the same bytes.

Usage: PYTHONPATH=src python tools/fingerprint.py [--quick | --cli] [PATTERN ...]

The matrix is 3 models x dims {2, 3, 4, 12, 32, 48, 65} x four schedules
(uniform, alternating, rotating, and a sin^2 pulse whose |zeta| changes every
step, with a seeded per-step phase) x {vacuum, coherent} starts x four calls,
all with deep checks:

- ``run-hidden``, ``run-standard``: ``run`` of one engine with three snapshots;
- ``compare-every``, ``compare-last``: ``run_compare`` with and without
  per-step distances.

Each case prints one ``<case>  <sha256>`` line. A case that runs hashes its
records, final states, snapshots, diagnostics and trace distances, each as
raw bytes; a case that raises hashes the error's type, step and message.
The dims 2 to 4 overflow the truncation, so failures are part of the matrix.
``--quick`` keeps the dims 3 and 12. Each PATTERN is an ``fnmatch`` pattern
over the case names (``'linear d12 *'``); a case is kept when any matches.

``--cli`` fingerprints the command line instead. It writes the benchmark's
two ``cli-io`` configs (``linear``, dim 12, 500 steps of dt = 0.002, engine
``both`` or ``hidden``) into a temporary directory and runs ``hlq husimi``,
``run``, ``compare``, ``converge`` and ``sweep`` on each there, plus ``husimi
--grid 401`` with 11 snapshots and ``husimi --grid 3`` on the first, each in
a fresh interpreter that imports this ``hlq``. Each command prints one
``<case> | <item>  <sha256>`` line per file it wrote (its manifest included)
and per its stdout, stderr and exit code. Paths are relative to the
temporary directory, so they print the same on every run.

To compare two trees, run this once with each tree's ``src`` on PYTHONPATH
and ``diff`` the outputs. Stdlib and numpy only, besides ``hlq``; ``--cli``
uses the stdlib only.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import hlq

MODELS = ("linear", "two-boson", "intensity")
DIMS = (2, 3, 4, 12, 32, 48, 65)
QUICK_DIMS = (3, 12)
SCHEDULES = ("uniform", "alternating", "rotating", "pulse")
INITIALS = ("vacuum", "coherent")
CALLS = ("run-hidden", "run-standard", "compare-every", "compare-last")

# 70 steps fill the dim-12 guard and distance stacks (56 states) once and leave a rest.
STEPS, DT, OMEGA, ZETA, ETA, GAMMA0 = 70, 0.01, 1.3, 0.3, 0.8 - 0.3j, 0.6 + 0.2j


def case_names(dims=DIMS) -> list[str]:
    return [f"{model} d{dim} {schedule} {initial} {call}" for model in MODELS for dim in dims
            for schedule in SCHEDULES for initial in INITIALS for call in CALLS]


def pulse_schedule(n: int, eta: complex, seed: int = 3) -> list[hlq.AtomPrep]:
    """sin^2 pulse in |zeta| with a seeded phase on zeta, new every step."""
    phases = np.random.default_rng(seed).uniform(-0.3, 0.3, n)
    return [hlq.uniform_schedule(1, 0.5 * math.sin(math.pi * (j + 0.5) / n) ** 2,
                                 float(phases[j]), eta)[0] for j in range(n)]


def _outcome(name: str) -> list[bytes]:
    """The raw parts of one case's result, in a fixed order."""
    model, dim, schedule, initial, call = name.split()
    config = hlq.SimConfig(model=model, omega=OMEGA, dt=DT, steps=STEPS, dim=int(dim[1:]),
                           zeta_abs=ZETA, eta=ETA, initial=initial, gamma0=GAMMA0,
                           schedule="uniform" if schedule == "pulse" else schedule)
    preps = pulse_schedule(STEPS, ETA) if schedule == "pulse" else None
    if call.startswith("run"):
        config = dataclasses.replace(config, engine=call.split("-")[1])
        res = hlq.run(config, preps, snapshot_steps={0, STEPS // 2, STEPS})
        results, distances = [res], []
        snapshots = [res.snapshots[j] for j in sorted(res.snapshots)]
    else:
        res = hlq.run_compare(config, preps, per_step_distance=call == "compare-every",
                              deep_checks=True)
        results = [hlq.RunResult(res.records_hidden, res.final_hidden, res.diagnostics_hidden),
                   hlq.RunResult(res.records_standard, res.final_standard,
                                 res.diagnostics_standard)]
        distances, snapshots = res.trace_distances, []
    parts = []
    for result in results:
        parts += [result.records.tobytes(), result.final.tobytes(),
                  struct.pack(f"<{len(dataclasses.fields(result.diagnostics))}d",
                              *dataclasses.astuple(result.diagnostics))]
    return parts + [s.tobytes() for s in snapshots] + [struct.pack(f"<{len(distances)}d",
                                                                   *distances)]


def digest(name: str) -> str:
    """SHA-256 of the case's result parts, or of its error's type, step and message."""
    sha = hashlib.sha256()
    try:
        parts = _outcome(name)
    except hlq.HlqError as exc:
        parts = [f"{type(exc).__name__}|{getattr(exc, 'step', None)}|{exc}".encode()]
    for part in parts:  # length-prefixed, so parts cannot run into each other
        sha.update(struct.pack("<Q", len(part)))
        sha.update(part)
    return sha.hexdigest()


# The cli-io workload's configs and command flags.
CLI_CONFIG = f"model = linear\nomega = {2 * math.pi / 5!r}\ndt = 0.002\nsteps = 500\ndim = 12\n"
CLI_ENGINES = ("both", "hidden")
CLI_COMMANDS = ("husimi --steps 0,125,250,375,500 --grid 201", "run", "compare", "converge",
                "sweep --param zeta --values 0.1,0.2,0.3,0.4,0.5")
CLI_EXTRA = (f"both husimi --steps {','.join(map(str, range(0, 501, 50)))} --grid 401",
             "both husimi --grid 3")
# Runs hlq's command line in the child interpreter, whatever the tree's entry points.
_CLI_MAIN = "import sys; from hlq.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_case_names() -> list[str]:
    return [f"{engine} {command}" for engine in CLI_ENGINES
            for command in CLI_COMMANDS] + list(CLI_EXTRA)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(name: str, work: Path) -> list[tuple[str, str]]:
    """(item, SHA-256) of each file one command wrote and of its stdout, stderr and exit
    code; the command runs in ``work``, which holds the configs."""
    engine, command, *flags = name.split()
    env = {**os.environ, "PYTHONPATH": str(Path(hlq.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", _CLI_MAIN, command, f"{engine}.cfg",
                           "--out-dir", "out", *flags], cwd=work, env=env, capture_output=True)
    out = work / "out"
    files = sorted(path for path in out.rglob("*") if path.is_file())
    digests = [(path.relative_to(out).as_posix(), _sha256(path.read_bytes())) for path in files]
    shutil.rmtree(out, ignore_errors=True)  # the next command writes a fresh one
    return digests + [("stdout", _sha256(done.stdout)), ("stderr", _sha256(done.stderr)),
                      ("exit", _sha256(str(done.returncode).encode()))]


def main(argv: list[str]) -> int:
    quick, cli = "--quick" in argv, "--cli" in argv
    patterns = [arg for arg in argv if arg not in ("--quick", "--cli")]
    names = cli_case_names() if cli else case_names(QUICK_DIMS if quick else DIMS)
    names = [name for name in names
             if not patterns or any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    if not cli:
        for name in names:
            print(f"{name}  {digest(name)}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for engine in CLI_ENGINES:
            (work / f"{engine}.cfg").write_text(CLI_CONFIG + f"engine = {engine}\n")
        for name in names:
            for item, sha in cli_digests(name, work):
                print(f"{name} | {item}  {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
