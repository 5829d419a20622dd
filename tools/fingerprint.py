"""Print one SHA-256 per case of a fixed run matrix, to show two trees give the same bytes.

Usage: PYTHONPATH=src python tools/fingerprint.py [--quick] [PATTERN ...]

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

To compare two trees, run this once with each tree's ``src`` on PYTHONPATH
and ``diff`` the outputs. Stdlib and numpy only, besides ``hlq``.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import math
import struct
import sys

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


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    patterns = [arg for arg in argv if arg != "--quick"]
    for name in case_names(QUICK_DIMS if quick else DIMS):
        if not patterns or any(fnmatch.fnmatchcase(name, p) for p in patterns):
            print(f"{name}  {digest(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
