"""hlq benchmark: one workload per call, a closed loop with one caller.

    python3 perfbench/run.py --workload accept-dim32 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; hlq is imported from its ``src``. BLAS and
OpenMP are pinned to one thread. After one warm-up pass (checked, not timed)
the workload repeats whole passes until ``--seconds`` have gone by, and every
pass is checked against the workload's oracles outside the timed calls.

Times are in calibrated seconds (see ``Calibration``). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports per-layer self times (see tracer.py). Notes go
to stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check held.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_PASSES = 3
# Calibration.slowdown's kernel time on an idle 2-vCPU Xeon VM.
CALIBRATION_S = 0.011


class Calibration:
    """Measures how much slower than nominal the machine runs right now.

    On a shared host the machine's speed drifts by up to 2x for minutes at a
    time, and all code slows alike: over four minutes on a 2-vCPU Xeon VM,
    pulse-direct and kernel-dim64 calls, a pure-Python loop and a complex
    matmul each moved by 40% while the calls' ratio to the matmul stayed
    within 3%. So every timing is divided by the mean of the slowdowns
    measured just before and just after it, and reported times are seconds
    at the speed at which this kernel (48 products of a fixed 128x128
    complex matrix) takes CALIBRATION_S. Raw seconds are printed in the
    notes.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))

    def slowdown(self) -> float:
        start = time.perf_counter()
        for _ in range(48):
            self.matrix @ self.matrix
        return (time.perf_counter() - start) / CALIBRATION_S


def bracket(marks: list[float], items: list) -> list[tuple[float, object]]:
    """Pair items[i], measured between marks[i] and marks[i + 1], with their mean."""
    return [((a + b) / 2, item) for a, b, item in zip(marks, marks[1:], items)]


def import_hlq():
    """Pin BLAS threads, then import hlq from this checkout's sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "hlq" / "__init__.py").is_file():
        raise SystemExit(f"error: no hlq sources under {src}")
    sys.path.insert(0, str(src))
    import hlq

    if Path(hlq.__file__).resolve().parent != src / "hlq":
        raise SystemExit(f"error: imported hlq from {hlq.__file__}, not from {src}")


def setup_probe(workload: str, seed: int, work: Path) -> None:
    """Child-process half of setup_s: time the import and the workload's set-up."""
    start = time.perf_counter()
    import_hlq()
    import workloads

    workloads.WORKLOADS[workload](seed, work)
    print(time.perf_counter() - start)


def measure_setup(workload: str, seed: int, calibration) -> list[tuple[float, float]]:
    """(slowdown, raw seconds) of each fresh-process set-up."""
    times, marks = [], [calibration.slowdown()]
    for i in range(SETUP_REPEATS):
        work = WORK / f"setup-{i}"
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--work", str(work)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        marks.append(calibration.slowdown())
    return bracket(marks, times)


def run_pass(workload, gate, index: int, tally: dict, tracer=None) -> list[tuple]:
    """One pass of the workload; returns (seconds, steps, count, name) per successful call."""
    from tracer import ROOT_SPAN

    out = WORK / f"pass-{index}"
    timed, results, failed = [], [], False
    for op in workload.ops(out):
        call = op.call if tracer is None else tracer.wrap(ROOT_SPAN, op.call)
        tally["attempted"] += op.count
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed call is counted and reported, not fatal
            tally["failed"] += op.count
            gate.failures.append(f"{op.name} failed: {type(exc).__name__}: {exc}")
            failed = True
            continue
        timed.append((time.perf_counter() - start, op.steps, op.count, op.name))
        results.append(result)
    if not failed:
        workload.check(results, gate, out)
    shutil.rmtree(out, ignore_errors=True)
    return timed


def pass_wall(timed) -> float:
    return sum(entry[0] for entry in timed)


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def tail_percentile(samples) -> tuple[float, float]:
    """(q, value) at the highest q <= 0.9 that leaves at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    q = max(0.0, min(0.9, (n - 11) / (n - 1))) if n > 1 else 0.0
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def end_to_end(passes, setup_times, gate, tally) -> tuple[dict, list[str]]:
    """End-to-end metrics from (slowdown, calls) passes, in calibrated seconds."""
    setup = [raw / slow for slow, raw in setup_times]
    walls = [pass_wall(timed) / slow for slow, timed in passes]
    rates = [sum(entry[1] for entry in timed) / wall for (_, timed), wall in zip(passes, walls)]
    samples = [seconds / slow / steps * 1e6 for slow, timed in passes
               for seconds, steps, count, _ in timed for _ in range(count)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "steps_per_s": (statistics.median(rates), "1/s"),
        "op_us_per_step.p50": (statistics.median(samples), "us"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "oracle_err.max": (gate.oracle_err, "abs"),
    }
    by_call: dict[str, list[float]] = {}
    for slow, timed in passes:
        for seconds, steps, _, name in timed:
            by_call.setdefault(name, []).append(seconds / slow / steps * 1e6)
    slowdowns = [slow for slow, _ in passes]
    q, tail = tail_percentile(samples)
    notes = [
        f"{len(passes)} passes; median us/step per call: "
        + ", ".join(f"{name} {statistics.median(v):.0f}" for name, v in by_call.items()),
        f"unbounded: p{100 * q:.1f} over {len(samples)} operations {tail:.1f} us/step; "
        f"failed_ops_share {tally['failed'] / tally['attempted']:.3f}",
        f"slowdown: median {statistics.median(slowdowns):.3f}, range "
        f"{min(slowdowns):.3f}-{max(slowdowns):.3f}; raw seconds: wall_s "
        f"{statistics.median(pass_wall(timed) for _, timed in passes):.6g}, setup_s "
        f"{statistics.median(raw for _, raw in setup_times):.6g}",
        f"within-run spread (IQR/median): setup_s {spread(setup):.3f} over "
        f"{len(setup)} probes, wall_s {spread(walls):.3f} over {len(passes)} passes",
    ]
    return metrics, notes


def per_layer(tracer, traced, untraced) -> tuple[dict, list[str]]:
    """Per-layer metrics in raw seconds; traced and untraced are (slowdown, wall) pairs."""
    from tracer import LAYER_SPANS, ROOT_SPAN

    n = len(traced)
    wall = sum(w for _, w in traced)
    metrics = {}
    for span in LAYER_SPANS:
        calls, self_s = tracer.calls[span], tracer.self_s[span]
        metrics[f"{span}.calls"] = (calls / n, "count")
        metrics[f"{span}.self_s"] = (self_s / n, "s")
        metrics[f"{span}.us_per_call"] = (self_s / calls * 1e6 if calls else 0.0, "us")
        metrics[f"{span}.share"] = (self_s / wall, "ratio")
    metrics[f"{ROOT_SPAN}.self_s"] = (tracer.self_s[ROOT_SPAN] / n, "s")
    metrics[f"{ROOT_SPAN}.share"] = (tracer.self_s[ROOT_SPAN] / wall, "ratio")
    steps = tracer.calls["engines.step_cached"] + tracer.calls["engines.step_direct"]
    metrics["engines.cached_step_ratio"] = (
        tracer.calls["engines.step_cached"] / steps if steps else 0.0, "ratio")
    csv_s = tracer.self_s["cli.write_csv"]
    rows = tracer.counts["cli.write_csv.rows"]
    metrics["cli.write_csv.rows"] = (rows / n, "rows")
    metrics["cli.write_csv.bytes"] = (tracer.counts["cli.write_csv.bytes"] / n, "bytes")
    metrics["cli.write_csv.rows_per_s"] = (rows / csv_s if csv_s else 0.0, "1/s")
    metrics["observables.husimi_grid.points"] = (
        tracer.counts["observables.husimi_grid.points"] / n, "points")
    metrics["trace.overhead_s"] = (statistics.median(w / slow for slow, w in traced)
                                   - statistics.median(w / slow for slow, w in untraced), "s")
    notes = [f"trace: {n} traced and {len(untraced)} untraced passes; counts and times are "
             "per traced pass; trace.overhead_s compares median calibrated pass walls"]
    if tracer.absent:
        notes.append("absent entry points (reported as 0): " + ", ".join(tracer.absent))
    return metrics, notes


def measure(args) -> int:
    import_hlq()
    import workloads
    from tracer import Tracer

    calibration = Calibration()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, calibration)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK / "inputs")
    gate = workloads.Gate()
    tally = {"attempted": 0, "failed": 0}
    notes = [f"env {json.dumps(environment(), sort_keys=True)}"]
    if hasattr(workload, "probe_sweep_both"):
        notes.append("known defect: " + workload.probe_sweep_both())

    index = itertools.count()
    run_pass(workload, gate, next(index), tally)  # warm-up; also the cli-io reference pass
    tracer = Tracer() if args.trace else None
    runs, marks = [], [calibration.slowdown()]  # runs: (traced, calls) in run order
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(runs) < MIN_PASSES:
        runs.append((False, run_pass(workload, gate, next(index), tally)))
        marks.append(calibration.slowdown())
        if tracer is not None:
            with tracer.installed():
                runs.append((True, run_pass(workload, gate, next(index), tally, tracer)))
            marks.append(calibration.slowdown())
    paired = bracket(marks, runs)
    passes = [(slow, timed) for slow, (was_traced, timed) in paired if not was_traced]
    traced = [(slow, pass_wall(timed)) for slow, (was_traced, timed) in paired if was_traced]

    if not any(timed for _, timed in passes):
        raise SystemExit("error: no call succeeded:\n" + "\n".join(gate.failures[:20]))
    if tracer is None:
        metrics, more = end_to_end(passes, setup_times, gate, tally)
    else:
        metrics, more = per_layer(tracer, traced, [(slow, pass_wall(timed)) for slow, timed in passes])
    notes += more
    notes += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    notes += [f"CHECK FAILED {failure}" for failure in list(dict.fromkeys(gate.failures))[:20]]
    for line in notes:
        print(f"# {line}")
    correct = not gate.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("accept-dim32", "kernel-dim64", "pulse-direct", "cli-io"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.work)
        return 0
    try:
        return measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
