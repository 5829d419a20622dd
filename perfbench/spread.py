"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 perfbench/spread.py --runs 10 [--workload cli-io] [--out perfbench/baseline.json]

Runs run.py once per seed and workload, one run at a time, and prints for
every end-to-end metric the median of the runs and the distance between
their quartiles as a share of that median, next to the metric's bound in
BENCHMARK.json. A spread above a third of the bound is flagged: a
regression of the bound's size could not be told from noise. ``--out``
writes the table, the environment and every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    env = next((line[len("# env "):] for line in lines if line.startswith("# env ")), "{}")
    return json.loads(lines[-1]), env


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..runs")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    flagged = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, report["env"] = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = report["workloads"][workload] = {}
        print(f"{workload}: {args.runs} runs of {args.seconds} s")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            steady = name == "setup_s" or share < bounds[name] / 3
            flagged += not steady
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "values": vals}
            print(f"  {name:20s} median {med:12.6g}  spread {share:6.3f}  "
                  f"bound {bounds[name]:.2f}{'' if steady else '  TOO WIDE'}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
