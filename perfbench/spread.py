"""Run-to-run spread of the end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--out perfbench/noise.json]

Runs the benchmark ``--runs`` times on each workload, each time with the
next seed, for ``run_seconds`` from BENCHMARK.json.  For every end-to-end
metric it reports the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound: a benchmark is steady when every
spread but that of ``setup_s`` stays below that third.  The spreads of the
unscaled wall-time medians (``wall.*``) are reported for comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # the unscaled wall-time medians, printed as "name value unit  (wall value)"
    for line in lines:
        if "(wall " in line:
            values["wall." + line.split()[0]] = float(line.rsplit("(wall ", 1)[1].rstrip(")"))
    return values


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for name, value in run_once(bench["command"], workload, seed, bench["run_seconds"]).items():
                values.setdefault(name, []).append(value)
        rows = {}
        for name, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            bound = bounds[name.removeprefix("wall.")]
            ok = name == "setup_s" or name.startswith("wall.") or spread < bound / 3
            steady &= ok
            rows[name] = {"median": statistics.median(v), "spread": spread, "values": v}
            print(f"{workload:16s} {name:14s} median {statistics.median(v):10.5g}  "
                  f"spread {spread:6.3f}  third of bound {bound / 3:6.3f}"
                  f"{'' if ok else '  TOO WIDE'}", flush=True)
        report["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
