"""Benchmark of the rbsinfty command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client.  A run is one fresh
interpreter that imports ``rbsinfty.cli`` and calls ``main`` once per job of
the workload, checking every report against the verdict its input was built
to give; runs follow each other, one at a time, until ``--seconds`` have
passed.  Inputs are made from ``--seed`` before the clock starts.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: medians over the runs of one invocation, with times
scaled to the reference speed of the box (see ``REFERENCE_SLICE_S``).  With
``--trace 1`` half the time goes to plain runs and half to traced runs, and
the metrics are the per-layer ones.  The exit code is 0 when a result was
printed; a failed job shows as ``"correct": false``, never as a missing
number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

MIN_RUNS = 4  # runs per invocation at the least, however short --seconds is
SETUP_PROBES = 8  # extra interpreters that only import the CLI
SPEED_PROBES = 4  # probes before the first run; one more follows every run
# About the median probe time and slice time of the reference box (2 cores,
# CPython 3.11.7).  That box's speed swings by up to 2x within minutes as
# other tenants come and go, and all work swings with it, so every time is
# reported at the reference speed.  A run's times are multiplied by
# (REFERENCE_SLICE_S / the median of the reference slices it timed while its
# jobs ran) ** SPEED_EXPONENT (child.Speedometer); set-up times by
# REFERENCE_PROBE_S / the median probe interpreter of the invocation, a fresh
# interpreter being the work set-up does.  The slices slow down more than the
# library when the box is busy: over 40 invocations whose wall medians spread
# by up to 0.28, run times moved as the 0.7th to 0.9th power of slice time
# (1.1 on file-checks), and the exponent 0.8 left the least spread.
REFERENCE_PROBE_S = 0.1
REFERENCE_SLICE_S = 0.002
SPEED_EXPONENT = 0.8
DEADLINE_S = 170.0  # no child starts after this, and none outlives it
TAIL_LEVELS = (99, 95, 90, 75, 50)

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
}


class Runner:
    """Spawns the fresh interpreters of one invocation and keeps their results."""

    def __init__(self, workdir: Path, jobs: list[dict], started: float):
        self.workdir = workdir
        self.started = started
        self.plan = workdir / "plan.json"
        self.spans = workdir / "spans.bin"
        self.plan.write_text(
            json.dumps({"jobs": jobs, "spans": str(self.spans)}), encoding="utf-8"
        )

    def spawn(self, mode: str) -> dict:
        out = self.workdir / "result.json"
        out.unlink(missing_ok=True)
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise TimeoutError("the run deadline has passed")
        command = [sys.executable, str(CHILD), mode, str(SRC), str(self.plan), str(out)]
        spawned = time.monotonic()
        proc = subprocess.run(
            command,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"{mode} run exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(out.read_text(encoding="utf-8"))
        result["elapsed_s"] = result["ready"] - spawned
        return result


def percentile(values: list[float], level: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def tail_level(jobs_per_run: int) -> int:
    """The highest level with at least ten of the fewest jobs an invocation runs
    beyond it; the median when even that has fewer."""
    fewest = jobs_per_run * MIN_RUNS
    for level in TAIL_LEVELS:
        if fewest * (100 - level) / 100 >= 10:
            return level
    return 50


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rbsinfty").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def failures_of(results: list[dict], jobs: list[dict]) -> list[str]:
    return [
        f"{job['label']}: {outcome['problem']}"
        for result in results
        for job, outcome in zip(jobs, result["jobs"])
        if outcome["problem"]
    ]


def end_to_end(
    runs: list[dict], setups: list[dict], probes: list[dict], level: int
) -> tuple[dict, list[str]]:
    probe_s = statistics.median(p["elapsed_s"] for p in probes)
    speed = [
        (REFERENCE_SLICE_S / statistics.median(r["slices_s"])) ** SPEED_EXPONENT for r in runs
    ]
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "setup_s": [r["elapsed_s"] for r in runs + setups],
        "job_ms": [o["latency_s"] * 1000 for r in runs for o in r["jobs"]],
    }
    scaled = {
        "run_s": [r["run_s"] * k for r, k in zip(runs, speed)],
        "setup_s": [t * REFERENCE_PROBE_S / probe_s for t in samples["setup_s"]],
        "job_ms": [o["latency_s"] * 1000 * k for r, k in zip(runs, speed) for o in r["jobs"]],
    }
    wall = {name: statistics.median(v) for name, v in samples.items()}
    values = {name: statistics.median(v) for name, v in scaled.items()}
    wall["job_tail_ms"] = percentile(samples["job_ms"], level)
    values["job_tail_ms"] = percentile(scaled["job_ms"], level)
    wall["job_p50_ms"] = wall.pop("job_ms")
    values["job_p50_ms"] = values.pop("job_ms")
    values["peak_rss_mib"] = statistics.median(r["maxrss_kib"] / 1024 for r in runs)
    beyond = sum(1 for x in scaled["job_ms"] if x > values["job_tail_ms"])
    lines = [
        f"{name:14s} wall quartiles {q1:.6g} .. {q3:.6g} of {len(v)}"
        for name, v in samples.items()
        for q1, _, q3 in [statistics.quantiles(v, n=4, method="inclusive")]
    ]
    lines.append(f"job_tail_ms is p{level}, {beyond} jobs beyond it")
    lines.append(
        f"probe median {probe_s:.6g} s of {len(probes)}: set-up times scaled by"
        f" {REFERENCE_PROBE_S / probe_s:.4f}; run speed factors"
        f" {min(speed):.4f} .. {max(speed):.4f} of {len(speed)}"
    )
    for name, unit in END_TO_END_UNITS.items():
        if name in wall:
            lines.append(f"{name:14s} {values[name]:.6g} {unit}  (wall {wall[name]:.6g})")
        else:
            lines.append(f"{name:14s} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced run (every run repeats them exactly),
    times as the median over the traced runs."""
    values = {}
    for name, first in traced[0]["layers"].items():
        if first is not None and name.endswith("_s"):
            first = statistics.median(r["layers"][name] for r in traced)
        values[name] = first
    values["cli.report_bytes"] = sum(o["bytes"] for o in traced[0]["jobs"])
    values["trace.overhead_ratio"] = statistics.median(
        r["run_s"] for r in traced
    ) / statistics.median(r["run_s"] for r in plain)
    header = traced[0]["header"]
    units = tracer.metric_units()
    bindings = sum(len(where) for where in header["bindings"].values())
    lines = [f"missing layer: {name}" for name in header["missing"]]
    lines.append(
        f"traced {len(header['bindings'])} functions at {bindings} bindings;"
        f" {len(traced)} traced and {len(plain)} plain runs"
    )
    lines += [f"{name:45s} {values[name]} {unit}" for name, unit in units.items()]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rbsinfty" / "cli.py").is_file():
        print(f"error: no rbsinfty sources under {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the running child is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps({
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(workdir, jobs, started)
        runner.spawn("setup")  # compiles the byte code; not measured
        clock = time.monotonic()
        budget = args.seconds / 2 if args.trace else args.seconds
        setups: list[dict] = []
        probes: list[dict] = []
        if not args.trace:
            setups = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
            probes = [runner.spawn("probe") for _ in range(SPEED_PROBES)]
        plain: list[dict] = []
        while len(plain) < (1 if args.trace else MIN_RUNS) or time.monotonic() - clock < budget:
            plain.append(runner.spawn("run"))
            if not args.trace:
                probes.append(runner.spawn("probe"))
        traced: list[dict] = []
        while args.trace and (not traced or time.monotonic() - clock < args.seconds):
            result = runner.spawn("trace")
            result["layers"], result["header"] = tracer.layer_metrics(str(runner.spans))
            traced.append(result)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = plain + traced
    failed = failures_of(results, jobs)
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        metrics, lines = per_layer(traced, plain)
    else:
        metrics, lines = end_to_end(plain, setups, probes, tail_level(len(jobs)))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs) * len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
