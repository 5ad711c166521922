"""One measured interpreter of the benchmark.

Usage: python3 child.py MODE SRC PLAN OUT

MODE is ``setup`` (import the CLI and stop), ``run``, ``trace`` or
``probe``.  SRC is the directory holding the ``rbsinfty`` package.  PLAN is
a JSON file ``{"jobs": [...], "spans": path}`` written by ``run.py``; OUT
receives this interpreter's measurements as JSON.  The monotonic clock is
shared with the parent, which subtracts its spawn time from ``ready``: the
set-up time for the first three modes, the probe time for ``probe``.  A
``run`` also samples the speed of the box while its jobs run (see
``Speedometer``), so its times can be read at the reference speed.

A probe never imports the library: it imports the standard modules the
library uses and does a fixed piece of pure-Python work like the library's,
so its time measures how fast the box runs a fresh interpreter at that
moment, whatever the program under test.
"""

import sys
import time


def reference_work(steps: int = 12000) -> None:
    from fractions import Fraction

    table: dict = {}
    for i in range(steps):
        key = (i % 31, i % 17, i % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 5 - 2, 1 + i % 3)
    sorted(table.items())


class Speedometer:
    """Samples the speed of the box while a run's jobs run.

    Every ``INTERVAL_S`` a timer signal interrupts the jobs and times a slice
    of ``reference_work``; the run's speed is read from the median slice, so
    it is the speed of the same seconds the jobs ran in.  ``spent_s`` is the
    time the slices took, which the run subtracts from its job times.
    """

    INTERVAL_S = 0.05
    SLICE_STEPS = 500

    def __init__(self):
        self.slices: list[float] = []
        self.spent_s = 0.0

    def sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        reference_work(self.SLICE_STEPS)
        took = time.perf_counter() - started
        self.slices.append(took)
        self.spent_s += took

    def __enter__(self):
        import signal

        self.sample()  # a run shorter than the interval still has one slice
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    mode, src, plan_path, out_path = sys.argv[1:5]
    if mode == "probe":
        import argparse, dataclasses, itertools, json, random, re  # noqa: E401,F401

        reference_work()
    else:
        sys.path.insert(0, src)
        from rbsinfty import cli
    result = {"ready": time.monotonic()}
    import json
    import resource

    if mode in ("run", "trace"):
        import contextlib

        from jobs import run_job

        with open(plan_path, "r", encoding="utf-8") as handle:
            plan = json.load(handle)
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        jobs = []
        with Speedometer() if mode == "run" else contextlib.nullcontext() as speedometer:
            for job in plan["jobs"]:
                before = speedometer.spent_s if speedometer else 0.0
                outcome = run_job(cli, job)
                outcome["sampled_s"] = (speedometer.spent_s if speedometer else 0.0) - before
                jobs.append(outcome)
        if tracer is not None:
            tracer.write(plan["spans"])
        result["run_s"] = jobs[-1]["t1"] - jobs[0]["t0"] - sum(j["sampled_s"] for j in jobs)
        result["jobs"] = [
            {
                "latency_s": j["t1"] - j["t0"] - j["sampled_s"],
                "bytes": j["bytes"],
                "problem": j["problem"],
            }
            for j in jobs
        ]
        if speedometer:
            result["slices_s"] = speedometer.slices
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
