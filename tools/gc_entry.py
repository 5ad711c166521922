"""Show where the garbage collector runs when a benchmark run starts.

A benchmark run (``perfbench/child.py``) enters its ``Speedometer`` after
importing the library, and the speedometer times its first slice of
reference work at once.  A collection of the import's garbage that falls in
that slice slows it and so scales every time of the run.  This tool copies
``perfbench/`` into a temporary directory, next to a link to ``src/``, and
patches the copy's ``Speedometer.__enter__`` to record ``gc.get_count()``
just before the first ``sample()`` and the generation of every collection
that a ``gc.callbacks`` hook sees during it.  It runs the copy's ``run.py``
and prints, per workload, each distinct ``(entry count) [generations]``
pair with its number of runs::

    python3 tools/gc_entry.py
    python3 tools/gc_entry.py --workload file-checks --seed 1 --seconds 5

No file under ``perfbench/`` changes, and the runs write no byte code.
The counts depend on what the import compiles: a checkout without
``__pycache__`` (as the benchmark's checkouts are) compiles every module of
the library, and the tool notes on stderr when ``src/`` holds cached byte
code.  If the copy's ``__enter__`` no longer reads as this tool expects,
the tool refuses to run (exit 1) and runs nothing.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("operad-d2", "operad-homotopy", "mc-dense", "file-checks")

ANCHOR = """\
        import signal

        self.sample()  # a run shorter than the interval still has one slice
"""
# the count is read after the imports of ``__enter__`` and before anything
# else of the patch allocates
PATCH = """\
        import signal

        import gc
        import json

        count = gc.get_count()
        generations = []

        def seen(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.callbacks.append(seen)
        self.sample()  # a run shorter than the interval still has one slice
        gc.callbacks.remove(seen)
        with open({record!r}, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([count, generations]) + "\\n")
"""


def patched_copy(workdir: Path) -> Path:
    """``perfbench/`` copied into ``workdir`` beside a link to ``src/``, its
    speedometer patched; the file the runs record into."""
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench")
    (workdir / "src").symlink_to(ROOT / "src", target_is_directory=True)
    child = workdir / "perfbench" / "child.py"
    text = child.read_text(encoding="utf-8")
    if text.count(ANCHOR) != 1:
        raise SystemExit("perfbench/child.py: the patch anchor is missing; nothing was run")
    record = workdir / "gc_entry.jsonl"
    text = text.replace(ANCHOR, PATCH.format(record=str(record)))
    child.write_text(text, encoding="utf-8")
    return record


def entries(workload: str, seed: int, seconds: float) -> collections.Counter:
    """The ``(count, generations)`` pairs of one invocation of the copy's
    ``run.py``, with the number of runs that gave each."""
    with tempfile.TemporaryDirectory() as workdir:
        record = patched_copy(Path(workdir))
        command = [
            sys.executable, str(Path(workdir) / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        ]
        # no byte code is written through the link into src/
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        subprocess.run(command, cwd=workdir, env=env, check=True, capture_output=True)
        lines = record.read_text(encoding="utf-8").splitlines()
    return collections.Counter(
        (tuple(count), tuple(generations)) for count, generations in map(json.loads, lines)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="a workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1, help="the inputs' seed (default: 1)")
    parser.add_argument(
        "--seconds", type=float, default=5.0, help="run.py's --seconds (default: 5)"
    )
    args = parser.parse_args(argv)
    if any((ROOT / "src").rglob("__pycache__")):
        print(
            "note: src/ holds cached byte code, which the runs load: the counts are"
            " those of a checkout whose __pycache__ is kept",
            file=sys.stderr,
        )
    for workload in args.workload or WORKLOADS:
        for (count, generations), runs in sorted(entries(workload, args.seed, args.seconds).items()):
            print(f"{workload}: {count} {list(generations)} in {runs} runs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
