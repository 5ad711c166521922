"""Print one SHA-256 per CLI report and one over all of them.

A report is the exit code and the stdout of ``rbsinfty.cli.main`` for one
command line.  The command lines are the jobs of the benchmark workloads
(``perfbench/workloads.py``, only read) at the given seeds, the longer
verifications in ``EXTRA`` and one command per saved input
``tests/data/*_input.json``.  Running it in two
checkouts and comparing the outputs shows whether a change keeps every
report byte for byte::

    python3 tools/report_digest.py > digests.txt
    python3 tools/report_digest.py --workload operad-d2 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.workloads import JOB_LISTS, build  # noqa: E402
from rbsinfty import cli  # noqa: E402

SEEDS = (1, 4242)

# verifications longer than any benchmark job
EXTRA = (
    ["verify", "d-squared", "--presentation", "mrs", "--max-arity", "6"],
    ["verify", "d-squared", "--presentation", "xyz", "--max-arity", "6"],
    ["verify", "d-squared", "--presentation", "mrs", "--max-arity", "7"],
    ["verify", "d-squared", "--presentation", "xyz", "--max-arity", "7"],
    ["verify", "homotopy", "--max-arity", "4", "--max-weight", "5"],
)

# the commands run on a saved input, by the first word of its file name
DATA_COMMANDS = {
    "aybe": (["check", "aybe-infinity"],),
    "hrbs": (["check", "hrbs"],),
    "mc": (["check", "mc"],),
    "rbs": (["check", "rbs"], ["convert", "rbs-to-ybp"]),
    "ybp": (["check", "ybp"], ["convert", "ybp-to-rbs"]),
}


def report(argv: list[str]) -> bytes:
    """The exit code and the stdout of `main` on ``argv``, as one byte string."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return f"{code}\n{buffer.getvalue()}".encode("utf-8")


def digest_lines(command_lines):
    """One ``"<sha256>  <label>"`` line per ``(label, argv)``, then the line
    of the total: the SHA-256 over the hex digests before it."""
    total = hashlib.sha256()
    for label, argv in command_lines:
        digest = hashlib.sha256(report(argv)).hexdigest()
        total.update(digest.encode("ascii"))
        yield f"{digest}  {label}"
    yield f"{total.hexdigest()}  total"


def command_lines(workloads, seeds, workdir: Path):
    """``(label, argv)`` of every report, in a fixed order."""
    for name in workloads:
        for seed in seeds:
            jobdir = workdir / f"{name}-{seed}"
            jobdir.mkdir()
            for job in build(name, seed, jobdir):
                yield f"{name} {seed}: {job['label']}", job["argv"]
    for argv in EXTRA:
        yield " ".join(argv), argv
    for path in sorted((ROOT / "tests" / "data").glob("*_input.json")):
        for command in DATA_COMMANDS[path.name.split("_")[0]]:
            yield f"{' '.join(command)} {path.name}", command + [str(path)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(JOB_LISTS),
        help="a workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seed", action="append", type=int, help=f"a seed (repeatable; default: {SEEDS})"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        lines = command_lines(args.workload or sorted(JOB_LISTS), args.seed or SEEDS, Path(workdir))
        for line in digest_lines(lines):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
