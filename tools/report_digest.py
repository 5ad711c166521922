"""Print one SHA-256 per CLI report and one over all of them.

A report is the exit code, the stdout and the stderr of
``rbsinfty.cli.main`` for one command line.  The command lines are the jobs
of the benchmark workloads (``perfbench/workloads.py``, only read) at the
given seeds, the longer verifications in ``EXTRA``, ``check mc`` on the
dense cochains of ``tools/dense_cochain.py`` in ``DENSE``, one command per
saved input ``tests/data/*_input.json``, the help and refused lines in
``PARSER_LINES``, which argparse answers, and the saved inputs with a field
outside their format in ``UNKNOWN_FIELDS``.  Running it in two checkouts and
comparing the outputs shows whether a change keeps every report and every
help, usage and error text byte for byte::

    python3 tools/report_digest.py > digests.txt
    python3 tools/report_digest.py --workload operad-d2 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "tools"))

from dense_cochain import dense_cochain  # noqa: E402
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
    ["verify", "homotopy", "--max-arity", "2", "--max-weight", "7"],
    ["verify", "homotopy", "--max-arity", "3", "--max-weight", "5"],
)

# ``(degrees, seed, truncations)`` of the dense cochains that ``check mc`` reads,
# as ``tools/dense_cochain.py --degrees -1 0 --seed 1 --truncation T`` writes
# them: up to four pieces per column at T = 4
DENSE = ([-1, 0], 1, (3, 4))

# help and refused lines, which the command table leaves to argparse, and a
# missing file; MC is a saved input, and the missing file is named relative
# to the checkout, so its message is the same in any checkout.  argparse wraps
# its text at the terminal width (``COLUMNS``): compare runs made at one width
MC = str(ROOT / "tests" / "data" / "mc_system_input.json")
PARSER_LINES = (
    [],
    ["-h"],
    ["--help"],
    ["verify", "-h"],
    ["check", "--help"],
    ["check", "mc", "-h"],
    ["verify", "homotopy", "--help"],
    ["convert", "rbs-to-ybp", "--h"],
    ["verify"],
    ["check", "mc"],
    ["check", "mc", MC, "extra"],
    ["check", "mc", MC, "--bogus"],
    ["verify", "d-squared", "--bogus", "--max-arity", "3"],
    ["verify", "d-squared", "--presentation", "abc"],
    ["verify", "homotopy", "--max-weight", "x"],
    ["check", "hrbs", MC, "--max-arity"],
    ["verify", "homotopy", "--max", "2"],
    ["verify", "homotopy", "--max-a", "2", "--max-w", "3"],
    ["verify", "d-squared", "--max-arity", "-3"],
    ["check", "mc", "--", MC],
    ["verify", "d-squared", "--", "--max-arity", "3"],
    ["check", "rbs", "tests/data/no_such_file.json"],
    ["bogus"],
    ["check", "bogus"],
    ["verify", "mc"],
)

# the commands run on a saved input, by the first word of its file name
DATA_COMMANDS = {
    "aybe": (["check", "aybe-infinity"],),
    "hrbs": (["check", "hrbs"],),
    "mc": (["check", "mc"],),
    "rbs": (["check", "rbs"], ["convert", "rbs-to-ybp"]),
    "ybp": (["check", "ybp"], ["convert", "ybp-to-rbs"]),
}


# a saved input with one top-level field added, for each file command and both
# formats of check mc: a field outside the file's format is refused (exit 2)
UNKNOWN_FIELDS = (
    (["check", "rbs"], "rbs_graded_input.json", {"truncation": 2}),
    (["convert", "rbs-to-ybp"], "rbs_graded_input.json", {"r": {}}),
    (["check", "ybp"], "ybp_graded_input.json", {"R": {}}),
    (["convert", "ybp-to-rbs"], "ybp_graded_input.json", {"truncation": 2}),
    (["check", "hrbs"], "hrbs_graded_input.json", {"R": {}}),
    (["check", "aybe-infinity"], "aybe_system_input.json", {"m": {}}),
    (["check", "mc"], "mc_dense_input.json", {"product": {}}),
    (["check", "mc"], "mc_system_input.json", {"degree": -1}),
)


def report(argv: list[str]) -> bytes:
    """The exit code, the stdout and the stderr of `main` on ``argv``, as one
    byte string; an empty stderr adds nothing, so the digest of a report
    that prints none is that of its exit code and stdout alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse prints help or refuses the line
            code = exc.code
    text = f"{code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr:\n{err.getvalue()}"
    return text.encode("utf-8")


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
    degrees, seed, truncations = DENSE
    for truncation in truncations:
        path = workdir / f"dense-{truncation}.json"
        cochain = dense_cochain(random.Random(seed), degrees, truncation)
        path.write_text(json.dumps(cochain), encoding="utf-8")
        yield f"check mc dense truncation {truncation}", ["check", "mc", str(path)]
    for path in sorted((ROOT / "tests" / "data").glob("*_input.json")):
        for command in DATA_COMMANDS[path.name.split("_")[0]]:
            yield f"{' '.join(command)} {path.name}", command + [str(path)]
    for argv in PARSER_LINES:
        yield "parser: " + " ".join(argv).replace(MC, "MC"), argv
    for number, (command, name, extra) in enumerate(UNKNOWN_FIELDS):
        data = json.loads((ROOT / "tests" / "data" / name).read_text(encoding="utf-8"))
        path = workdir / f"unknown-field-{number}.json"
        path.write_text(json.dumps({**data, **extra}), encoding="utf-8")
        yield f"{' '.join(command)} {name} with {', '.join(extra)}", command + [str(path)]


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
