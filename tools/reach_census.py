"""List the functions under ``src/`` that no command line of the report digest calls.

Every command line of ``tools/report_digest.py`` (its ``command_lines``, run
through its ``report``, both only read) runs once in this process under
``sys.setprofile``, which records the code of every Python frame that
starts.  A function counts as reached when its code ran at least once,
the import of the package included.  A function is a ``def`` anywhere in a
module under ``src/``, a method or a nested one; lambdas and comprehensions
are not counted.  Its lines run from its first decorator to its last line.
The output is one line per unreached function, ``path:line  qualified name
(n lines)``, in file order, then the totals::

    python3 tools/reach_census.py
    python3 tools/reach_census.py --workload file-checks --seed 1
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def functions(path: Path) -> list[tuple[int, str, int]]:
    """``(first line, qualified name, line count)`` of every ``def`` in the
    module at ``path``, in file order."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = prefix + child.name
                found.append((first, name, child.end_lineno - first + 1))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sorted(found)


def census(workloads=None, seeds=None) -> tuple[list, int, int]:
    """``(unreached, function count, line count)``: the unreached functions
    as ``(path, first line, name, lines)`` and the totals over ``src/``; the
    digest's workloads and seeds by default."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)  # before the import, whose calls count as well
    try:
        sys.path.insert(0, str(ROOT / "tools"))
        import report_digest

        workloads = workloads or sorted(report_digest.JOB_LISTS)
        seeds = seeds or report_digest.SEEDS
        with tempfile.TemporaryDirectory() as workdir:
            for _, argv in report_digest.command_lines(workloads, seeds, Path(workdir)):
                report_digest.report(argv)
    finally:
        sys.setprofile(None)
    reached = {
        (Path(code.co_filename).resolve(), code.co_firstlineno) for code in called
    }
    unreached, count, lines = [], 0, 0
    for path in sorted(SRC.rglob("*.py")):
        for first, name, length in functions(path):
            count += 1
            lines += length
            if (path.resolve(), first) not in reached:
                unreached.append((path.relative_to(ROOT), first, name, length))
    return unreached, count, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="a benchmark workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seed", action="append", type=int, help="a seed (repeatable; default: the digest's)"
    )
    args = parser.parse_args(argv)
    unreached, count, lines = census(args.workload, args.seed)
    for path, first, name, length in unreached:
        print(f"{path}:{first}  {name} ({length} lines)")
    unreached_lines = sum(length for *_, length in unreached)
    print(
        f"unreached: {len(unreached)} of {count} functions, "
        f"{unreached_lines} of {lines} lines"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
