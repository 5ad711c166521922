"""List the functions under ``src/`` that no command line calls.

Every command line of ``tools/report_digest.py`` (its ``command_lines``, run
through its ``report``, both only read) runs once in this process under
``sys.setprofile``, which records the code of every Python frame that
starts, and so do the failing and refused lines below, which reach the code
that prints witnesses and refusals.  A function counts as reached when its
code ran at least once, the import of the package included.  A function is
a ``def`` anywhere in a module under ``src/``, a method or a nested one;
lambdas and comprehensions are not counted.  Its lines run from its first
decorator to its last line.  The output is one line per unreached function,
``path:line  qualified name (n lines)``, in file order, then the totals::

    python3 tools/reach_census.py
    python3 tools/reach_census.py --workload file-checks --seed 1
    python3 tools/reach_census.py --check

With ``--check`` it prints only the unreached functions that nothing
accounts for, and exits 1 if there is one.  An unreached function is
accounted for when it is

* declared API: listed under "Library API" in ``README.md``, as a module's
  name or as a member in parentheses after its class; a listed class
  brings its special methods (``__eq__``, ``__repr__``, ...) and a listed
  function the functions nested in it;
* a name that ``perfbench/tracer.py`` traces (its ``LAYERS``);
* a private helper (a name starting with one underscore) that only such
  functions refer to.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# failing command lines: each runs with a stand-in for one function of the
# library whose image of one generator has its first term negated, as
# ``(module, function, (family, arity), argv)``
FAILING = (
    ("minimal_model", "diff_generator", ("m", 4), ["verify", "d-squared", "--max-arity", "5"]),
    (
        "monomial_model", "diff_bar", ("m", 3),
        ["verify", "homotopy", "--max-arity", "3", "--max-weight", "3"],
    ),
)
# refused command lines: a file command on a file holding this JSON text
REFUSED = ((["check", "rbs"], "[]"),)


def functions(path: Path) -> list[tuple[int, str, int, set]]:
    """``(first line, qualified name, line count, names)`` of every ``def``
    in the module at ``path``, in file order; ``names`` are the names its
    own body refers to (a name, or an attribute name), the bodies of the
    functions nested in it left out."""
    found = []

    def visit(node, prefix, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name, own = prefix + child.name, set()
                found.append((first, name, child.end_lineno - first + 1, own))
                visit(child, name + ".<locals>.", own)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", names)
            else:
                if isinstance(child, ast.Name):
                    names.add(child.id)
                elif isinstance(child, ast.Attribute):
                    names.add(child.attr)
                visit(child, prefix, names)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", set())
    return sorted(found, key=lambda entry: entry[:3])


@contextlib.contextmanager
def _negated_first_term(module_name: str, function: str, generator: tuple):
    """The library's ``module.function`` replaced, while the block runs, by a
    stand-in that negates the first term of the image of one generator."""
    from rbsinfty import trees

    module = sys.modules[f"rbsinfty.{module_name}"]
    real, target = getattr(module, function), trees.gen(*generator)

    def stand_in(g):
        image = real(g)
        if g != target:
            return image
        first = next(iter(image.terms))
        return trees.OperadElement(
            image.arity, {t: -c if t == first else c for t, c in image.terms.items()}
        )

    setattr(module, function, stand_in)
    try:
        yield
    finally:
        setattr(module, function, real)


def census(workloads=None, seeds=None) -> tuple[list, int, int]:
    """``(unreached, function count, line count)``: the unreached functions
    as ``(path, first line, name, lines)`` and the totals over ``src/``; the
    digest's workloads and seeds by default."""
    called = set()

    def profile(frame, event, arg, add=called.add):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(profile)  # before the import, whose calls count as well
    try:
        sys.path.insert(0, str(ROOT / "tools"))
        import report_digest

        workloads = workloads or sorted(report_digest.JOB_LISTS)
        seeds = seeds or report_digest.SEEDS
        with tempfile.TemporaryDirectory() as workdir:
            for _, argv in report_digest.command_lines(workloads, seeds, Path(workdir)):
                report_digest.report(argv)
            for module, function, generator, argv in FAILING:
                with _negated_first_term(module, function, generator):
                    report_digest.report(argv)
            for number, (command, text) in enumerate(REFUSED):
                path = Path(workdir) / f"refused-{number}.json"
                path.write_text(text, encoding="utf-8")
                report_digest.report(command + [str(path)])
    finally:
        sys.setprofile(None)
    reached = {
        (Path(code.co_filename).resolve(), code.co_firstlineno) for code in called
    }
    unreached, count, lines = [], 0, 0
    for path in sorted(SRC.rglob("*.py")):
        for first, name, length, _ in functions(path):
            count += 1
            lines += length
            if (path.resolve(), first) not in reached:
                unreached.append((path.relative_to(ROOT), first, name, length))
    return unreached, count, lines


def declared_api(readme: Path = ROOT / "README.md") -> set[tuple[str, str]]:
    """``(module, name)`` of every name the README's "Library API" section
    declares: ``Class.member`` for a member listed after its class."""
    text = readme.read_text(encoding="utf-8")
    section = re.search(r"^## Library API\n(.*?)(?=^## )", text, re.M | re.S)
    if section is None:
        raise SystemExit("README.md has no 'Library API' section")
    declared = set()
    for module, body in re.findall(
        r"^- `rbsinfty\.(\w+)`: (.*?)$", section.group(1), re.M
    ):
        for name, members in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", body):
            declared.add((module, name))
            declared.update((module, f"{name}.{m}") for m in re.findall(r"`(\w+)`", members))
    return declared


def traced_names() -> set[tuple[str, str]]:
    """``(module, name)`` of every function ``perfbench/tracer.py`` wraps; its
    ``LAYERS`` is read from the source, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return {(layer, name) for layer, name, _ in ast.literal_eval(node.value)}
    raise SystemExit("perfbench/tracer.py defines no LAYERS")


def unaccounted(unreached) -> list:
    """The entries of ``unreached`` that are not declared API, traced names or
    private helpers of those alone (see the module docstring)."""
    declared = declared_api() | traced_names()
    definitions = {
        (path.stem, name): refers
        for path in sorted(SRC.rglob("*.py"))
        for _, name, _, refers in functions(path)
    }
    missing = {(Path(path).stem, name) for path, _, name, _ in unreached}

    def declared_here(module, name):
        owner, _, member = name.rpartition(".")
        return (
            (module, name) in declared
            or ("<locals>" in owner and allowed(module, owner.rsplit(".<locals>", 1)[0]))
            or (member.startswith("__") and member.endswith("__") and (module, owner) in declared)
        )

    allowed_cache: dict = {}

    def allowed(module, name):
        if (module, name) not in missing:
            return False  # reached: a reference from it is a call the census did not see
        if (module, name) not in allowed_cache:
            allowed_cache[(module, name)] = False  # a helper cycle counts as unused
            allowed_cache[(module, name)] = declared_here(module, name) or helper(name)
        return allowed_cache[(module, name)]

    def helper(name):
        short = name.rsplit(".", 1)[-1]
        if not short.startswith("_") or short.endswith("__"):
            return False
        users = [key for key, refers in definitions.items() if short in refers]
        return bool(users) and all(allowed(*user) for user in users)

    return [
        entry for entry in unreached if not allowed(Path(entry[0]).stem, entry[2])
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="a benchmark workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seed", action="append", type=int, help="a seed (repeatable; default: the digest's)"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="list only the unreached functions nothing accounts for; exit 1 if any",
    )
    args = parser.parse_args(argv)
    unreached, count, lines = census(args.workload, args.seed)
    listed = unaccounted(unreached) if args.check else unreached
    for path, first, name, length in listed:
        print(f"{path}:{first}  {name} ({length} lines)")
    unreached_lines = sum(length for *_, length in unreached)
    print(
        f"unreached: {len(unreached)} of {count} functions, "
        f"{unreached_lines} of {lines} lines"
    )
    if args.check:
        print(f"unaccounted for: {len(listed)}")
        return 1 if listed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
