"""The reach census guards ``src/``: every function that no command line
runs is declared API, traced by the benchmark, or a private helper of those
alone (``tools/reach_census.py --check``)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import reach_census  # noqa: E402

GRADED = Path("src/rbsinfty/graded.py")
TREES = Path("src/rbsinfty/trees.py")


def test_every_unreached_function_is_accounted_for():
    # a child interpreter, so that the import of the package is counted too
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach_census.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.splitlines()[-1] == "unaccounted for: 0"


def test_an_undeclared_function_is_unaccounted_for():
    unreached = [
        (GRADED, 1, "MultiMap.combination", 1),  # declared member
        (GRADED, 2, "MultiMap.__sub__", 1),  # special method of a declared class
        (GRADED, 3, "compose_tensor", 1),  # traced by the benchmark
        (TREES, 4, "parse_tree", 1),  # declared
        (TREES, 4, "parse_tree.<locals>.lookup", 1),  # nested in it
        (TREES, 5, "_grafts", 1),  # used only by traced compose_at and brace
        (TREES, 6, "compose_at", 1),
        (TREES, 7, "brace", 1),
        (GRADED, 8, "MultiMap.undeclared", 1),
        (GRADED, 9, "undeclared", 1),
        (TREES, 10, "_row_terms", 1),  # also used by reached functions
    ]
    flagged = [name for _, _, name, _ in reach_census.unaccounted(unreached)]
    assert flagged == ["MultiMap.undeclared", "undeclared", "_row_terms"]


def test_the_readme_declares_every_exported_name():
    import rbsinfty

    declared = {name for _, name in reach_census.declared_api()}
    assert set(rbsinfty.__all__) <= declared
