"""The package's export list matches what its ``__init__`` imports, and
every function the benchmark traces by name is still defined."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rbsinfty

ROOT = Path(__file__).resolve().parents[1]


def _imported_public_names():
    tree = ast.parse(Path(rbsinfty.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from rbsinfty import *", namespace)
    assert set(rbsinfty.__all__) <= namespace.keys()


def test_export_list_is_the_set_of_imported_public_names():
    assert len(rbsinfty.__all__) == len(set(rbsinfty.__all__))
    assert set(rbsinfty.__all__) == _imported_public_names()


def test_every_traced_name_is_still_defined():
    # perfbench/tracer.py wraps each name of its LAYERS where the module or
    # class body defines it; a name that left would read null in every traced
    # run.  The tracer is installed in a child interpreter after importing the
    # CLI, as perfbench/child.py does, so nothing in this process is wrapped.
    script = (
        "import json\n"
        "from rbsinfty import cli\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps(tracer.missing))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(child.stdout) == []
