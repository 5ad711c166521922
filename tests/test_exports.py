"""The package's export list matches what its ``__init__`` imports."""

import ast
from pathlib import Path

import rbsinfty


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
