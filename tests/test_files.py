"""Every file driftwatch reads or writes goes through ``driftwatch.files``."""

import ast
from pathlib import Path

import pytest

import driftwatch

PACKAGE = Path(driftwatch.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def calls_open(tree):
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "open"
               for node in ast.walk(tree))


def imported_modules(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_files_opens_files(path):
    tree = ast.parse(path.read_text())
    assert calls_open(tree) == (path.stem == "files")
    if path.stem in ("tensor", "ocsvm"):
        assert not imported_modules(tree) & {"csv", "json", "os"}
