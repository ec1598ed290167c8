"""The runtime imports nothing outside the standard library, uses what it imports, and exports only what it has."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import redtype

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "redtype").glob("*.py"))


def test_every_package_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "checker.py", "cli.py", "codec.py", "resp.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_from_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Unused unless it is re-exported in ``__all__`` or its line says ``# noqa: F401`` and why."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = ast.parse("\n".join(lines), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    excused = {name for name, line in imported.items() if lines[line - 1].partition("# noqa: F401")[2].strip()}
    assert sorted(set(imported) - used - exported - excused) == []


def test_every_exported_name_resolves_once():
    assert [name for name in redtype.__all__ if not hasattr(redtype, name)] == []
    assert len(set(redtype.__all__)) == len(redtype.__all__)
