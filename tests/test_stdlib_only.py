"""The runtime imports nothing outside the standard library, and exports only what it has."""

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


def test_every_exported_name_resolves_once():
    assert [name for name in redtype.__all__ if not hasattr(redtype, name)] == []
    assert len(set(redtype.__all__)) == len(redtype.__all__)
