"""The runtime imports nothing outside the standard library, uses what it imports, and exports only what it has.

Importing one layer loads only that layer and the layers it imports.
"""

from __future__ import annotations

import ast
import os
import subprocess
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


def test_dir_lists_every_exported_name():
    assert set(redtype.__all__) <= set(dir(redtype))


def loaded_after(code: str) -> set[str]:
    """The redtype modules a fresh interpreter holds after running ``code``."""
    report = "import sys; print(' '.join(m for m in sys.modules if m.startswith('redtype')))"
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


def test_the_store_and_the_wire_codec_load_no_other_layer():
    loaded = loaded_after("import redtype.store, redtype.resp")
    assert "redtype.store" in loaded and "redtype.resp" in loaded
    assert loaded.isdisjoint({"redtype.checker", "redtype.parser", "redtype.backend", "redtype.fuzz", "redtype.cli"})


def test_check_does_not_load_the_fuzzer(tmp_path):
    f = tmp_path / "p.rt"
    f.write_text("program { set k 1  incr k }")
    loaded = loaded_after(f"from redtype import cli\nassert cli.main(['check', {str(f)!r}]) == 0")
    assert "redtype.checker" in loaded and "redtype.fuzz" not in loaded
