"""The benchmark's tracer (bench/tracing.py) wraps redtype names by name.

Renaming or removing a name it wraps breaks `bench/run.py --trace 1`;
these tests catch that without running the benchmark itself.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _redtype() -> SimpleNamespace:
    """The namespace bench/run.py hands to Tracer.install, over the loaded modules."""
    return SimpleNamespace(**{m: importlib.import_module(f"redtype.{m}") for m in run.MODULES})


def _owners(rt: SimpleNamespace) -> list[object]:
    classes = [rt.backend.MemoryBackend, rt.backend.RespBackend, rt.store.MemoryStore]
    return [getattr(rt, m) for m in run.MODULES] + classes


def test_tracer_installs_on_every_traced_name_and_restores_the_originals(tmp_path, capsys):
    rt = _redtype()
    before = [dict(vars(owner)) for owner in _owners(rt)]
    tracer = Tracer()
    try:
        tracer.install(rt)  # fails here if a traced name no longer exists
        replaced = sum(
            1 for owner, old in zip(_owners(rt), before) for name, value in vars(owner).items() if old.get(name) is not value
        )
        assert replaced == len(tracer._saved) > 0
        program = tmp_path / "p.rt"
        program.write_text("program { set k 5  n <- incr k  get k }")
        tracer.set_phase("run")
        assert rt.cli.main(["run", str(program)]) == 0
        tracer.set_phase(None)
    finally:
        tracer.remove()
    assert capsys.readouterr().out == "just 6\n"
    spans = [tracer.names[i] for i in tracer.name]
    assert {"cli.main", "checker.check", "backend.run", "backend.send", "store.exec"} <= set(spans)
    # The runtime decodes by the checker's recorded result types; it never re-checks.
    assert "backend.recheck" not in spans
    after = [dict(vars(owner)) for owner in _owners(rt)]
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)
