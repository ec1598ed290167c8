"""Two source trees of redtype in one process, and a paired timer for them.

The probes that take ``--against OTHER_SRC`` compare two trees side by
side, because standalone timings drift more between runs on a shared
host than the ratio of two trees timed in one process.  The package
imports its own modules relatively only, so a second tree is imported
under another package name.

- ``load(src, package)``: the redtype package under ``src``, imported as
  ``package``, with every one of its modules.
- ``paired(calls, rounds)``: each call's timings over ``rounds`` rounds,
  alternating which call goes first.
- ``against(ours, theirs)``: the ratios of two such lists, pair by pair:
  their median and quartiles, and the pairs ``ours`` won.
"""

from __future__ import annotations

import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence


def load(src: str, package: str) -> SimpleNamespace:
    """The redtype package under ``src``, imported as ``package``, and all its modules by name."""
    root = Path(src, "redtype")
    spec = importlib.util.spec_from_file_location(package, root / "__init__.py", submodule_search_locations=[str(root)])
    assert spec is not None and spec.loader is not None
    sys.modules[package] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[package])
    names = sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in names})


def paired(calls: Sequence[Callable[[], float]], rounds: int) -> list[list[float]]:
    """What each call returned (a time) in each round; odd rounds run the calls in reverse order."""
    times: list[list[float]] = [[] for _ in calls]
    for i in range(rounds):
        order = range(len(calls)) if i % 2 == 0 else reversed(range(len(calls)))
        for k in order:
            times[k].append(calls[k]())
    return times


def against(ours: list[float], theirs: list[float]) -> dict:
    """Theirs over ours, pair by pair (above 1 when ours is faster): median, quartiles and wins."""
    ratios = [t / o for o, t in zip(ours, theirs)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "pairs": len(ratios),
        "ratio_median": round(median, 3),
        "ratio_q1": round(q1, 3),
        "ratio_q3": round(q3, 3),
        "wins": sum(r > 1 for r in ratios),
    }
