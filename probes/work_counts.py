"""Deterministic work per layer: Python opcodes executed and calls made.

Usage, from the repository root:

  python3 probes/work_counts.py [--workloads wide-keys queue-resp sinter-resp fuzz] [--seed 7]
                                [--scale 1.0] [--iterations 300] [--src src] [--against OTHER_SRC]

For each benchmark workload, generated by ``bench/workloads.py`` at
--seed and --scale, counts the work of each layer on the workload's
program:

- ``parse``: ``parser.parse_program`` of its source;
- ``check``: ``checker.check_program`` of the tree, from ``[]``;
- ``run``: ``backend.run_program`` of the checked tree on a fresh mem
  backend (the RESP workloads' programs run on mem here too).

The fuzz workload adds one ``fuzz.run_fuzz`` pass of --iterations
programs at its seed, split by the code that runs: ``fuzz.gen`` inside
``fuzz.generate_program`` (the draws and the checker steps that classify
them), ``fuzz.check`` inside ``checker.check_program`` (the trial's
check), ``fuzz.trial`` in the rest of ``fuzz._trial`` (the run on mem and
its classification), and ``fuzz.loop``, ``run_fuzz``'s own loop and the
shrinker's.

Per layer: ``opcodes``, the Python bytecode instructions executed,
through ``sys.settrace`` with ``f_trace_opcodes``; ``calls``, the Python
frames entered (a generator's resumption is one), and ``c_calls``, the
calls of functions written in C, both through ``sys.setprofile``.  Each
workload's layers run once untraced first, so that work done once per
process (a regex compiled into ``re``'s cache, which two trees share, or
a record's codec built) counts in neither tree.  Each layer is counted
with the cyclic collector off, so that no collection, which depends on
allocation history, runs a finalizer inside the count.
The counts repeat exactly across processes and hash seeds for one
interpreter, which each object names, so a change in the work a layer
does shows without wall time's noise.  They are a sign, not a speed: a
C call is one call however much it scans (a regex match, ``str.find``,
``int()``), and a frame costs far more than a plain opcode.  Prints one
JSON object per workload.

--against OTHER_SRC counts a second tree in the same process, imported
under another package name (``_trees.load``), and adds "against":
OTHER_SRC's counts and, per layer, --src's opcodes over OTHER_SRC's
(below 1 when --src does less work).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
from collections import Counter
from pathlib import Path
from types import CodeType, SimpleNamespace
from typing import Any, Callable

from _trees import load

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (the benchmark's program generators)

KINDS = ("opcodes", "calls", "c_calls")


class Tally:
    """Counts by layer; the layer of the running code is kept on a stack of frames."""

    def __init__(self, layers: dict[CodeType, str], root: str):
        self.layers = layers
        self.stack = [root]
        self.counts = {kind: Counter() for kind in KINDS}

    def trace(self, frame, event: str, arg: Any):  # type: ignore[no-untyped-def]
        """The global trace function: called on entry to each new frame."""
        self.stack.append(self.layers.get(frame.f_code, self.stack[-1]))
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self.local

    def local(self, frame, event: str, arg: Any):  # type: ignore[no-untyped-def]
        if event == "opcode":
            self.counts["opcodes"][self.stack[-1]] += 1
        elif event == "return":
            self.stack.pop()
        return self.local

    def profile(self, frame, event: str, arg: Any) -> None:
        if event == "call":
            self.counts["calls"][self.layers.get(frame.f_code, self.stack[-1])] += 1
        elif event == "c_call" and arg is not sys.setprofile:
            self.counts["c_calls"][self.stack[-1]] += 1


def counted(
    fn: Callable[..., Any], *args: Any, root: str, layers: dict[CodeType, str] | None = None
) -> tuple[Any, dict]:
    """``fn(*args)`` and its counts per layer, as the module docstring defines them."""
    tally = Tally(layers or {}, root)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(tally.trace)
    sys.setprofile(tally.profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
        if collecting:
            gc.enable()
    names = sorted(set().union(*tally.counts.values()))
    return result, {name: {kind: tally.counts[kind][name] for kind in KINDS} for name in names}


def uncounted(fn: Callable[..., Any], *args: Any, **_: Any) -> tuple[Any, dict]:
    return fn(*args), {}


def work(rt: SimpleNamespace, wl: workloads.Workload, iterations: int, count: Callable[..., tuple[Any, dict]]) -> dict:
    """One tree's counts per layer on one workload, through ``count``: ``counted`` or ``uncounted``."""
    program, out = count(rt.parser.parse_program, wl.source, root="parse")
    report, checked = count(rt.checker.check_program, program, [], False, root="check")
    assert isinstance(report, rt.checker.CheckOk), report
    outcome, ran = count(rt.backend.run_program, program, report, rt.backend.MemoryBackend(), root="run")
    assert not isinstance(outcome, rt.backend.RunError), outcome
    out.update(checked)
    out.update(ran)
    if wl.name == "fuzz":
        layers = {
            rt.fuzz.generate_program.__code__: "fuzz.gen",
            rt.checker.check_program.__code__: "fuzz.check",
            rt.fuzz._trial.__code__: "fuzz.trial",
        }
        config = rt.fuzz.FuzzConfig(iterations=iterations, seed=wl.fuzz_seed)
        result, fuzzed = count(rt.fuzz.run_fuzz, config, layers=layers, root="fuzz.loop")
        assert result.counterexample is None, result.failure
        out.update(fuzzed)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", choices=list(workloads.GENERATORS), default=list(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--iterations", type=int, default=300, help="programs in the fuzz workload's pass")
    ap.add_argument("--src", default="src")
    ap.add_argument("--against", metavar="OTHER_SRC")
    args = ap.parse_args()

    rt = load(args.src, "redtype")
    other = None if args.against is None else load(args.against, "redtype_against")
    interpreter = f"{platform.python_implementation()} {platform.python_version()}"
    for name in args.workloads:
        wl = workloads.GENERATORS[name](args.seed, args.scale)
        for tree in (rt, other) if other else (rt,):
            work(tree, wl, args.iterations, uncounted)
        ours = work(rt, wl, args.iterations, counted)
        report = {"workload": name, "seed": args.seed, "scale": args.scale, "interpreter": interpreter, "layers": ours}
        if other is not None:
            theirs = work(other, wl, args.iterations, counted)
            ratios = {layer: round(ours[layer]["opcodes"] / theirs[layer]["opcodes"], 4) for layer in ours}
            report["against"] = {"src": args.against, "layers": theirs, "opcodes_ratio": ratios}
        print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
