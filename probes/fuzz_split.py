"""Where one ``run_fuzz`` pass spends its time, and which nodes it builds the slow way.

Usage, from the repository root:

  python3 probes/fuzz_split.py [--iterations 2000] [--seed 7] [--strict] [--repeat 5] [--src src]
                               [--against OTHER_SRC]

First times the pass unwrapped (minimum over --repeat passes).  Then
runs it --repeat more times with three names wrapped in timers, and
reports the minimum of each share: the generator's draws
(``fuzz._Generator.draw``), the checker's classification of those draws
(``checker._step`` outside a trial, split into accepted and rejected
calls) and the trials (``fuzz._trial``: check, and run on mem if
accepted).  The wrapped calls cost a timer each, so the shares add up
to more than the unwrapped pass; the rest of generation is ``step``'s
own bookkeeping.  The same wrappers count, per opcode, the draws and
the number and share of them that ``checker._step`` accepts.  Last, one
more pass counts the calls of every Python-level ``__new__`` of a named tuple node
class; a node built by ``tuple.__new__`` or taken from a table of shared
nodes costs none.
Prints one JSON object.  --src selects the source tree to import
redtype from, so that two checkouts can be compared with the same probe.

--against OTHER_SRC compares two trees in one process, because standalone
timings of one tree drift more between runs on a shared host than the
ratio of two trees timed side by side.  The package imports its own
modules relatively only, so OTHER_SRC's redtype is imported a second
time under another package name.  The probe then runs --repeat pairs of
whole unwrapped passes, one of each tree, alternating which goes first
(``_trees.paired``), and adds "against": the median and quartiles of
OTHER_SRC's pass time over --src's (above 1 when --src is faster), the
number of pairs --src won, and whether both trees drew the same
per-opcode draw and accept counts.  It exits 1 if they did not.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from collections import Counter
from types import SimpleNamespace

from _trees import against, load, paired

clock = time.perf_counter


def timed_pass(rt: SimpleNamespace, config: object) -> float:
    t0 = clock()
    rt.fuzz.run_fuzz(config)
    return clock() - t0


def split(rt: SimpleNamespace, config: object, repeat: int) -> dict:
    """One tree's figures for one FuzzConfig of that tree, as the module docstring lists them."""
    backend, checker, codec, fuzz, store, syntax, typedict = (
        rt.backend, rt.checker, rt.codec, rt.fuzz, rt.store, rt.syntax, rt.typedict
    )
    timed_pass(rt, config)  # warm up
    pass_s = min(timed_pass(rt, config) for _ in range(repeat))

    totals = Counter()
    calls = Counter()
    opcode_draws = Counter()
    opcode_accepted = Counter()
    in_trial = False
    real_draw, real_step, real_trial = fuzz._Generator.draw, checker._step, fuzz._trial

    def draw(self, *a):  # type: ignore[no-untyped-def]
        t0 = clock()
        cmd = real_draw(self, *a)
        totals["draw_s"] += clock() - t0
        calls["draws"] += 1
        opcode_draws[cmd.opcode] += 1
        return cmd

    def step(*a):  # type: ignore[no-untyped-def]
        if in_trial:
            return real_step(*a)
        t0 = clock()
        verdict = "rejected"
        try:
            result = real_step(*a)
            verdict = "accepted"
            opcode_accepted[a[3].opcode] += 1
            return result
        finally:
            totals[f"step_{verdict}_s"] += clock() - t0
            calls[f"steps_{verdict}"] += 1

    def trial(*a):  # type: ignore[no-untyped-def]
        nonlocal in_trial
        t0 = clock()
        in_trial = True
        try:
            return real_trial(*a)
        finally:
            in_trial = False
            totals["trial_s"] += clock() - t0
            calls["trials"] += 1

    best: dict[str, float] = {}
    fuzz._Generator.draw, checker._step, fuzz._trial = draw, step, trial
    try:
        for _ in range(repeat):
            for counter in (totals, calls, opcode_draws, opcode_accepted):
                counter.clear()
            t0 = clock()
            fuzz.run_fuzz(config)
            totals["wrapped_pass_s"] = clock() - t0
            for name, s in totals.items():
                best[name] = min(best.get(name, s), s)
    finally:
        fuzz._Generator.draw, checker._step, fuzz._trial = real_draw, real_step, real_trial

    # Count the Python-level constructors: each node class whose __new__ is a
    # Python function gets, for one pass, a counting wrapper of its own.
    news = Counter()
    patched: dict[type, object] = {}
    for module in (syntax, checker, codec, store, backend, typedict, fuzz):
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, syntax.Node) and issubclass(cls, tuple)):
                continue
            new = cls.__new__
            if cls in patched or not inspect.isfunction(new):
                continue

            def counted(c, *a, _new=new, _name=cls.__name__, **kw):  # type: ignore[no-untyped-def]
                news[_name] += 1
                return _new(c, *a, **kw)

            patched[cls] = vars(cls).get("__new__")
            cls.__new__ = staticmethod(counted)
    try:
        fuzz.run_fuzz(config)
    finally:
        for cls, own in patched.items():
            if own is None:
                del cls.__new__
            else:
                cls.__new__ = own

    return {
        "iterations": config.iterations,
        "seed": config.seed,
        "strict": config.strict,
        "pass_s": round(pass_s, 4),
        **{k: round(v, 4) for k, v in sorted(best.items())},
        "calls": dict(sorted(calls.items())),
        "opcodes": {
            op: {"draws": n, "accepted": opcode_accepted[op], "accepted_share": round(opcode_accepted[op] / n, 3)}
            for op, n in sorted(opcode_draws.items())
        },
        "python_new_calls": dict(news.most_common()),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--src", default="src")
    ap.add_argument("--against", metavar="OTHER_SRC")
    args = ap.parse_args()

    rt = load(args.src, "redtype")
    config = rt.fuzz.FuzzConfig(args.iterations, args.seed, strict=args.strict)
    report = split(rt, config, args.repeat)
    if args.against is None:
        print(json.dumps(report))
        return
    other = load(args.against, "redtype_against")
    other_config = other.fuzz.FuzzConfig(args.iterations, args.seed, strict=args.strict)
    same = split(other, other_config, args.repeat)["opcodes"] == report["opcodes"]
    ours, theirs = paired([lambda: timed_pass(rt, config), lambda: timed_pass(other, other_config)], args.repeat)
    report["against"] = {"src": args.against, **against(ours, theirs), "opcodes_equal": same}
    print(json.dumps(report))
    if not same:
        sys.exit(1)


if __name__ == "__main__":
    main()
