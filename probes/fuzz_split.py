"""Where one ``run_fuzz`` pass spends its time, and which nodes it builds the slow way.

Usage, from the repository root:

  python3 probes/fuzz_split.py [--iterations 2000] [--seed 7] [--strict] [--repeat 5] [--src src]

First times the pass unwrapped (minimum over --repeat passes).  Then
runs it --repeat more times with three names wrapped in timers, and
reports the minimum of each share: the generator's draws
(``fuzz._Generator.draw``), the checker's classification of those draws
(``checker._step`` outside a trial, split into accepted and rejected
calls) and the trials (``fuzz._trial``: check, and run on mem if
accepted).  The wrapped calls cost a timer each, so the shares add up
to more than the unwrapped pass; the rest of generation is ``step``'s
own bookkeeping.  The same wrappers count, per opcode, the draws and
the share of them that ``checker._step`` accepts.  Last, one more pass
counts the calls of every Python-level ``__new__`` of a named tuple node
class; a node built by ``tuple.__new__`` or taken from a table of shared
nodes costs none.
Prints one JSON object.  --src selects the source tree to import
redtype from, so that two checkouts can be compared with the same probe.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from collections import Counter


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--src", default="src")
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    from redtype import backend, checker, codec, fuzz, store, syntax, typedict

    config = fuzz.FuzzConfig(args.iterations, args.seed, strict=args.strict)
    clock = time.perf_counter

    def one_pass() -> float:
        t0 = clock()
        fuzz.run_fuzz(config)
        return clock() - t0

    one_pass()  # warm up
    pass_s = min(one_pass() for _ in range(args.repeat))

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
        for _ in range(args.repeat):
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

    print(json.dumps({
        "iterations": args.iterations,
        "seed": args.seed,
        "strict": args.strict,
        "pass_s": round(pass_s, 4),
        **{k: round(v, 4) for k, v in sorted(best.items())},
        "calls": dict(sorted(calls.items())),
        "opcodes": {
            op: {"draws": n, "accepted_share": round(opcode_accepted[op] / n, 3)}
            for op, n in sorted(opcode_draws.items())
        },
        "python_new_calls": dict(news.most_common()),
    }))


if __name__ == "__main__":
    main()
