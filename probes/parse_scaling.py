"""Parse time and memory per command as a program grows, with the collector on and off.

Usage, from the repository root:

  python3 probes/parse_scaling.py [--sizes 10000 40000 160000] [--repeat 3] [--src src]

After one untimed parse, for each size n and each of three shapes, parses a
program of n commands, one per line, --repeat times after ``gc.collect()``
and keeps the best wall time, once with the garbage collector on and once
with it off.  ``parse_program`` turns the collector off for its parse, so
the "on" column times ``parser._parse``, the same parse without that
pause, and the "off" column times ``parse_program`` itself.  The shapes are ``set``, n
``set k<i> <i>`` commands, and ``queue``, the quick-start queue: a binder
``incr``, an ``lpush`` of a record literal, an ``hset`` and an ``rpop`` per
four commands, after one ``declare``; and ``declare``, ``set k<i> 1``
lines alternating with ``declare d<i> : string<int>``, so that the
parser moves between its two paths at every command.  A shape that the
parser's statement path hands to the token path shows as a higher cost
per command.  Prints one JSON object per size and shape, with
microseconds per command;
the collector's runs and seconds per generation (0, 1, 2) during one more
parse with it on (through ``parser._parse``), taken from ``gc.callbacks``; and the ``tracemalloc``
peak of one parse, and the part of it the returned program keeps, in bytes
per source byte.  A last object gives what a parsed command keeps alive:
the objects the collector tracks after ``gc.collect()`` (reachable from
one ``set`` command, classes excluded) and the bytes ``tracemalloc`` sees
retained per command by a parse of the smallest size.  The final object
gives the first parse of a 3-command program in a fresh interpreter, in
milliseconds, best and all of --repeat interpreters: the cost of a
one-shot ``redtype check`` that the in-process sizes above never see.
--src selects the source tree to import redtype from, so that two
checkouts can be compared with the same probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
import tracemalloc


def best_parse_s(parse, source: str, repeat: int, collector: bool) -> float:
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        if not collector:
            gc.disable()
        try:
            t0 = time.perf_counter()
            parse(source)
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def collector_work(parse, source: str) -> dict[str, list]:
    """The collector's runs and seconds per generation during one parse."""
    runs = [0, 0, 0]
    seconds = [0.0, 0.0, 0.0]
    started = [0.0]

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            runs[info["generation"]] += 1
            seconds[info["generation"]] += time.perf_counter() - started[0]

    gc.collect()
    gc.callbacks.append(on_collect)
    try:
        parse(source)
    finally:
        gc.callbacks.remove(on_collect)
    return {"gc_runs": runs, "gc_s": [round(s, 4) for s in seconds]}


def traced_bytes(parse, source: str) -> tuple[int, int]:
    """The ``tracemalloc`` peak during one parse and the bytes its result keeps."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    program = parse(source)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del program
    return peak - before, kept - before


def tracked(obj: object, seen: set[int]) -> int:
    if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
        return 0
    seen.add(id(obj))
    return 1 + sum(tracked(r, seen) for r in gc.get_referents(obj))


def set_program(n: int) -> str:
    return "program {\n" + "".join(f"  set k{i} {i}\n" for i in range(n)) + "}\n"


def queue_program(n: int) -> str:
    lines = ["record Message { body: text, id: int }", "program {", "  declare counter : string<int>"]
    for i in range(n // 4):
        lines += [
            f"  i{i} <- incr counter",
            f'  lpush queue Message{{ "message {i}", i{i} }}',
            f"  hset h f{i % 8} {i * 7919}",
            "  rpop queue",
        ]
    return "\n".join(lines + ["}"]) + "\n"


def declare_program(n: int) -> str:
    pairs = (f"  set k{i} 1\n  declare d{i} : string<int>\n" for i in range(n // 2))
    return "program {\n" + "".join(pairs) + "}\n"


SHAPES = {"set": set_program, "queue": queue_program, "declare": declare_program}

# Imports the parser, then times its first parse of a small program.
_FIRST_PARSE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from redtype.parser import parse_program
t0 = time.perf_counter()
parse_program("program {\\n  set k 1\\n  incr k\\n  get k\\n}\\n")
print(time.perf_counter() - t0)
"""


def first_parse_ms(src: str, repeat: int) -> list[float]:
    """The first parse of a 3-command program in each of ``repeat`` fresh interpreters."""
    runs = []
    for _ in range(repeat):
        out = subprocess.run([sys.executable, "-c", _FIRST_PARSE, src], check=True, capture_output=True, text=True)
        runs.append(round(float(out.stdout) * 1e3, 3))
    return runs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[10_000, 40_000, 160_000])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--src", default="src")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from redtype import parser
    from redtype.parser import parse_program

    def collecting_parse(source: str):
        """The parse of ``parse_program`` without its pause of the collector."""
        return parser._parse(source, parser._Parser.program)

    for build in SHAPES.values():
        parse_program(build(args.sizes[0]))  # so that the first size pays no warm-up
    for size in args.sizes:
        for shape, build in SHAPES.items():
            source = build(size)
            n = len(parse_program(source).body)
            on = best_parse_s(collecting_parse, source, args.repeat, collector=True)
            off = best_parse_s(parse_program, source, args.repeat, collector=False)
            peak, kept = traced_bytes(parse_program, source)
            print(json.dumps({
                "shape": shape,
                "commands": n,
                "bytes": len(source),
                "gc_on_us_per_cmd": round(on / n * 1e6, 2),
                "gc_off_us_per_cmd": round(off / n * 1e6, 2),
                **collector_work(collecting_parse, source),
                "peak_bytes_per_source_byte": round(peak / len(source), 1),
                "kept_bytes_per_source_byte": round(kept / len(source), 1),
            }))

    n = args.sizes[0]
    source = set_program(n)
    one = parse_program(set_program(1)).body[0]
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    program = parse_program(source)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    print(json.dumps({
        "tracked_objects_per_set_command": tracked(one, set()),
        "retained_bytes_per_cmd": round(retained / len(program.body)),
        "commands": n,
    }))
    runs = first_parse_ms(args.src, args.repeat)
    print(json.dumps({"first_parse_ms": min(runs), "runs": runs}))


if __name__ == "__main__":
    main()
