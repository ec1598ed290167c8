"""Cost of one codec.encode and one codec.decode per record and per int, and of one command run.

Usage, from the repository root:

  python3 probes/record_codec.py [--repeat 7] [--number 100000] [--src src]

Times, with ``timeit`` (minimum over --repeat rounds of --number calls
each), ``codec.encode`` and ``codec.decode`` on the quick-start queue's
``Message{ "hello", 1 }`` record, ``{"body":"hello","id":1}`` on the
wire, on the fuzz pool's ``Point{ 1.5, -0.25 }`` and ``Flag{ "on", true }``
records, and on the int 1992.  Also times ``INT == INT``, the base test
the codec and the run loop make, and ``run_program`` on a fresh mem
backend, per command it sends: of the quick-start queue program
(--number / 100 runs per round), and of a wide program in the shape of
the wide-keys workload, 256 ``set k<i> <i>`` commands then one ``get``
or ``incr`` of each key (--number / 1000 runs per round).  Prints one
JSON object, in nanoseconds.  --src selects the source tree to import
redtype from, so that two checkouts can be compared with the same probe.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit

QUEUE_SOURCE = """\
record Message { body: text, id: int }
program {
  declare counter : string<int>
  declare queue   : list<Message>
  i <- incr counter
  lpush queue Message{ "hello", i }
  j <- incr counter
  lpush queue Message{ "world", j }
  rpop queue
}
"""

WIDE_KEYS = 256
WIDE_SOURCE = (
    "program {\n"
    + "".join(f"  set k{i} {i}\n" for i in range(WIDE_KEYS))
    + "".join(f"  {'get' if i % 2 else 'incr'} k{i}\n" for i in range(WIDE_KEYS))
    + "}\n"
)

RECORDS = {
    "message": ("Message", ("hello", 1), b'{"body":"hello","id":1}'),
    "point": ("Point", (1.5, -0.25), b'{"x":1.5,"y":-0.25}'),
    "flag": ("Flag", ("on", True), b'{"label":"on","armed":true}'),
}

STATEMENTS = {
    **{f"encode_{row}_ns": f"encode({row}, records)" for row in RECORDS},
    **{f"decode_{row}_ns": f"decode({row}_bytes, {row}.base, records)" for row in RECORDS},
    "encode_int_ns": "encode(number)",
    "decode_int_ns": "decode(b'1992', INT)",
    "int_eq_int_ns": "INT == INT",
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--number", type=int, default=100_000)
    ap.add_argument("--src", default="src")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from redtype.backend import MemoryBackend, run_program
    from redtype.checker import check_program
    from redtype.codec import RecordValue, TypedValue, decode, encode
    from redtype.fuzz import RECORD_POOL
    from redtype.parser import parse_program
    from redtype.syntax import INT, TEXT, RecordDecl, RecordRef

    records = {d.name: d for d in RECORD_POOL}
    records["Message"] = RecordDecl("Message", (("body", TEXT), ("id", INT)))
    env = {"encode": encode, "decode": decode, "INT": INT, "records": records, "number": TypedValue(INT, 1992)}
    for row, (name, values, data) in RECORDS.items():
        env[row] = TypedValue(RecordRef(name), RecordValue(name, values))
        env[f"{row}_bytes"] = encode(env[row], records)
        assert env[f"{row}_bytes"] == data, env[f"{row}_bytes"]
    # Per timed run: the call that makes it, the commands it sends, and runs per round.
    runs = {}
    for key, source, per_round in [("run_queue_ns_per_cmd", QUEUE_SOURCE, 100), ("run_wide_ns_per_cmd", WIDE_SOURCE, 1000)]:
        program = parse_program(source)
        sent = sum(cmd.opcode != "declare" for cmd in program.body)
        run = lambda p=program, r=check_program(program): run_program(p, r, MemoryBackend())  # noqa: E731
        runs[key] = (run, sent, max(1, args.number // per_round))
    best = {key: float("inf") for key in [*STATEMENTS, *runs]}
    # Rounds interleave the statements, so a slow spell of the host falls
    # on all of them rather than on one.
    for _ in range(args.repeat):
        for key, stmt in STATEMENTS.items():
            best[key] = min(best[key], timeit.timeit(stmt, globals=env, number=args.number) / args.number)
        for key, (run, sent, number) in runs.items():
            best[key] = min(best[key], timeit.timeit(run, number=number) / number / sent)
    print(json.dumps({key: round(t * 1e9, 1) for key, t in best.items()}))


if __name__ == "__main__":
    main()
