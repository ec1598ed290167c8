"""Cost of one codec.encode and one codec.decode, per Message record and per int.

Usage, from the repository root:

  python3 probes/record_codec.py [--repeat 7] [--number 100000] [--src src]

Times, with ``timeit`` (minimum over --repeat rounds of --number calls
each), ``codec.encode`` and ``codec.decode`` on the quick-start queue's
``Message{ "hello", 1 }`` record, ``{"body":"hello","id":1}`` on the
wire, and on the int 1992.  Also times ``INT == INT``, the base test
the codec and the run loop make.  Prints one JSON object, in nanoseconds.
--src selects the source tree to import redtype from, so that two
checkouts can be compared with the same probe.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit

STATEMENTS = {
    "encode_message_ns": "encode(message, records)",
    "decode_message_ns": "decode(message_bytes, MSG, records)",
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
    from redtype.codec import RecordValue, TypedValue, decode, encode
    from redtype.syntax import INT, TEXT, RecordDecl, RecordRef

    env = {
        "encode": encode,
        "decode": decode,
        "INT": INT,
        "MSG": RecordRef("Message"),
        "records": {"Message": RecordDecl("Message", (("body", TEXT), ("id", INT)))},
        "number": TypedValue(INT, 1992),
    }
    env["message"] = TypedValue(env["MSG"], RecordValue("Message", ("hello", 1)))
    env["message_bytes"] = encode(env["message"], env["records"])
    assert env["message_bytes"] == b'{"body":"hello","id":1}'
    best = {key: float("inf") for key in STATEMENTS}
    # Rounds interleave the statements, so a slow spell of the host falls
    # on all of them rather than on one.
    for _ in range(args.repeat):
        for key, stmt in STATEMENTS.items():
            best[key] = min(best[key], timeit.timeit(stmt, globals=env, number=args.number) / args.number)
    print(json.dumps({key: round(t * 1e9, 1) for key, t in best.items()}))


if __name__ == "__main__":
    main()
