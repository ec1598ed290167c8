"""Cost of reading RESP array replies: framing in 4 KiB chunks, then the int read.

Usage, from the repository root:

  python3 probes/resp_arrays.py [--repeat 9] [--src src] [--against OTHER_SRC]

Times, in milliseconds (minimum over --repeat rounds):

- ``sinter_decode_ms``: ``resp.ReplyDecoder`` on one reply in the shape of
  the sinter-resp workload's, 4,000 distinct five-digit members in
  bytewise order, fed in 4 KiB chunks as a socket delivers them;
- ``sinter_int_read_ms``: the run's read of that reply as a ``list<int>``
  result (``backend._decode_reply``);
- ``huge_first_item_ms``: a three-item array whose first item is 8 MiB of
  ``x``, then ``a\\r\\nb`` repeated and ``tail``, fed in 4 KiB chunks;
- ``crlf_items_ms``: 40,000 items that each hold CRLF (``a\\r\\nb<i>``),
  fed in 4 KiB chunks.

The last two are the adversarial shapes for a decoder that splits on
CRLF: a re-scan per poll costs the first one its size squared, and the
second one has no item a split alone can read.  Prints one JSON object.
--src selects the source tree to import redtype from.

--against OTHER_SRC times a second tree in the same process, because
standalone timings drift more between runs on a shared host than the
ratio of two trees timed side by side.  OTHER_SRC's redtype is imported
a second time under another package name, and each figure is timed
--repeat times on both trees, alternating which goes first
(``_trees.paired``).  The output then holds both trees' figures and, per
figure, the median and quartiles of OTHER_SRC's time over --src's (above
1 when --src is faster) and the rounds --src won.  Every decode is
checked against the one-shot decode of the same bytes, and the int read
against the members; the probe exits 1 if either tree reads a reply
wrongly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from types import SimpleNamespace
from typing import Callable

from _trees import against, load, paired

CHUNK = 4096
clock = time.perf_counter


def decode_in_chunks(rt: SimpleNamespace, wire: bytes, size: int) -> list:
    decoder, out = rt.resp.ReplyDecoder(), []
    for i in range(0, len(wire), size):
        decoder.feed(wire[i : i + size])
        while (reply := decoder.poll()) is not None:
            out.append(reply)
    return out


def figures(rt: SimpleNamespace, members: list[int]) -> dict[str, Callable[[], bool]]:
    """Each timed figure as a call that returns whether it read its reply correctly."""
    MultiBulk, encode_reply = rt.store.MultiBulk, rt.resp.encode_reply
    sinter = encode_reply(MultiBulk(tuple(b"%d" % m for m in members)))
    huge = encode_reply(MultiBulk((b"x" * (8 << 20), b"a\r\nb" * 100_000, b"tail")))
    crlf = encode_reply(MultiBulk(tuple(b"a\r\nb%d" % i for i in range(40_000))))
    reply = decode_in_chunks(rt, sinter, len(sinter))[0]
    list_int = rt.checker.ListResult(rt.syntax.INT)

    def decoded(wire: bytes) -> Callable[[], bool]:
        whole = decode_in_chunks(rt, wire, len(wire))
        return lambda: decode_in_chunks(rt, wire, CHUNK) == whole

    return {
        "sinter_decode_ms": decoded(sinter),
        "sinter_int_read_ms": lambda: rt.backend._decode_reply(reply, list_int, {}) == members,
        "huge_first_item_ms": decoded(huge),
        "crlf_items_ms": decoded(crlf),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=9)
    ap.add_argument("--src", default="src")
    ap.add_argument("--against", metavar="OTHER_SRC")
    args = ap.parse_args()

    # The sinter-resp reply's shape: SINTER answers in bytewise order of the members.
    members = sorted(random.Random(7).sample(range(10_000, 100_000), 4000), key=lambda m: b"%d" % m)
    trees = {args.src: load(args.src, "redtype")}
    if args.against is not None:
        trees[args.against] = load(args.against, "redtype_against")
    reads = {src: figures(rt, members) for src, rt in trees.items()}
    correct = True

    def read_ms(read: Callable[[], bool]) -> float:
        nonlocal correct
        t0 = clock()
        correct = read() and correct
        return (clock() - t0) * 1000

    times: dict[str, dict[str, list[float]]] = {src: {} for src in trees}
    for name in reads[args.src]:
        runs = paired([lambda r=reads[src][name]: read_ms(r) for src in trees], args.repeat)
        for src, ms in zip(trees, runs):
            times[src][name] = ms

    def best(src: str) -> dict[str, float]:
        return {name: round(min(ms), 3) for name, ms in times[src].items()}

    report: dict = {"repeat": args.repeat, "correct": correct, **best(args.src)}
    if args.against is not None:
        report["against"] = {
            "src": args.against,
            **best(args.against),
            "ratios": {name: against(times[args.src][name], times[args.against][name]) for name in times[args.src]},
        }
    print(json.dumps(report))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
