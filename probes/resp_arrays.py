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
a second time under another package name, and each round times every
figure on both trees, alternating which goes first.  The output then
holds both trees' figures and, per figure, the median of OTHER_SRC's
time over --src's (above 1 when --src is faster) and the rounds --src
won.  Every decode is checked against the one-shot decode of the same
bytes, and the int read against the members; the probe exits 1 if
either tree reads a reply wrongly.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

CHUNK = 4096
clock = time.perf_counter


def load(src: str, package: str) -> SimpleNamespace:
    """The redtype package under ``src``, imported as ``package``, and the modules the probe uses."""
    root = Path(src, "redtype")
    spec = importlib.util.spec_from_file_location(package, root / "__init__.py", submodule_search_locations=[str(root)])
    assert spec is not None and spec.loader is not None
    sys.modules[package] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[package])
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in ("backend", "checker", "resp", "store", "syntax")})


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


def timed(read: Callable[[], bool]) -> tuple[float, bool]:
    t0 = clock()
    ok = read()
    return (clock() - t0) * 1000, ok


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
    times: dict[str, dict[str, list[float]]] = {src: {name: [] for name in reads[src]} for src in trees}
    correct = True
    for i in range(args.repeat):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for name in reads[args.src]:
            for src in order:
                ms, ok = timed(reads[src][name])
                times[src][name].append(ms)
                correct = correct and ok

    def best(src: str) -> dict[str, float]:
        return {name: round(min(ms), 3) for name, ms in times[src].items()}

    report: dict = {"repeat": args.repeat, "correct": correct, **best(args.src)}
    if args.against is not None:
        ratios = {
            name: [theirs / ours for ours, theirs in zip(times[args.src][name], times[args.against][name])]
            for name in times[args.src]
        }
        report["against"] = {
            "src": args.against,
            **best(args.against),
            "ratio_median": {name: round(statistics.median(r), 3) for name, r in ratios.items()},
            "wins": {name: sum(x > 1 for x in r) for name, r in ratios.items()},
        }
    print(json.dumps(report))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
