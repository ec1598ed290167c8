"""Seeded workload generators, each with its own reference model.

Every generator writes redtype source text and, alongside it, the
outputs a correct implementation must produce: the stdout of
``redtype check`` (final dictionary and result type), the stdout of
``redtype run`` (the last command's reply), and, for an ill-typed twin
whose last command violates a precondition, the constraint ID and line
that ``check --json`` must name.  The expected values come from the
generator's own bookkeeping of the keys it writes, never from redtype.

``scale`` shrinks the program sizes for smoke tests; 1.0 is the
benchmark's size.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass


@dataclass
class Workload:
    name: str
    backend: str  # "mem" or "resp"
    source: str  # an accepted program
    expected_check: str  # stdout of `redtype check`
    expected_run: str  # stdout of `redtype run`
    wire_commands: int  # commands that go to the store (declare sends none)
    twin: str  # the same program plus one ill-typed last command
    twin_constraint: str
    twin_line: int
    fuzz_iterations: int
    fuzz_seed: int


# One `run_fuzz` pass per repetition keeps fuzz_programs_per_s defined on
# every workload; the fuzz workload runs the full pass.  Generated programs
# differ widely in cost, so even the side pass runs 1,000 of them, enough
# for its rate to depend little on the seed.
SIDE_FUZZ_ITERATIONS = 1000
FUZZ_ITERATIONS = 2000


def _render(records: list[str], body: list[str]) -> str:
    return "\n".join(records + ["program {"] + ["  " + line for line in body] + ["}"]) + "\n"


def _line_of_last(records: list[str], body: list[str]) -> int:
    # records, then "program {", then one line per command
    return len(records) + 1 + len(body)


def _check_text(final: list[tuple[str, str]], result: str) -> str:
    lines = ["ok", "final dictionary:"]
    lines += [f"  {key} : {tag}" for key, tag in final]
    lines.append(f"result: {result}")
    return "\n".join(lines) + "\n"


def _with_twin(records: list[str], body: list[str], bad: str) -> tuple[str, int]:
    twin_body = body + [bad]
    return _render(records, twin_body), _line_of_last(records, twin_body)


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(n * scale))


def wide_keys(seed: int, scale: float = 1.0) -> Workload:
    """Each of 2,048 keys is set once, then read or incremented once."""
    rng = random.Random(f"wide-keys:{seed}")
    n = _scaled(2048, scale, 8)
    keys = [f"k{i}" for i in range(n)]
    values = {k: rng.randint(-(10**9), 10**9) for k in keys}
    set_order = rng.sample(keys, n)
    touch_order = rng.sample(keys, n)
    body = [f"set {k} {values[k]}" for k in set_order]
    last = ""
    for k in touch_order:
        if rng.random() < 0.5:
            values[k] += 1
            body.append(f"incr {k}")
            last, result = str(values[k]), "integer"
        else:
            body.append(f"get {k}")
            last, result = f"just {values[k]}", "maybe<int>"
    twin, twin_line = _with_twin([], body, f"lpush {rng.choice(keys)} 0")
    return Workload(
        name="wide-keys",
        backend="mem",
        source=_render([], body),
        expected_check=_check_text([(k, "string<int>") for k in set_order], result),
        expected_run=last + "\n",
        wire_commands=len(body),
        twin=twin,
        twin_constraint="ListOrNX-violated",
        twin_line=twin_line,
        fuzz_iterations=_scaled(SIDE_FUZZ_ITERATIONS, scale, 20),
        fuzz_seed=seed,
    )


def _queue(
    name: str, backend: str, cycles: int, seed: int, bad: str, constraint: str, fuzz_iterations: int
) -> Workload:
    """The README's quick-start shape: count, push a record, pop it back."""
    rng = random.Random(f"{name}:{seed}")
    records = ["record Message { body: text, id: int }"]
    body = ["declare counter : string<int>", "declare queue : list<Message>"]
    fields: list[str] = []
    popped = ""
    for i in range(1, cycles + 1):
        text = "".join(rng.choices(string.ascii_letters, k=rng.randint(4, 24)))
        field = f"f{i % 8}"
        if field not in fields:
            fields.append(field)
        body += [
            f"i{i} <- incr counter",
            f'lpush queue Message{{ "{text}", i{i} }}',
            f"hset h {field} {rng.randint(0, 10**6)}",
            "rpop queue",
        ]
        # The queue holds at most the one message pushed this cycle, and
        # the counter starts absent, so its i-th increment returns i.
        popped = f'just Message{{body: "{text}", id: {i}}}'
    hash_tag = "hash<" + ", ".join(f"{f}: string<int>" for f in fields) + ">"
    final = [("counter", "string<int>"), ("queue", "list<Message>"), ("h", hash_tag)]
    twin, twin_line = _with_twin(records, body, bad)
    return Workload(
        name=name,
        backend=backend,
        source=_render(records, body),
        expected_check=_check_text(final, "maybe<Message>"),
        expected_run=popped + "\n",
        wire_commands=4 * cycles,
        twin=twin,
        twin_constraint=constraint,
        twin_line=twin_line,
        fuzz_iterations=fuzz_iterations,
        fuzz_seed=seed,
    )


def queue_resp(seed: int, scale: float = 1.0) -> Workload:
    """8,192 quick-start commands over three keys, on the loopback server."""
    return _queue(
        "queue-resp", "resp", _scaled(2048, scale, 8), seed, 'sadd queue "oops"', "SetOrNX-violated",
        _scaled(SIDE_FUZZ_ITERATIONS, scale, 20),
    )


def sinter_resp(seed: int, scale: float = 1.0) -> Workload:
    """2 x 4,000 SADDs of the same members, then 16 full intersections."""
    rng = random.Random(f"sinter-resp:{seed}")
    n = _scaled(4000, scale, 16)
    members = rng.sample(range(10_000, 100_000), n)
    body = [f"sadd s1 {m}" for m in members]
    body += [f"sadd s2 {m}" for m in rng.sample(members, n)]
    body += ["sinter s1 s2"] * 16
    # The store replies to SINTER in bytewise order of the encoded members.
    inter = sorted(members, key=lambda m: str(m).encode("ascii"))
    twin, twin_line = _with_twin([], body, "hset s1 f0 1")
    return Workload(
        name="sinter-resp",
        backend="resp",
        source=_render([], body),
        expected_check=_check_text([("s1", "set<int>"), ("s2", "set<int>")], "list<int>"),
        expected_run="[" + ", ".join(str(m) for m in inter) + "]\n",
        wire_commands=len(body),
        twin=twin,
        twin_constraint="HashOrNX-violated",
        twin_line=twin_line,
        fuzz_iterations=_scaled(SIDE_FUZZ_ITERATIONS, scale, 20),
        fuzz_seed=seed,
    )


def fuzz(seed: int, scale: float = 1.0) -> Workload:
    """A full `run_fuzz` pass, plus a small queue program on mem."""
    return _queue(
        "fuzz", "mem", _scaled(256, scale, 8), seed, "rpop missing", "GetStuck",
        _scaled(FUZZ_ITERATIONS, scale, 20),
    )


GENERATORS = {
    "wide-keys": wide_keys,
    "queue-resp": queue_resp,
    "sinter-resp": sinter_resp,
    "fuzz": fuzz,
}
