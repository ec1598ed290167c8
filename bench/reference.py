"""A fixed reference workload that measures how fast the host runs Python now.

The benchmark shares its cores with other machines.  Their load slows
every instruction of a run by up to 2x for stretches of tens of seconds,
longer than a run, so neither the median nor the minimum of a run's
repetitions is steady from run to run.  Each timed operation is therefore
bracketed by this workload, timed just before and just after it (in the
benchmark's RESP server too, when the operation uses it), and its time is
scaled by REFERENCE_S / (the mean of those times): the time the operation
would take on the host at the speed at which this workload takes
REFERENCE_S.

The workload imitates what redtype spends its time on (tokenising lines
with a regular expression, building small objects, looking keys up in an
association list that is copied on every step, copying a dict state) but
imports nothing from redtype, so a change to redtype cannot change it.
"""

from __future__ import annotations

import re
from time import perf_counter

# Its fastest time on an idle core of the 2-vCPU x86-64 host, Python 3.11,
# on which the benchmark was tuned.  Only the ratio matters: a different
# value scales every reported time alike.
REFERENCE_S = 0.0022

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|-?\d+|\S")
_TEXT = "\n".join(
    f"  set k{i} {i * 7919 % 1000}\n  incr k{i * 31 % 97}\n  get k{i % 53}" for i in range(60)
)
_ROUNDS = 4


class _Node:
    __slots__ = ("name", "args", "tag")

    def __init__(self, name: str, args: tuple[str, ...]) -> None:
        self.name = name
        self.args = args
        self.tag: str | None = None


def _once() -> int:
    nodes = []
    for line in _TEXT.splitlines():
        words = _WORD.findall(line)
        nodes.append(_Node(words[0], tuple(words[1:])))
    env: list[tuple[str, str]] = []
    for node in nodes:
        key = node.args[0]
        for k, tag in env:
            if k == key:
                node.tag = tag
                break
        if node.name == "set":
            env = [(k, t) for k, t in env if k != key] + [(key, "int")]
        elif node.tag is None:
            env = env + [(key, "int")]
    state: dict[str, int] = {}
    for node in nodes:
        state = dict(state)
        state[node.args[0]] = state.get(node.args[0], 0) + 1
    return len(env) + len(state) + sum(node.tag is not None for node in nodes)


def seconds() -> float:
    """Wall time of one run of the reference workload."""
    t0 = perf_counter()
    for _ in range(_ROUNDS):
        _once()
    return perf_counter() - t0


def scaled(elapsed: float, references: list[float]) -> float:
    """`elapsed`, bracketed by the reference times `references`, at reference speed."""
    return elapsed * REFERENCE_S * len(references) / sum(references)
