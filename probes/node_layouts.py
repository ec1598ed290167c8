"""Build and attribute-read cost of candidate layouts for the syntax nodes.

Usage, from the repository root:

  python3 probes/node_layouts.py [--repeat 7]

Each layout defines Span, IntLit, RecordLit and Command with the fields
and the equality rules of ``redtype.syntax`` (class-exact equality,
Command's equality ignoring its span, nodes immutable).  For each it
times, with ``timeit`` (minimum over --repeat rounds): building a Command
with all seven fields, a Span, an IntLit and a two-argument RecordLit;
loading a node (``load_ns``) and reading one of its attributes, net of
that load (``read_*``); hashing a Command; and creating the four classes,
as an import does.  The named tuple layout is also timed built by
``tuple.__new__(cls, fields)``, as the parser builds its nodes.  One JSON
object per layout is printed, in nanoseconds (class creation in
microseconds).
"""

from __future__ import annotations

import argparse
import json
import timeit
from collections import namedtuple
from dataclasses import dataclass, field


class Expr:
    __slots__ = ()


def dataclass_layout(slots: bool) -> dict:
    @dataclass(frozen=True, slots=slots)
    class Span:
        line: int
        col: int

    @dataclass(frozen=True, slots=slots)
    class IntLit(Expr):
        value: int

    @dataclass(frozen=True, slots=slots)
    class RecordLit(Expr):
        name: str
        args: tuple

    @dataclass(frozen=True, slots=slots)
    class Command:
        opcode: str
        keys: tuple = ()
        args: tuple = ()
        field_name: str | None = None
        declared: object = None
        binder: str | None = None
        span: Span = field(default=Span(1, 1), compare=False)

    return locals()


def slots_layout() -> dict:
    """Plain __slots__ classes made read-only by __setattr__."""

    _set = object.__setattr__

    class Node:
        __slots__ = ()

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field '{name}'")

        def __eq__(self, other):
            return type(other) is type(self) and all(
                getattr(self, f) == getattr(other, f) for f in self.__slots__
            )

        def __hash__(self):
            return hash(tuple(getattr(self, f) for f in self.__slots__))

    class Span(Node):
        __slots__ = ("line", "col")

        def __init__(self, line, col):
            _set(self, "line", line)
            _set(self, "col", col)

    class IntLit(Node, Expr):
        __slots__ = ("value",)

        def __init__(self, value):
            _set(self, "value", value)

    class RecordLit(Node, Expr):
        __slots__ = ("name", "args")

        def __init__(self, name, args):
            _set(self, "name", name)
            _set(self, "args", args)

    class Command(Node):
        __slots__ = ("opcode", "keys", "args", "field_name", "declared", "binder", "span")

        def __init__(self, opcode, keys=(), args=(), field_name=None, declared=None, binder=None, span=Span(1, 1)):
            _set(self, "opcode", opcode)
            _set(self, "keys", keys)
            _set(self, "args", args)
            _set(self, "field_name", field_name)
            _set(self, "declared", declared)
            _set(self, "binder", binder)
            _set(self, "span", span)

    return locals()


def namedtuple_layout() -> dict:
    """namedtuple bases under a mixin that makes equality class-exact."""

    class Node:
        __slots__ = ()

        __hash__ = tuple.__hash__
        __ne__ = object.__ne__

        def __eq__(self, other):
            return type(other) is type(self) and tuple.__eq__(self, other)

    class TupleExpr(Node, Expr):
        __slots__ = ()

    class Span(Node, namedtuple("Span", "line col")):
        __slots__ = ()

    class IntLit(TupleExpr, namedtuple("IntLit", "value")):
        __slots__ = ()

    class RecordLit(TupleExpr, namedtuple("RecordLit", "name args")):
        __slots__ = ()

    fields = "opcode keys args field_name declared binder span"

    class Command(Node, namedtuple("Command", fields, defaults=((), (), None, None, None, Span(1, 1)))):
        __slots__ = ()

        def __eq__(self, other):
            return type(other) is Command and self[:-1] == other[:-1]

        def __hash__(self):
            return hash(self[:-1])

    return locals()


LAYOUTS = {
    "dataclass (parent)": lambda: dataclass_layout(slots=False),
    "dataclass, slots": lambda: dataclass_layout(slots=True),
    "slots, __setattr__ raises": slots_layout,
    "namedtuple subclass": namedtuple_layout,
}


STATEMENTS = {
    "build_command_ns": "Command('set', ('k',), (lit,), None, None, 'v', span)",
    "build_span_ns": "Span(3, 4)",
    "build_intlit_ns": "IntLit(5)",
    "build_recordlit_ns": "RecordLit('M', (lit, lit))",
    "load_ns": "c",
    "read_command_opcode_ns": "c.opcode",
    "read_span_line_ns": "span.line",
    "hash_command_ns": "hash(c)",
}

TUPLE_NEW = {
    "tuple_new_command_ns": "new(Command, ('set', ('k',), (lit,), None, None, 'v', span))",
    "tuple_new_span_ns": "new(Span, (3, 4))",
    "tuple_new_intlit_ns": "new(IntLit, (5,))",
}


def environment(make) -> dict:
    env = dict(make())
    env["lit"] = env["IntLit"](5)
    env["span"] = env["Span"](3, 4)
    env["c"] = env["Command"]("set", ("k",), (env["lit"],), None, None, "v", env["span"])
    env["new"] = tuple.__new__
    return env


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()
    envs = {name: environment(make) for name, make in LAYOUTS.items()}
    best: dict[str, dict[str, float]] = {name: {} for name in LAYOUTS}
    # Rounds interleave the layouts, so a slow spell of the host falls on
    # all of them rather than on one.
    for _ in range(args.repeat):
        for name, make in LAYOUTS.items():
            env = envs[name]
            stmts = dict(STATEMENTS, **(TUPLE_NEW if issubclass(env["Span"], tuple) else {}))
            times = {key: timeit.timeit(stmt, globals=env, number=100_000) / 100_000 for key, stmt in stmts.items()}
            times["create_classes_us"] = timeit.timeit(make, number=10) / 10 * 1e-3
            for key, t in times.items():
                best[name][key] = min(best[name].get(key, t), t)
    for name, times in best.items():
        load = times["load_ns"]
        row = {key: round(t * 1e9 - (load * 1e9 if key.startswith("read_") else 0), 1) for key, t in times.items()}
        print(json.dumps({"layout": name, **row}))


if __name__ == "__main__":
    main()
