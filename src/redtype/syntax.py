"""Syntax tree for the checked Redis command language.

A program is a list of record declarations followed by a block of
commands.  Commands name their keys statically (keys are symbols, not
expressions), which is what makes the whole-program key/type analysis
in ``checker`` possible.

Every immutable value of the package (the base types, type tags,
declarations and program here, and the result types, replies, typed
values and lookups of the other modules) is a ``Node``: a named tuple
without an instance ``__dict__`` that equals only a node of its own
class.  ``IntLit(1)`` is neither ``BoolLit(True)`` nor ``(1,)``, and
``Scalar("int")`` is not ``RecordRef("int")``.  Hashes agree with
equality.  A tag or result over a scalar base is one shared node (see
``shared``), so that most comparisons end at ``Node.__eq__``'s identity
test; sharing is a fast path only, and equality stays structural.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from typing import Iterator, NamedTuple, TypeVar


class Node:
    """Equality of the tuple-backed nodes: the same class and equal fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    __ne__ = object.__ne__  # the negation of __eq__, not tuple's

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is type(self) and tuple.__eq__(self, other))


# ``new_node(cls, fields)`` builds a node from all its fields in order.  It
# skips the named tuple's Python-level __new__, about 0.27 against 0.45 us
# under timeit on a 2-vCPU host, so the parser, the generator, the store and
# the codec build the nodes that vary per command this way.
new_node = tuple.__new__


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the block; nested, a no-op.

    A node is a tuple of finished fields, so a tree of nodes holds no cycle
    the collector could free, yet each of its runs would rescan the tree.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# base types: what a single stored value deserializes to


class BaseType(Node):
    """Scalar payload type: int, float, bool, text, or a named record."""

    __slots__ = ()
    name: str  # as source programs spell it


class Scalar(BaseType, NamedTuple("Scalar", [("name", str)])):
    """int, float, bool or text."""

    __slots__ = ()


class RecordRef(BaseType, NamedTuple("RecordRef", [("name", str)])):
    """Reference to a record declaration by name."""

    __slots__ = ()


INT = Scalar("int")
FLOAT = Scalar("float")
BOOL = Scalar("bool")
TEXT = Scalar("text")
SCALARS = (INT, FLOAT, BOOL, TEXT)

# Redis integers are signed 64-bit: the bounds of int literals, of INCR
# and of RESP header integers.  Two names, not a range(): membership in
# a range also subtracts and takes a remainder, about 0.1 us per test.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# UTF-8 encodes every code point but these, so no store holds text with one.
SURROGATE = re.compile("[\ud800-\udfff]")


def utf8_text(text: str) -> bool:
    """Whether UTF-8 encodes ``text``, that is, whether it holds no surrogate code point."""
    return text.isascii() or SURROGATE.search(text) is None


_N = TypeVar("_N", bound=Node)


def shared(cls: type[_N]) -> type[_N]:
    """Make ``cls(base)`` return one shared node per scalar base.

    ``cls`` is a node whose one field is a base type.  Over a record base
    it builds a new node each time, so the table stays four entries long
    whatever the input.
    """
    get = {base: new_node(cls, (base,)) for base in SCALARS}.get

    def __new__(kind: type[_N], base: BaseType) -> _N:
        return get(base) or new_node(kind, (base,))

    cls.__new__ = __new__  # type: ignore[assignment]
    return cls


# ---------------------------------------------------------------------------
# type tags: what kind of value a key holds


class TypeTag(Node):
    """Shape of the value stored at one key."""

    __slots__ = ()


@shared
class StringOf(TypeTag, NamedTuple("StringOf", [("base", BaseType)])):
    __slots__ = ()


@shared
class ListOf(TypeTag, NamedTuple("ListOf", [("base", BaseType)])):
    __slots__ = ()


@shared
class SetOf(TypeTag, NamedTuple("SetOf", [("base", BaseType)])):
    __slots__ = ()


class HashOf(TypeTag, NamedTuple("HashOf", [("fields", tuple[tuple[str, TypeTag], ...])])):
    """Hash tag; ``fields`` is an ordered association list.

    Field values are string tags (hashes nest scalars, not containers);
    the parser enforces this for source programs.
    """

    __slots__ = ()


# Each tag class's keyword in source programs, which is also the store's
# TYPE reply for a key holding a value of that kind.
KINDS: dict[type[TypeTag], str] = {StringOf: "string", ListOf: "list", SetOf: "set", HashOf: "hash"}


def hash_of(*fields: tuple[str, TypeTag]) -> HashOf:
    """Convenience constructor so callers don't spell nested tuples."""
    return HashOf(tuple(fields))


# ---------------------------------------------------------------------------
# expressions (value arguments of commands)


class Expr(Node):
    __slots__ = ()


class IntLit(Expr, NamedTuple("IntLit", [("value", int)])):
    __slots__ = ()


class FloatLit(Expr, NamedTuple("FloatLit", [("value", float)])):
    __slots__ = ()


class BoolLit(Expr, NamedTuple("BoolLit", [("value", bool)])):
    __slots__ = ()


class TextLit(Expr, NamedTuple("TextLit", [("value", str)])):
    __slots__ = ()


# Each literal class's base, by which the checker types it and the run encodes it.
LITERAL_BASES: dict[type[Expr], Scalar] = {IntLit: INT, FloatLit: FLOAT, BoolLit: BOOL, TextLit: TEXT}


class Var(Expr, NamedTuple("Var", [("name", str)])):
    """Reference to the bound result of an earlier command."""

    __slots__ = ()


class RecordLit(Expr, NamedTuple("RecordLit", [("name", str), ("args", tuple[Expr, ...])])):
    """Record construction with positional arguments, e.g. Message{"hi", 1}."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# commands and programs


class Span(Node, NamedTuple("Span", [("line", int), ("col", int)])):
    """Source position (1-based line and column) of a command's opcode."""

    __slots__ = ()


# opcode -> (number of key arguments, has hash field, number of value
# arguments, takes a type tag), in the order the arguments are written.
# The one statement of each command's layout: parser, printer, the
# store's arity check and the backend's wire names all derive from it.
COMMAND_SHAPES: dict[str, tuple[int, bool, int, bool]] = {
    "ping": (0, False, 0, False),
    "set": (1, False, 1, False),
    "setnx": (1, False, 1, False),
    "get": (1, False, 0, False),
    "del": (1, False, 0, False),
    "incr": (1, False, 0, False),
    "incrbyfloat": (1, False, 1, False),
    "lpush": (1, False, 1, False),
    "llen": (1, False, 0, False),
    "rpop": (1, False, 0, False),
    "sadd": (1, False, 1, False),
    "sinter": (2, False, 0, False),
    "hset": (1, True, 1, False),
    "hget": (1, True, 0, False),
    "declare": (1, False, 0, True),
}

OPCODES = frozenset(COMMAND_SHAPES)

# Wire name -> argument count including the name, for every command that
# reaches the wire (those that take a type tag are static).
WIRE_ARITIES: dict[str, int] = {
    op.upper(): 1 + n_keys + has_field + n_values
    for op, (n_keys, has_field, n_values, takes_tag) in COMMAND_SHAPES.items()
    if not takes_tag
}


class _CommandFields(NamedTuple):
    opcode: str
    keys: tuple[str, ...] = ()
    args: tuple[Expr, ...] = ()
    field_name: str | None = None
    declared: TypeTag | None = None
    binder: str | None = None
    span: Span = Span(1, 1)


class Command(Node, _CommandFields):
    """One statement: optional binder, opcode, static keys, value args.

    ``span`` is carried for error reporting but ignored by equality and
    hashing so printed-and-reparsed programs compare equal.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is Command and self[:-1] == other[:-1]

    def __hash__(self) -> int:
        return hash(self[:-1])


class RecordDecl(Node, NamedTuple("RecordDecl", [("name", str), ("fields", tuple[tuple[str, BaseType], ...])])):
    """Named flat record; field payloads are scalars, never records."""

    __slots__ = ()


class Program(Node, NamedTuple("Program", [("records", tuple[RecordDecl, ...]), ("body", tuple[Command, ...])])):
    __slots__ = ()


def record_table(p: Program) -> dict[str, RecordDecl]:
    return {r.name: r for r in p.records}
