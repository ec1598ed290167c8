"""Syntax tree for the checked Redis command language.

A program is a list of record declarations followed by a block of
commands.  Commands name their keys statically (keys are symbols, not
expressions), which is what makes the whole-program key/type analysis
in ``checker`` possible.

``Command``, ``Span`` and the expressions, which parsing builds for every
command, are immutable named tuples without an instance ``__dict__``.  A
node equals only a node of its own class: ``IntLit(1)`` is neither
``BoolLit(True)`` nor ``(1,)``.  Hashes agree with equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


# ---------------------------------------------------------------------------
# base types: what a single stored value deserializes to


class BaseType:
    """Scalar payload type: int, float, bool, text, or a named record."""

    __slots__ = ()
    name: str  # as source programs spell it


@dataclass(frozen=True)
class Scalar(BaseType):
    """int, float, bool or text."""

    name: str

    def __eq__(self, other: object) -> bool:
        # Identity first: bases are nearly always the four constants below,
        # and the generated __eq__ builds a tuple per side on every call.
        return self is other or (type(other) is Scalar and self.name == other.name)


@dataclass(frozen=True)
class RecordRef(BaseType):
    """Reference to a record declaration by name."""

    name: str


INT = Scalar("int")
FLOAT = Scalar("float")
BOOL = Scalar("bool")
TEXT = Scalar("text")
SCALARS = (INT, FLOAT, BOOL, TEXT)


# ---------------------------------------------------------------------------
# type tags: what kind of value a key holds


class TypeTag:
    """Shape of the value stored at one key."""

    __slots__ = ()


@dataclass(frozen=True)
class StringOf(TypeTag):
    base: BaseType


@dataclass(frozen=True)
class ListOf(TypeTag):
    base: BaseType


@dataclass(frozen=True)
class SetOf(TypeTag):
    base: BaseType


@dataclass(frozen=True)
class HashOf(TypeTag):
    """Hash tag; ``fields`` is an ordered association list.

    Field values are string tags (hashes nest scalars, not containers);
    the parser enforces this for source programs.
    """

    fields: tuple[tuple[str, TypeTag], ...]


def hash_of(*fields: tuple[str, TypeTag]) -> HashOf:
    """Convenience constructor so callers don't spell nested tuples."""
    return HashOf(tuple(fields))


# ---------------------------------------------------------------------------
# expressions (value arguments of commands)


class _Node:
    """Equality of the tuple-backed nodes: the same class and equal fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    __ne__ = object.__ne__  # the negation of __eq__, not tuple's

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)


class Expr(_Node):
    __slots__ = ()


class IntLit(Expr, NamedTuple("IntLit", [("value", int)])):
    __slots__ = ()


class FloatLit(Expr, NamedTuple("FloatLit", [("value", float)])):
    __slots__ = ()


class BoolLit(Expr, NamedTuple("BoolLit", [("value", bool)])):
    __slots__ = ()


class TextLit(Expr, NamedTuple("TextLit", [("value", str)])):
    __slots__ = ()


class Var(Expr, NamedTuple("Var", [("name", str)])):
    """Reference to the bound result of an earlier command."""

    __slots__ = ()


class RecordLit(Expr, NamedTuple("RecordLit", [("name", str), ("args", tuple[Expr, ...])])):
    """Record construction with positional arguments, e.g. Message{"hi", 1}."""

    __slots__ = ()


def expr_free_vars(e: Expr) -> set[str]:
    """Names of all variables occurring in ``e``."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, RecordLit):
        out: set[str] = set()
        for a in e.args:
            out |= expr_free_vars(a)
        return out
    return set()


# ---------------------------------------------------------------------------
# commands and programs


class Span(_Node, NamedTuple("Span", [("line", int), ("col", int)])):
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


class Command(_Node, _CommandFields):
    """One statement: optional binder, opcode, static keys, value args.

    ``span`` is carried for error reporting but ignored by equality and
    hashing so printed-and-reparsed programs compare equal.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is Command and self[:-1] == other[:-1]

    def __hash__(self) -> int:
        return hash(self[:-1])


@dataclass(frozen=True)
class RecordDecl:
    """Named flat record; field payloads are scalars, never records."""

    name: str
    fields: tuple[tuple[str, BaseType], ...]


@dataclass(frozen=True)
class Program:
    records: tuple[RecordDecl, ...]
    body: tuple[Command, ...]


def record_table(p: Program) -> dict[str, RecordDecl]:
    return {r.name: r for r in p.records}
