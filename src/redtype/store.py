"""In-memory store with Redis runtime semantics for the supported commands.

The point of this module is to be an exact oracle for the runtime type
discipline the checker guarantees against: operations on a key holding
the wrong kind of value produce the WRONGTYPE error reply, arithmetic
on unparseable strings produces the not-an-integer / not-a-float error
replies, and everything else follows the real store's observable
behavior (absent keys read as empty, RPOP deletes emptied lists, SINTER
output is sorted bytewise, and so on).

``MemoryStore`` applies each command to its own state in place: a deque
per list, a set per set and a dict per hash, so no command copies the
state or a value it writes to.  ``exec_command`` is the pure form of the
same step: it copies a state of frozen values, applies the command to
the copy, and freezes the result.  Neither raises; malformed input
comes back as ErrReply.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .codec import DecodeError, int_value, redis_float
from .syntax import WIRE_ARITIES

WRONGTYPE_MSG = "WRONGTYPE Operation against a key holding the wrong kind of value"
NOT_INT_MSG = "ERR value is not an integer or out of range"
NOT_FLOAT_MSG = "ERR value is not a valid float"
OVERFLOW_MSG = "ERR increment or decrement would overflow"
NONFINITE_MSG = "ERR increment would produce NaN or Infinity"


# ---- stored values --------------------------------------------------------


@dataclass(frozen=True)
class Str:
    data: bytes


@dataclass(frozen=True)
class ListV:
    """Items left-to-right; index 0 is the head LPUSH prepends to."""

    items: tuple[bytes, ...]


@dataclass(frozen=True)
class SetV:
    members: frozenset[bytes]


@dataclass(frozen=True)
class HashV:
    fields: tuple[tuple[str, bytes], ...]  # insertion-ordered


StoreValue = Str | ListV | SetV | HashV
State = dict[str, StoreValue]


# ---- replies ---------------------------------------------------------------


@dataclass(frozen=True)
class SimpleStatus:
    text: str


@dataclass(frozen=True)
class IntReply:
    value: int


@dataclass(frozen=True)
class BulkReply:
    data: bytes | None  # None is the nil reply


@dataclass(frozen=True)
class MultiBulk:
    items: tuple[bytes, ...]


@dataclass(frozen=True)
class ErrReply:
    message: str


Reply = SimpleStatus | IntReply | BulkReply | MultiBulk | ErrReply

OK = SimpleStatus("OK")
PONG = SimpleStatus("PONG")


def _key(argv: Sequence[bytes], i: int) -> str:
    return argv[i].decode("latin-1")


class _WrongType(Exception):
    """A command met a key holding the wrong kind of value."""


# What the store holds while it applies commands: strings as Str, and
# each container as a mutable deque (head first), set or field dict, so
# a write costs the same however large its key's value is.  The
# documented StoreValues are frozen copies of these.
_Live = Str | deque | set | dict
_LiveState = dict[str, _Live]


def _thaw(v: StoreValue) -> _Live:
    if isinstance(v, ListV):
        return deque(v.items)
    if isinstance(v, SetV):
        return set(v.members)
    if isinstance(v, HashV):
        return dict(v.fields)
    return v


def _freeze(v: _Live) -> StoreValue:
    if isinstance(v, deque):
        return ListV(tuple(v))
    if isinstance(v, set):
        return SetV(frozenset(v))
    if isinstance(v, dict):
        return HashV(tuple(v.items()))
    return v


def _holding(state: _LiveState, k: str, kind: type) -> _Live | None:
    """The value at ``k`` if it is of ``kind``, None if ``k`` is absent."""
    v = state.get(k)
    if v is not None and not isinstance(v, kind):
        raise _WrongType
    return v


def exec_command(state: Mapping[str, StoreValue], argv: Sequence[bytes]) -> tuple[State, Reply]:
    """Run one wire command against ``state``; returns (new state, reply).

    Pure: the input state is never mutated, and equal inputs give equal
    outputs.  It copies the state, then applies the command to the copy
    as MemoryStore does to its own.
    """
    live = {k: _thaw(v) for k, v in state.items()}
    reply = _execute(live, argv)
    return {k: _freeze(v) for k, v in live.items()}, reply


def _execute(state: _LiveState, argv: Sequence[bytes]) -> Reply:
    """Run one wire command, updating ``state`` in place; never raises."""
    if not argv:
        return ErrReply("ERR empty command")
    name = argv[0].decode("latin-1").upper()
    arity = WIRE_ARITIES.get(name)
    if arity is None:
        return ErrReply(f"ERR unknown command '{argv[0].decode('latin-1')}'")
    if len(argv) != arity:
        return ErrReply(f"ERR wrong number of arguments for '{name.lower()}' command")
    try:
        return _apply(state, name, argv)
    except _WrongType:
        return ErrReply(WRONGTYPE_MSG)


def _apply(state: _LiveState, name: str, argv: Sequence[bytes]) -> Reply:
    """Run one arity-checked command, updating ``state`` in place.

    Raises _WrongType before any update.
    """
    if name == "PING":
        return PONG
    k = _key(argv, 1)

    if name == "SET":
        state[k] = Str(bytes(argv[2]))
        return OK

    if name == "SETNX":
        if k in state:
            return IntReply(0)
        state[k] = Str(bytes(argv[2]))
        return IntReply(1)

    if name == "GET":
        v = _holding(state, k, Str)
        return BulkReply(None if v is None else v.data)

    if name == "DEL":
        return IntReply(0 if state.pop(k, None) is None else 1)

    if name == "INCR":
        v = _holding(state, k, Str)
        try:
            n = int_value(b"0" if v is None else v.data)
        except DecodeError:
            return ErrReply(NOT_INT_MSG)
        if not -(2**63) <= n < 2**63:
            return ErrReply(NOT_INT_MSG)
        if n == 2**63 - 1:
            return ErrReply(OVERFLOW_MSG)
        state[k] = Str(str(n + 1).encode("ascii"))
        return IntReply(n + 1)

    if name == "INCRBYFLOAT":
        d = redis_float(argv[2])
        if d is None:
            return ErrReply(NOT_FLOAT_MSG)
        v = _holding(state, k, Str)
        old = redis_float(b"0" if v is None else v.data)
        if old is None:
            return ErrReply(NOT_FLOAT_MSG)
        result = old + d
        if not math.isfinite(result):
            return ErrReply(NONFINITE_MSG)
        encoded = repr(result).encode("ascii")
        state[k] = Str(encoded)
        return BulkReply(encoded)

    if name == "LPUSH":
        items = _holding(state, k, deque)
        if items is None:
            items = state[k] = deque()
        items.appendleft(bytes(argv[2]))
        return IntReply(len(items))

    if name == "LLEN":
        items = _holding(state, k, deque)
        return IntReply(0 if items is None else len(items))

    if name == "RPOP":
        items = _holding(state, k, deque)
        if items is None:
            return BulkReply(None)
        last = items.pop()
        if not items:
            del state[k]
        return BulkReply(last)

    if name == "SADD":
        member = bytes(argv[2])
        members = _holding(state, k, set)
        if members is None:
            members = state[k] = set()
        elif member in members:
            return IntReply(0)
        members.add(member)
        return IntReply(1)

    if name == "SINTER":
        a, b = (_holding(state, _key(argv, i), set) for i in (1, 2))
        common = set() if a is None or b is None else a & b
        return MultiBulk(tuple(sorted(common)))

    if name == "HSET":
        fields = _holding(state, k, dict)
        if fields is None:
            fields = state[k] = {}
        f = argv[2].decode("latin-1")
        created = f not in fields
        fields[f] = bytes(argv[3])
        return IntReply(1 if created else 0)

    assert name == "HGET"
    fields = _holding(state, k, dict)
    return BulkReply(None if fields is None else fields.get(argv[2].decode("latin-1")))


class MemoryStore:
    """Mutable store applying commands to its own state in place, in order."""

    def __init__(self) -> None:
        self._state: _LiveState = {}

    def execute(self, argv: Sequence[bytes]) -> Reply:
        return _execute(self._state, argv)

    def reset(self) -> None:
        self._state = {}

    @property
    def state(self) -> State:
        """A frozen copy: later commands do not change it."""
        return {k: _freeze(v) for k, v in self._state.items()}

    def snapshot(self) -> list[dict[str, object]]:
        """Deterministic typed dump, sorted by key; used by --dump-store."""
        out: list[dict[str, object]] = []
        for k in sorted(self._state):
            v = self._state[k]
            if isinstance(v, Str):
                entry: dict[str, object] = {"type": "string", "value": v.data.decode("latin-1")}
            elif isinstance(v, deque):
                entry = {"type": "list", "value": [b.decode("latin-1") for b in v]}
            elif isinstance(v, set):
                entry = {"type": "set", "value": [b.decode("latin-1") for b in sorted(v)]}
            else:
                entry = {
                    "type": "hash",
                    "value": {f: data.decode("latin-1") for f, data in sorted(v.items())},
                }
            out.append({"key": k, **entry})
        return out
