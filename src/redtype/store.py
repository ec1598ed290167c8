"""In-memory store with Redis runtime semantics for the supported commands.

The point of this module is to be an exact oracle for the runtime type
discipline the checker guarantees against: operations on a key holding
the wrong kind of value produce the WRONGTYPE error reply, arithmetic
on unparseable strings produces the not-an-integer / not-a-float error
replies, and everything else follows the real store's observable
behavior (absent keys read as empty, RPOP deletes emptied lists, SINTER
output is sorted bytewise, and so on).

``MemoryStore`` holds one value per key and applies each command to it
in place: bytes per string, a deque per list (head first), a set per
set and a dict per hash, so no command copies the state or a value it
writes to.  ``execute`` never raises; malformed input comes back as
ErrReply.  ``snapshot`` is the one read-out: a sorted, typed copy that
later commands do not change.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple, Sequence

from .codec import DecodeError, int64_value, redis_float
from .syntax import INT64_MAX, WIRE_ARITIES, Node

WRONGTYPE_MSG = "WRONGTYPE Operation against a key holding the wrong kind of value"
NOT_INT_MSG = "ERR value is not an integer or out of range"
NOT_FLOAT_MSG = "ERR value is not a valid float"
OVERFLOW_MSG = "ERR increment or decrement would overflow"
NONFINITE_MSG = "ERR increment would produce NaN or Infinity"


# ---- replies ---------------------------------------------------------------


class SimpleStatus(Node, NamedTuple("SimpleStatus", [("text", str)])):
    __slots__ = ()


class IntReply(Node, NamedTuple("IntReply", [("value", int)])):
    __slots__ = ()


class BulkReply(Node, NamedTuple("BulkReply", [("data", bytes | None)])):
    """``data`` None is the nil reply."""

    __slots__ = ()


class MultiBulk(Node, NamedTuple("MultiBulk", [("items", tuple[bytes, ...])])):
    __slots__ = ()


class ErrReply(Node, NamedTuple("ErrReply", [("message", str)])):
    __slots__ = ()


Reply = SimpleStatus | IntReply | BulkReply | MultiBulk | ErrReply

OK = SimpleStatus("OK")
PONG = SimpleStatus("PONG")


def _key(argv: Sequence[bytes], i: int) -> str:
    return argv[i].decode("latin-1")


class _WrongType(Exception):
    """A command met a key holding the wrong kind of value."""


# Strings are held as bytes, lists as deques (head first), sets as sets
# and hashes as field dicts.
_Value = bytes | deque | set | dict
_State = dict[str, _Value]


def _holding(state: _State, k: str, kind: type) -> _Value | None:
    """The value at ``k`` if it is of ``kind``, None if ``k`` is absent."""
    v = state.get(k)
    if v is not None and not isinstance(v, kind):
        raise _WrongType
    return v


def _apply(state: _State, name: str, argv: Sequence[bytes]) -> Reply:
    """Run one arity-checked command, updating ``state`` in place.

    Raises _WrongType before any update.
    """
    if name == "PING":
        return PONG
    k = _key(argv, 1)

    if name == "SET":
        state[k] = bytes(argv[2])
        return OK

    if name == "SETNX":
        if k in state:
            return IntReply(0)
        state[k] = bytes(argv[2])
        return IntReply(1)

    if name == "GET":
        v = _holding(state, k, bytes)
        return BulkReply(v)

    if name == "DEL":
        return IntReply(0 if state.pop(k, None) is None else 1)

    if name == "INCR":
        v = _holding(state, k, bytes)
        try:
            n = int64_value(b"0" if v is None else v)
        except DecodeError:
            return ErrReply(NOT_INT_MSG)
        if n == INT64_MAX:
            return ErrReply(OVERFLOW_MSG)
        state[k] = str(n + 1).encode("ascii")
        return IntReply(n + 1)

    if name == "INCRBYFLOAT":
        v = _holding(state, k, bytes)  # the type first, as the real store checks it
        d = redis_float(argv[2])
        old = redis_float(b"0" if v is None else v)
        if d is None or old is None:
            return ErrReply(NOT_FLOAT_MSG)
        result = old + d
        if not math.isfinite(result):
            return ErrReply(NONFINITE_MSG)
        encoded = repr(result).encode("ascii")
        state[k] = encoded
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
        self._state: _State = {}

    def execute(self, argv: Sequence[bytes]) -> Reply:
        """Run one wire command, updating the store in place; never raises."""
        if not argv:
            return ErrReply("ERR empty command")
        name = argv[0].decode("latin-1").upper()
        arity = WIRE_ARITIES.get(name)
        if arity is None:
            return ErrReply(f"ERR unknown command '{argv[0].decode('latin-1')}'")
        if len(argv) != arity:
            return ErrReply(f"ERR wrong number of arguments for '{name.lower()}' command")
        try:
            return _apply(self._state, name, argv)
        except _WrongType:
            return ErrReply(WRONGTYPE_MSG)

    def reset(self) -> None:
        self._state = {}

    def snapshot(self) -> list[dict[str, object]]:
        """Typed copy sorted by key, unchanged by later commands; --dump-store prints it."""
        out: list[dict[str, object]] = []
        for k in sorted(self._state):
            v = self._state[k]
            if isinstance(v, bytes):
                entry: dict[str, object] = {"type": "string", "value": v.decode("latin-1")}
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
