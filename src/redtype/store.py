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
ErrReply.  Keys, hash fields and values stay the wire's bytes up to
``snapshot``, the one read-out and the one place where they turn into
text: a sorted, typed copy that later commands do not change.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, NamedTuple, Sequence

from .codec import DecodeError, int64_value, redis_float
from .syntax import INT64_MAX, KINDS, WIRE_ARITIES, HashOf, ListOf, Node, SetOf, StringOf, new_node

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

# Replies that many commands give, shared rather than built per command.
OK = SimpleStatus("OK")
PONG = SimpleStatus("PONG")
ZERO, ONE, NIL = IntReply(0), IntReply(1), BulkReply(None)


class _WrongType(Exception):
    """A command met a key holding the wrong kind of value."""


# Keys, hash fields and strings are held as the wire's bytes, lists as
# deques (head first), sets as sets and hashes as field dicts.
_Value = bytes | deque | set | dict
_State = dict[bytes, _Value]

# The kind of each value class, as the store's TYPE reply names it.
_KIND_OF: dict[type, str] = {bytes: KINDS[StringOf], deque: KINDS[ListOf], set: KINDS[SetOf], dict: KINDS[HashOf]}


def _holding(state: _State, k: bytes, kind: type) -> _Value | None:
    """The value at ``k`` if it is of ``kind``, None if ``k`` is absent."""
    v = state.get(k)
    if v is not None and not isinstance(v, kind):
        raise _WrongType
    return v


# One function per wire command: it runs the arity-checked command on
# ``state`` in place, and raises _WrongType before any update.


def _ping(state: _State, argv: Sequence[bytes]) -> Reply:
    return PONG


def _set(state: _State, argv: Sequence[bytes]) -> Reply:
    state[argv[1]] = argv[2]
    return OK


def _setnx(state: _State, argv: Sequence[bytes]) -> Reply:
    if argv[1] in state:
        return ZERO
    state[argv[1]] = argv[2]
    return ONE


def _get(state: _State, argv: Sequence[bytes]) -> Reply:
    v = _holding(state, argv[1], bytes)
    return NIL if v is None else new_node(BulkReply, (v,))


def _del(state: _State, argv: Sequence[bytes]) -> Reply:
    return ZERO if state.pop(argv[1], None) is None else ONE


def _incr(state: _State, argv: Sequence[bytes]) -> Reply:
    k = argv[1]
    v = _holding(state, k, bytes)
    try:
        n = int64_value(b"0" if v is None else v)
    except DecodeError:
        return ErrReply(NOT_INT_MSG)
    if n == INT64_MAX:
        return ErrReply(OVERFLOW_MSG)
    state[k] = b"%d" % (n + 1)
    return new_node(IntReply, (n + 1,))


def _incrbyfloat(state: _State, argv: Sequence[bytes]) -> Reply:
    k = argv[1]
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
    return new_node(BulkReply, (encoded,))


def _lpush(state: _State, argv: Sequence[bytes]) -> Reply:
    k = argv[1]
    items = _holding(state, k, deque)
    if items is None:
        items = state[k] = deque()
    items.appendleft(argv[2])
    return new_node(IntReply, (len(items),))


def _llen(state: _State, argv: Sequence[bytes]) -> Reply:
    items = _holding(state, argv[1], deque)
    return ZERO if items is None else new_node(IntReply, (len(items),))


def _rpop(state: _State, argv: Sequence[bytes]) -> Reply:
    k = argv[1]
    items = _holding(state, k, deque)
    if items is None:
        return NIL
    last = items.pop()
    if not items:
        del state[k]
    return new_node(BulkReply, (last,))


def _sadd(state: _State, argv: Sequence[bytes]) -> Reply:
    k, member = argv[1], argv[2]
    members = _holding(state, k, set)
    if members is None:
        members = state[k] = set()
    elif member in members:
        return ZERO
    members.add(member)
    return ONE


def _sinter(state: _State, argv: Sequence[bytes]) -> Reply:
    a, b = (_holding(state, argv[i], set) for i in (1, 2))
    common = set() if a is None or b is None else a & b
    return new_node(MultiBulk, (tuple(sorted(common)),))


def _hset(state: _State, argv: Sequence[bytes]) -> Reply:
    k, f = argv[1], argv[2]
    fields = _holding(state, k, dict)
    if fields is None:
        fields = state[k] = {}
    created = f not in fields
    fields[f] = argv[3]
    return ONE if created else ZERO


def _hget(state: _State, argv: Sequence[bytes]) -> Reply:
    fields = _holding(state, argv[1], dict)
    v = None if fields is None else fields.get(argv[2])
    return NIL if v is None else new_node(BulkReply, (v,))


# Wire name -> (argument count including the name, the function named by
# that name in lower case).
_COMMANDS: dict[bytes, tuple[int, Callable[[_State, Sequence[bytes]], Reply]]] = {
    name.encode("ascii"): (arity, globals()["_" + name.lower()]) for name, arity in WIRE_ARITIES.items()
}


class MemoryStore:
    """Mutable store applying commands to its own state in place, in order."""

    def __init__(self) -> None:
        self._state: _State = {}

    def execute(self, argv: Sequence[bytes]) -> Reply:
        """Run one wire command, its ``argv`` bytes kept as given, in place; never raises."""
        if not argv:
            return ErrReply("ERR empty command")
        # Names come upper case from the backend; any other case is looked up again.
        command = _COMMANDS.get(argv[0]) or _COMMANDS.get(argv[0].upper())
        if command is None:
            return ErrReply(f"ERR unknown command '{argv[0].decode('latin-1')}'")
        arity, run = command
        if len(argv) != arity:
            return ErrReply(f"ERR wrong number of arguments for '{argv[0].decode('latin-1').lower()}' command")
        try:
            return run(self._state, argv)
        except _WrongType:
            return ErrReply(WRONGTYPE_MSG)

    def reset(self) -> None:
        self._state = {}

    def snapshot(self) -> list[dict[str, object]]:
        """Typed copy sorted by key, each byte read as one latin-1 character; --dump-store prints it."""
        out: list[dict[str, object]] = []
        for k in sorted(self._state):
            v = self._state[k]
            if isinstance(v, bytes):
                value: object = v.decode("latin-1")
            elif isinstance(v, dict):
                value = {f.decode("latin-1"): data.decode("latin-1") for f, data in sorted(v.items())}
            else:
                value = [b.decode("latin-1") for b in (sorted(v) if isinstance(v, set) else v)]
            out.append({"key": k.decode("latin-1"), "type": _KIND_OF[type(v)], "value": value})
        return out
