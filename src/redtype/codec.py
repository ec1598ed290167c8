"""Byte serialization of typed values.

Encodings are canonical: every value has exactly one byte string, and
``decode`` accepts exactly the image of ``encode`` (anything else is a
DecodeError).  Integers use the same signed-decimal form the store's
INCR produces, so a counter written here can be incremented there and
read back without ever leaving the codec's image.

  int    -> ASCII signed decimal, no leading zeros, never "-0"
  float  -> shortest round-trip decimal, always with '.' or exponent
  bool   -> b"true" / b"false"
  text   -> raw UTF-8
  record -> compact JSON object, fields in declaration order,
            e.g. {"body":"hello","id":1}

A record is spelled directly, not through ``json.dumps``: field names
and text as JSON strings with only the escapes JSON requires (non-ASCII
stays unescaped), ints and floats by ``repr``, bools as true/false.
That is byte for byte what ``json.dumps(obj, separators=(",", ":"),
ensure_ascii=False)`` gives; ``tests/oracles.py`` keeps that encoder as
the reference.  A record payload is canonical when its UTF-8 text is
this spelling of the values it parses to, so escapes JSON does not
require, including one of a lone surrogate, are rejected.
"""

from __future__ import annotations

import json
import math
import re
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .syntax import (
    BOOL,
    FLOAT,
    INT,
    INT64_MAX,
    INT64_MIN,
    TEXT,
    BaseType,
    Node,
    RecordDecl,
    RecordRef,
    new_node,
)


class RecordValue(Node, NamedTuple("RecordValue", [("name", str), ("values", tuple[Any, ...])])):
    """A constructed record: declaration name plus field payloads in order."""

    __slots__ = ()


class TypedValue(Node, NamedTuple("TypedValue", [("base", BaseType), ("value", Any)])):
    __slots__ = ()


def quote(payload: Any) -> str:
    """``repr(payload)``, a bytes or str payload cut to 64 items plus "..." if longer."""
    if isinstance(payload, (bytes, str)) and len(payload) > 64:
        payload = payload[:64] + ("..." if isinstance(payload, str) else b"...")
    return repr(payload)


class DecodeError(Exception):
    def __init__(self, base_name: str, data: bytes, reason: str = ""):
        # Exception keeps the arguments as given, so copy and pickle rebuild the error.
        self.base_name = base_name
        self.data = data
        self.reason = reason

    def __str__(self) -> str:
        why = f" ({self.reason})" if self.reason else ""
        return f"cannot decode {quote(self.data)} as {self.base_name}{why}"


def _record_decl(base: RecordRef, records: Mapping[str, RecordDecl] | None) -> RecordDecl:
    if records is None or base.name not in records:
        raise KeyError(f"unknown record declaration '{base.name}'")
    return records[base.name]


_FLOAT_RE = re.compile(rb"\A[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")


def redis_float(data: bytes) -> float | None:
    """The float ``data`` spells in the store's INCRBYFLOAT grammar, else None.

    The grammar is an ASCII signed decimal with an optional exponent: no
    spaces, underscores, nan or inf.  Finite spellings can still overflow
    to infinity (1e999).
    """
    return float(data) if _FLOAT_RE.match(data) else None


def encode(v: TypedValue, records: Mapping[str, RecordDecl] | None = None) -> bytes:
    base, value = v
    scalar = _SCALAR_BYTES.get(base)
    if scalar is not None:
        return scalar(value)
    assert isinstance(base, RecordRef)
    decl = _record_decl(base, records)
    # Field payloads were validated at construction time, so this only
    # guards against drift.
    assert all(_IS_PAYLOAD[fbase](val) for (_, fbase), val in zip(decl.fields, value.values))
    return _record_text(decl, value.values).encode("utf-8")


_json_str: Callable[[str], str] = json.JSONEncoder(ensure_ascii=False).encode
_json_decode: Callable[[str], Any] = json.JSONDecoder(object_pairs_hook=list).decode


def _record_text(decl: RecordDecl, values: Sequence[Any]) -> str:
    """The canonical JSON text of a record with these field values."""
    pairs = [f"{_json_str(name)}:{_JSON_SPELLINGS[fbase](val)}" for (name, fbase), val in zip(decl.fields, values)]
    return "{" + ",".join(pairs) + "}"


def int_value(data: bytes) -> int:
    """The int ``data`` spells in the canonical form above, of any size (INCR reads with ``int64_value``)."""
    # int() also reads spaces, '+', '_' and leading zeros; the round trip
    # through the canonical spelling turns all of those away.
    try:
        n = int(data)
    except ValueError:
        n = None
    if n is None or b"%d" % n != data:
        raise DecodeError(INT.name, data)
    return n


# The longest spelling of an int64, "-9223372036854775808".
_LONGEST_INT64 = len(b"%d" % INT64_MIN)


def int64_value(data: bytes) -> int:
    """The int64 ``data`` spells canonically: how INCR, and so the premise, reads a stored int.

    A spelling longer than any int64's is refused before int() reads it.
    """
    if len(data) <= _LONGEST_INT64:
        n = int_value(data)
        if INT64_MIN <= n <= INT64_MAX:
            return n
    raise DecodeError(INT.name, data)


def _float_value(data: bytes) -> float:
    try:
        s = data.decode("ascii")
        f = float(s)
    except (UnicodeDecodeError, ValueError):
        raise DecodeError(FLOAT.name, data) from None
    if not math.isfinite(f) or repr(f) != s:
        raise DecodeError(FLOAT.name, data, "not canonical")
    return f


def _bool_value(data: bytes) -> bool:
    if data == b"true":
        return True
    if data == b"false":
        return False
    raise DecodeError(BOOL.name, data)


def _text_value(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise DecodeError(TEXT.name, data, "invalid UTF-8") from None


def _record_value(decl: RecordDecl, data: bytes) -> RecordValue:
    try:
        text = data.decode("utf-8")
        pairs = _json_decode(text)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        raise DecodeError(decl.name, data, "not a JSON object") from None
    if not (isinstance(pairs, list) and all(isinstance(p, tuple) for p in pairs)):
        raise DecodeError(decl.name, data, "not a JSON object")
    if [p[0] for p in pairs] != [n for n, _ in decl.fields]:
        raise DecodeError(decl.name, data, "field names or order mismatch")
    values = tuple(raw for _, raw in pairs)
    for (fname, fbase), raw in zip(decl.fields, values):
        if not _IS_PAYLOAD[fbase](raw):
            raise DecodeError(decl.name, data, f"field '{fname}' has the wrong type")
    # One canonical byte string per value: reject every other spelling
    # (whitespace, escapes JSON does not require, exponent variants) by
    # comparing the text with the canonical spelling of what it parsed to.
    if _record_text(decl, values) != text:
        raise DecodeError(decl.name, data, "not canonical")
    return RecordValue(decl.name, values)


# Per scalar base: its payload decoder and encoder, its spelling as a
# record field's JSON value, and whether a field value as JSON holds it
# has this base.
_SCALAR_VALUES: dict[BaseType, Callable[[bytes], Any]] = {
    INT: int_value,
    FLOAT: _float_value,
    BOOL: _bool_value,
    TEXT: _text_value,
}
_SCALAR_BYTES: dict[BaseType, Callable[[Any], bytes]] = {
    INT: lambda n: str(n).encode("ascii"),
    FLOAT: lambda f: repr(f).encode("ascii"),
    BOOL: lambda b: b"true" if b else b"false",
    TEXT: lambda s: s.encode("utf-8"),
}
_JSON_SPELLINGS: dict[BaseType, Callable[[Any], str]] = {
    INT: repr,
    FLOAT: repr,
    BOOL: lambda b: "true" if b else "false",
    TEXT: _json_str,
}
_IS_PAYLOAD: dict[BaseType, Callable[[Any], bool]] = {
    INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    FLOAT: lambda v: isinstance(v, float) and math.isfinite(v),
    BOOL: lambda v: isinstance(v, bool),
    TEXT: lambda v: isinstance(v, str),
}


def value_decoder(
    base: BaseType, records: Mapping[str, RecordDecl] | None = None
) -> Callable[[bytes], Any]:
    """The function that takes one payload of ``base`` to its plain value.

    It raises DecodeError on every byte string outside ``encode``'s image.
    Look it up once to decode many payloads of one base.
    """
    if isinstance(base, RecordRef):
        return partial(_record_value, _record_decl(base, records))
    return _SCALAR_VALUES[base]


def decode(
    data: bytes, base: BaseType, records: Mapping[str, RecordDecl] | None = None
) -> TypedValue:
    """``data`` decoded by ``value_decoder(base, records)``, with its base."""
    return new_node(TypedValue, (base, value_decoder(base, records)(data)))
