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
    TEXT,
    BaseType,
    Node,
    RecordDecl,
    RecordRef,
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
        msg = f"cannot decode {quote(data)} as {base_name}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)
        self.base_name = base_name
        self.data = data


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


def _is_payload(value: Any, base: BaseType) -> bool:
    """Whether a record field value (as JSON holds it) has scalar type ``base``."""
    if base == INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if base == FLOAT:
        return isinstance(value, float) and math.isfinite(value)
    if base == BOOL:
        return isinstance(value, bool)
    return isinstance(value, str)


def encode(v: TypedValue, records: Mapping[str, RecordDecl] | None = None) -> bytes:
    base = v.base
    if base == INT:
        return str(v.value).encode("ascii")
    if base == FLOAT:
        return repr(v.value).encode("ascii")
    if base == BOOL:
        return b"true" if v.value else b"false"
    if base == TEXT:
        return v.value.encode("utf-8")
    assert isinstance(base, RecordRef)
    decl = _record_decl(base, records)
    rec: RecordValue = v.value
    # Field payloads go into the JSON object as-is; shape was validated
    # at construction time, so this only guards against drift.
    assert all(_is_payload(val, fbase) for (_, fbase), val in zip(decl.fields, rec.values))
    return _record_bytes(decl, rec.values)


def _record_bytes(decl: RecordDecl, values: Sequence[Any]) -> bytes:
    obj = {name: val for (name, _), val in zip(decl.fields, values)}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def int_value(data: bytes) -> int:
    """The int ``data`` spells in the canonical form above (which INCR also uses)."""
    # int() also reads spaces, '+', '_' and leading zeros; the round trip
    # through the canonical spelling turns all of those away.
    try:
        n = int(data)
    except ValueError:
        n = None
    if n is None or b"%d" % n != data:
        raise DecodeError(INT.name, data)
    return n


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
        pairs = json.loads(data.decode("utf-8"), object_pairs_hook=list)
    except (UnicodeDecodeError, ValueError, RecursionError):
        raise DecodeError(decl.name, data, "not a JSON object") from None
    if not (isinstance(pairs, list) and all(isinstance(p, tuple) for p in pairs)):
        raise DecodeError(decl.name, data, "not a JSON object")
    if [p[0] for p in pairs] != [n for n, _ in decl.fields]:
        raise DecodeError(decl.name, data, "field names or order mismatch")
    values: list[Any] = []
    for (fname, fbase), (_, raw) in zip(decl.fields, pairs):
        if not _is_payload(raw, fbase):
            raise DecodeError(decl.name, data, f"field '{fname}' has the wrong type")
        values.append(raw)
    # One canonical byte string per value: reject every other spelling
    # (whitespace, \u escapes, exponent variants) by re-encoding.
    if _record_bytes(decl, values) != data:
        raise DecodeError(decl.name, data, "not canonical")
    return RecordValue(decl.name, tuple(values))


_SCALAR_VALUES: dict[BaseType, Callable[[bytes], Any]] = {
    INT: int_value,
    FLOAT: _float_value,
    BOOL: _bool_value,
    TEXT: _text_value,
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
    return TypedValue(base, value_decoder(base, records)(data))
