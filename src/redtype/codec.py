"""Byte serialization of typed values.

Encodings are canonical: every value has exactly one byte string, and
``decode`` accepts exactly the image of ``encode`` (anything else is a
DecodeError).  Integers use the same signed-decimal form the store's
INCR produces, so a counter written here can be incremented there and
read back without ever leaving the codec's image.  ``encode`` raises
ValueError on a value outside ``decode``'s image.  The interpreter's
int/str digit limit (4,300 digits by default) bounds ints: ``encode`` of
a longer int raises ValueError, and ``decode`` refuses one (DecodeError).

  int    -> ASCII signed decimal, no leading zeros, never "-0"
  float  -> shortest round-trip decimal, always with '.' or exponent
  bool   -> b"true" / b"false"
  text   -> raw UTF-8
  record -> compact JSON object, fields in declaration order,
            e.g. {"body":"hello","id":1}

Each record declaration gets one encoder and one decoder, built at its
first use and kept in a table bounded to 64 declarations.  The encoder
spells a record directly, not through ``json.dumps``: field names and
text as JSON strings with only the escapes JSON requires (non-ASCII
stays unescaped), ints and floats by ``repr``, bools as true/false.
That is byte for byte what ``json.dumps(obj, separators=(",", ":"),
ensure_ascii=False)`` gives; ``tests/oracles.py`` keeps that encoder as
the reference.  The decoder makes one match of the declaration's pattern
and one conversion per field, and a field's token must be the spelling
of its value, so escapes JSON does not require, including one of a lone
surrogate, are rejected.  Only a payload that fails goes on to the JSON
reader, which names the DecodeError's reason.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from operator import call
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
    """``v``'s payload, through ``value_encoder(v.base, records)``, after testing that ``v.value`` is of ``v.base``."""
    if v.base not in _IS_PAYLOAD or _IS_PAYLOAD[v.base](v.value):
        try:
            return value_encoder(v.base, records)(v.value)
        except UnicodeEncodeError:  # text with a lone surrogate, which UTF-8 cannot spell
            pass
    raise ValueError(f"{quote(v.value)} is not a value of {v.base.name}")


_json_str: Callable[[str], str] = json.encoder.encode_basestring  # as json.dumps(s, ensure_ascii=False)
_json_decode: Callable[[str], Any] = json.JSONDecoder(object_pairs_hook=list).decode


def int_value(data: bytes) -> int:
    """The int ``data`` spells in the canonical form above, within the digit limit (INCR reads with ``int64_value``)."""
    # int() also reads spaces, '+', '_' and leading zeros; the round trip
    # through the canonical spelling turns all of those away.
    try:
        n = int(data)
    except ValueError:
        n = None
    if n is None or b"%d" % n != data:
        raise DecodeError(INT.name, data)
    return n


def int_values(items: Sequence[bytes]) -> list[int]:
    """``list(map(int_value, items))``, read with one int() per item and one comparison for the whole list."""
    try:
        values = list(map(int, items))
        if tuple(map(b"%d".__mod__, values)) == tuple(items):
            return values
    except ValueError:
        pass
    return list(map(int_value, items))  # raises the first bad item's DecodeError


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


def _refusal(decl: RecordDecl, data: bytes) -> DecodeError:
    """Why ``data`` is no payload of ``decl``, as the JSON reader sees it."""
    try:
        pairs = _json_decode(data.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return DecodeError(decl.name, data, "not a JSON object")
    if not (isinstance(pairs, list) and all(isinstance(p, tuple) for p in pairs)):
        return DecodeError(decl.name, data, "not a JSON object")
    if [p[0] for p in pairs] != [n for n, _ in decl.fields]:
        return DecodeError(decl.name, data, "field names or order mismatch")
    for (fname, fbase), (_, raw) in zip(decl.fields, pairs):
        if not _IS_PAYLOAD[fbase](raw):
            return DecodeError(decl.name, data, f"field '{fname}' has the wrong type")
    return DecodeError(decl.name, data, "not canonical")  # whitespace, needless escapes, exponent variants


# Per scalar base: its payload decoder and encoder, its spelling as a
# record field's JSON value, whether a field value as JSON holds it has
# this base, and the pattern of a field's JSON token with its reader.
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
_JSON_TOKENS: dict[BaseType, tuple[str, Callable[[str], Any]]] = {
    INT: ("0|-?[1-9][0-9]*", int),
    FLOAT: ("-?[0-9][0-9.e+-]*", float),
    BOOL: ("true|false", "true".__eq__),
    TEXT: (r'"[^"\\]*(?:\\.[^"\\]*)*"', lambda token: json.decoder.scanstring(token, 1)[0]),
}


@lru_cache(maxsize=64)
def _record_coders(decl: RecordDecl) -> tuple[Callable[[Any], bytes], Callable[[bytes], RecordValue]]:
    """The payload encoder and decoder of one declaration, built at its first use."""
    name, fields = decl
    keys = [_json_str(fname) + ":" for fname, _ in fields]
    template = "{" + ",".join(k.replace("%", "%%") + "%s" for k in keys) + "}"
    fits, spells = [_IS_PAYLOAD[b] for _, b in fields], [_JSON_SPELLINGS[b] for _, b in fields]
    tokens, reads = [_JSON_TOKENS[b][0] for _, b in fields], [_JSON_TOKENS[b][1] for _, b in fields]
    pattern = re.compile(r"\{" + ",".join(f"{re.escape(k)}({t})" for k, t in zip(keys, tokens)) + r"\}")

    def encode(value: Any) -> bytes:
        if (type(value) is RecordValue and value.name == name and len(value.values) == len(fields)
                and all(map(call, fits, value.values))):
            try:
                return (template % tuple(map(call, spells, value.values))).encode()
            except UnicodeEncodeError:  # a text field with a lone surrogate
                pass
        raise ValueError(f"{quote(value)} is not a value of record '{name}'")

    def decode(data: bytes) -> RecordValue:
        try:
            match = pattern.fullmatch(data.decode("utf-8"))
            values = tuple(map(call, reads, match.groups())) if match else None
        except ValueError:  # invalid UTF-8, or a token its reader refuses
            values = None
        if values is None or tuple(map(call, spells, values)) != match.groups():
            raise _refusal(decl, data)
        return new_node(RecordValue, (name, values))

    return encode, decode


def value_encoder(base: BaseType, records: Mapping[str, RecordDecl] | None = None) -> Callable[[Any], bytes]:
    """The mirror of ``value_decoder``; a record's encoder raises ValueError on a value unfit for its declaration."""
    if isinstance(base, RecordRef):
        return _record_coders(_record_decl(base, records))[0]
    return _SCALAR_BYTES[base]


def value_decoder(base: BaseType, records: Mapping[str, RecordDecl] | None = None) -> Callable[[bytes], Any]:
    """The function that takes one payload of ``base`` to its plain value.

    It raises DecodeError on every byte string outside ``encode``'s image.
    Look it up once to decode many payloads of one base.
    """
    if isinstance(base, RecordRef):
        return _record_coders(_record_decl(base, records))[1]
    return _SCALAR_VALUES[base]


def decode(data: bytes, base: BaseType, records: Mapping[str, RecordDecl] | None = None) -> TypedValue:
    """``data`` decoded by ``value_decoder(base, records)``, with its base."""
    return new_node(TypedValue, (base, value_decoder(base, records)(data)))
