"""Naive reference models for the dictionary operations, the lexer, the parser,
the RESP reply decoder, the record encoder and the record reader.

Written independently of the package implementation, in a deliberately
different style (index arithmetic and list comprehensions instead of
first-match recursion; a character-at-a-time scanner that tracks line and
column as it goes instead of one compiled pattern), so agreement between
the two is meaningful.  The reference parser is the package's earlier
token-object parser, the reference reply decoder its earlier
item-at-a-time decoder, the reference record encoder its earlier
``json.dumps`` encoder and the reference record reader its earlier JSON
reader, all kept verbatim.  Kept in its own module
because both the unit tests and the acceptance sweep drive it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

from redtype.lexer import _ESCAPE, _TOKEN, _bad_token, _unescape
from redtype.parser import (
    _BASE_KEYWORDS,
    _CONTAINER_KEYWORDS,
    MAX_NESTING,
    RESERVED,
    ParseError,
    _clip,
    tag_text,
)
from redtype.codec import DecodeError, RecordValue
from redtype.resp import CRLF, MAX_ARRAY_LEN, MAX_BULK_LEN, MAX_LINE_LEN, ProtocolError
from redtype.store import BulkReply, ErrReply, IntReply, MultiBulk, Reply, SimpleStatus
from redtype.syntax import (
    BOOL,
    COMMAND_SHAPES,
    FLOAT,
    INT,
    OPCODES,
    TEXT,
    BaseType,
    BoolLit,
    Command,
    Expr,
    FloatLit,
    HashOf,
    IntLit,
    Program,
    RecordDecl,
    RecordLit,
    RecordRef,
    Span,
    StringOf,
    TextLit,
    TypeTag,
    Var,
)

_T = TypeVar("_T")
from redtype.typedict import STUCK, Found


def _positions(xs, k):
    return [i for i, (key, _) in enumerate(xs) if key == k]


def get(xs, k):
    hits = _positions(xs, k)
    if not hits:
        return STUCK
    return Found(xs[hits[0]][1])


def set_(xs, k, x):
    hits = _positions(xs, k)
    if not hits:
        return list(xs) + [(k, x)]
    i = hits[0]
    return [(k, x) if j == i else e for j, e in enumerate(xs)]


def del_(xs, k):
    hits = _positions(xs, k)
    if not hits:
        return list(xs)
    i = hits[0]
    return [e for j, e in enumerate(xs) if j != i]


def member(xs, k):
    return len(_positions(xs, k)) > 0


def _hash_positions(xs, k):
    """Indices of entries for k that are hashes (skip-over model)."""
    return [i for i, (key, tag) in enumerate(xs) if key == k and isinstance(tag, HashOf)]


def hash_get(xs, k, f):
    hits = _positions(xs, k)
    if not hits:
        return STUCK
    tag = xs[hits[0]][1]
    if not isinstance(tag, HashOf):
        return STUCK
    return get(list(tag.fields), f)


def hash_set(xs, k, f, a: TypeTag):
    hits = _hash_positions(xs, k)
    if not hits:
        return list(xs) + [(k, HashOf(((f, a),)))]
    i = hits[0]
    fields = tuple(set_(list(xs[i][1].fields), f, a))
    return [(k, HashOf(fields)) if j == i else e for j, e in enumerate(xs)]


def hash_del(xs, k, f):
    hits = _hash_positions(xs, k)
    if not hits:
        return list(xs)
    i = hits[0]
    fields = tuple(del_(list(xs[i][1].fields), f))
    return [(k, HashOf(fields)) if j == i else e for j, e in enumerate(xs)]


def hash_member(xs, k, f):
    hits = _positions(xs, k)
    if not hits:
        return False
    tag = xs[hits[0]][1]
    return isinstance(tag, HashOf) and member(list(tag.fields), f)


# ---------------------------------------------------------------------------
# lexer


_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_PUNCT = {"{": "LBRACE", "}": "RBRACE", "<": "LT", ">": "GT", ":": "COLON", ",": "COMMA"}


def _ident_start(c):
    return c.isascii() and (c.isalpha() or c == "_")


def _ident_cont(c):
    return c.isascii() and (c.isalnum() or c in "_-")


def _digit(c):
    return "0" <= c <= "9"


def lex(source):
    """Tokens of ``source`` as ``(kind, text, line, col)``, ending with EOF.

    Raises the ParseError the package lexer raises, at the same place.
    """
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def bump(text):
        nonlocal line, col
        for c in text:
            if c == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            bump(c)
            i += 1
            continue
        if c == "#":
            j = source.find("\n", i)
            if j == -1:
                j = n
            bump(source[i:j])
            i = j
            continue

        start_line, start_col = line, col

        if _ident_start(c):
            j = i + 1
            while j < n and _ident_cont(source[j]):
                j += 1
            tokens.append(("IDENT", source[i:j], start_line, start_col))
            bump(source[i:j])
            i = j
            continue

        if _digit(c) or (c == "-" and i + 1 < n and _digit(source[i + 1])):
            j = i + 1
            while j < n and _digit(source[j]):
                j += 1
            kind = "INT"
            if j < n and source[j] == "." and j + 1 < n and _digit(source[j + 1]):
                kind = "FLOAT"
                j += 1
                while j < n and _digit(source[j]):
                    j += 1
                if j < n and source[j] in "eE":
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    if k < n and _digit(source[k]):
                        while k < n and _digit(source[k]):
                            k += 1
                        j = k
                    else:
                        raise ParseError(start_line, start_col, "exponent digits", "malformed float literal")
            tokens.append((kind, source[i:j], start_line, start_col))
            bump(source[i:j])
            i = j
            continue

        if c == '"':
            bump(c)
            i += 1
            chars = []
            while True:
                if i >= n:
                    raise ParseError(start_line, start_col, "closing '\"'", "end of input")
                c = source[i]
                if c == '"':
                    bump(c)
                    i += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError(line, col, "escape character", "end of input")
                    esc = source[i + 1]
                    if esc not in _ESCAPES:
                        raise ParseError(line, col, "one of \\\" \\\\ \\n \\t", f"'\\{esc}'")
                    chars.append(_ESCAPES[esc])
                    bump(source[i : i + 2])
                    i += 2
                    continue
                chars.append(c)
                bump(c)
                i += 1
            tokens.append(("STRING", "".join(chars), start_line, start_col))
            continue

        if c == "<" and i + 1 < n and source[i + 1] == "-":
            tokens.append(("ARROW", "<-", start_line, start_col))
            bump("<-")
            i += 2
            continue

        if c in _PUNCT:
            tokens.append((_PUNCT[c], c, start_line, start_col))
            bump(c)
            i += 1
            continue

        raise ParseError(start_line, start_col, "a token", f"character {c!r}")

    tokens.append(("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser
#
# The package parser as it was before it walked flat token lists: one
# ``_Token`` per token, and peek/advance/expect calls for each.  It shares
# the package's token pattern and bad-token error, which the reference lexer
# above checks, and locates errors and spans through its own table of line
# starts, so what it pins down is the grammar walk: which tree, which spans
# and which ParseError each input gives.


def _line_starts(source: str) -> list[int]:
    """Offset of the first character of each line."""
    return [0, *(i + 1 for i, c in enumerate(source) if c == "\n")]


def _where(starts: list[int], pos: int) -> tuple[int, int]:
    """1-based line and column of a source offset."""
    line = bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


def _located(starts: list[int], pos: int, expected: str, found: str) -> ParseError:
    return ParseError(*_where(starts, pos), expected, found)


class _Token(NamedTuple):
    kind: str  # IDENT INT FLOAT STRING LBRACE RBRACE LT GT COLON COMMA ARROW EOF
    text: str
    pos: int  # offset of the first character in the source

    def describe(self) -> str:
        if self.kind == "EOF":
            return "end of input"
        if self.kind == "STRING":
            return "text literal"
        return f"'{_clip(self.text)}'"



def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        pos = m.start(kind)
        text = m[kind]
        if kind == "STRING":
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
        elif kind == "FLOAT" and text[-1] in "eE+-":  # an exponent without digits
            raise _located(_line_starts(source), pos, "exponent digits", "malformed float literal")
        elif kind == "BAD":
            raise _bad_token(source, pos)
        tokens.append(_Token(kind, text, pos))
        if kind == "EOF":
            break
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.pos = 0
        self.starts = _line_starts(source)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def error(self, tok: _Token, expected: str, found: str) -> ParseError:
        return _located(self.starts, tok.pos, expected, found)

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        return self.error(tok, expected, tok.describe())

    def expect(self, kind: str, expected: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(expected)
        return self.advance()

    def expect_word(self, word: str) -> _Token:
        t = self.peek()
        if t.kind != "IDENT" or t.text != word:
            raise self.fail(f"'{word}'")
        return self.advance()

    def ident(self, expected: str) -> _Token:
        return self.expect("IDENT", expected)

    def deeper(self, tok: _Token, depth: int) -> int:
        if depth >= MAX_NESTING:
            raise self.error(tok, f"at most {MAX_NESTING} levels of nesting", "deeper nesting")
        return depth + 1

    def fresh_name(self, role: str) -> _Token:
        t = self.ident(f"{role} name")
        if t.text in RESERVED:
            raise self.error(t, f"{role} name", f"reserved word '{t.text}'")
        return t

    # ---- grammar productions ------------------------------------------

    def program(self) -> Program:
        records: list[RecordDecl] = []
        seen_records: set[str] = set()
        while self.peek().kind == "IDENT" and self.peek().text == "record":
            records.append(self.record_decl(seen_records))
        self.expect_word("program")
        self.expect("LBRACE", "'{'")
        body: list[Command] = []
        binders: set[str] = set()
        while not (self.peek().kind == "RBRACE"):
            if self.peek().kind == "EOF":
                raise self.fail("'}'")
            body.append(self.statement(binders))
        self.advance()  # RBRACE
        if self.peek().kind != "EOF":
            raise self.fail("end of input")
        return Program(tuple(records), tuple(body))

    def record_decl(self, seen_records: set[str]) -> RecordDecl:
        self.expect_word("record")
        name = self.fresh_name("record")
        if name.text in seen_records:
            raise self.error(name, "a new record name", f"duplicate record '{_clip(name.text)}'")
        seen_records.add(name.text)
        self.expect("LBRACE", "'{'")
        fields = self.fields("field name", "a new field name", lambda: self.base_type(allow_record=False))
        self.expect("RBRACE", "'}'")
        return RecordDecl(name.text, fields)

    def fields(self, role: str, fresh: str, value: Callable[[], _T]) -> tuple[tuple[str, _T], ...]:
        """Comma-separated ``name: value`` pairs with distinct names."""
        out: list[tuple[str, _T]] = []
        seen: set[str] = set()
        while True:
            fname = self.ident(role)
            if fname.text in seen:
                raise self.error(fname, fresh, f"duplicate field '{_clip(fname.text)}'")
            seen.add(fname.text)
            self.expect("COLON", "':'")
            out.append((fname.text, value()))
            if self.peek().kind != "COMMA":
                return tuple(out)
            self.advance()

    def base_type(self, allow_record: bool) -> BaseType:
        t = self.ident("a base type")
        if t.text in _BASE_KEYWORDS:
            return _BASE_KEYWORDS[t.text]
        if not allow_record:
            raise self.error(t, "a scalar base type (int, float, bool, text)", t.describe())
        if t.text in RESERVED:
            raise self.error(t, "a base type", f"reserved word '{t.text}'")
        return RecordRef(t.text)

    def type_tag(self, depth: int = 0) -> TypeTag:
        t = self.ident("a type tag (string, list, set, hash)")
        if t.text in _CONTAINER_KEYWORDS:
            self.expect("LT", "'<'")
            base = self.base_type(allow_record=True)
            self.expect("GT", "'>'")
            return _CONTAINER_KEYWORDS[t.text](base)
        if t.text == "hash":
            inner = self.deeper(t, depth)
            self.expect("LT", "'<'")
            fields = self.fields("hash field name", "a new hash field", lambda: self.field_tag(inner))
            self.expect("GT", "'>'")
            return HashOf(fields)
        raise self.error(t, "a type tag (string, list, set, hash)", t.describe())

    def field_tag(self, depth: int) -> StringOf:
        tok = self.peek()
        tag = self.type_tag(depth)
        if not isinstance(tag, StringOf):
            raise self.error(tok, "a string<...> field tag", _clip(tag_text(tag)))
        return tag

    def statement(self, binders: set[str]) -> Command:
        t = self.peek()
        if t.kind != "IDENT":
            raise self.fail("a command")
        binder: str | None = None
        if t.text not in OPCODES:
            name = self.fresh_name("binder")
            if name.text in binders:
                raise self.error(name, "a new binder name", f"duplicate binder '{_clip(name.text)}'")
            binders.add(name.text)
            binder = name.text
            self.expect("ARROW", "'<-'")
            t = self.peek()
            if t.kind != "IDENT" or t.text not in OPCODES:
                raise self.fail("a command")
        op_tok = self.advance()
        return self.command(op_tok, binder)

    def command(self, op_tok: _Token, binder: str | None) -> Command:
        n_keys, has_field, n_values, takes_tag = COMMAND_SHAPES[op_tok.text]
        keys = tuple([self.ident("a key").text for _ in range(n_keys)])
        field_name = self.ident("a hash field").text if has_field else None
        args = tuple([self.expr() for _ in range(n_values)])
        declared = None
        if takes_tag:
            self.expect("COLON", "':'")
            declared = self.type_tag()
        span = Span(*_where(self.starts, op_tok.pos))
        return Command(op_tok.text, keys, args, field_name, declared, binder, span)

    def expr(self, depth: int = 0) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.advance()
            # Redis integers are signed 64-bit; counting digits first keeps
            # int() off unbounded text, leading zeros included
            digits = t.text.lstrip("-0")
            value = int(digits or "0") if len(digits) <= 19 else 2**64  # out of range either sign
            if t.text[0] == "-":
                value = -value
            if not -(2**63) <= value < 2**63:
                raise self.error(t, "a signed 64-bit integer", "literal out of range")
            return IntLit(value)
        if t.kind == "FLOAT":
            self.advance()
            value = float(t.text)
            if value in (float("inf"), float("-inf")):
                raise self.error(t, "a representable float", "literal out of range")
            return FloatLit(value)
        if t.kind == "STRING":
            self.advance()
            return TextLit(t.text)
        if t.kind == "IDENT":
            self.advance()
            if t.text == "true":
                return BoolLit(True)
            if t.text == "false":
                return BoolLit(False)
            if self.peek().kind == "LBRACE":
                inner = self.deeper(t, depth)
                self.advance()
                args = [self.expr(inner)]
                while self.peek().kind == "COMMA":
                    self.advance()
                    args.append(self.expr(inner))
                self.expect("RBRACE", "'}'")
                return RecordLit(t.text, tuple(args))
            return Var(t.text)
        raise self.fail("an expression")


def parse(source: str) -> Program:
    """The reference parser's tree for ``source``, or its ParseError."""
    return _Parser(source).program()


def parse_tag(text: str) -> TypeTag:
    """The reference parser's tag for ``text``, or its ParseError."""
    p = _Parser(text)
    tag = p.type_tag()
    if p.peek().kind != "EOF":
        raise p.fail("end of input")
    return tag


# ---------------------------------------------------------------------------
# RESP reply decoder
#
# The package decoder as it was before it read array items in one cursor
# loop: every item goes through ``_parse`` and leaves the buffer on its
# own.  It shares the package's ProtocolError and limits, so what it pins
# down is which replies, and which ProtocolError at which reply, a byte
# stream gives at any split.


class _NeedMore(Exception):
    pass


class ReplyDecoder:
    """Feed bytes in, poll complete replies out.

    poll() returns None while the buffered data is still a prefix of a
    reply; it consumes exactly one reply's bytes otherwise.  Each byte
    is parsed once: a partial array resumes from a cursor (the items so
    far and how many are still due), and the bytes of every parsed item
    leave the buffer, so the next item starts at offset 0.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._items: list[bytes] | None = None  # the array being decoded
        self._due = 0

    def feed(self, data: bytes) -> None:
        self._buf += data

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet parsed."""
        return len(self._buf)

    def poll(self) -> Reply | None:
        try:
            if self._items is None:
                reply = self._parse()
                if reply is not None:
                    return reply
            while self._due:
                # Checked before descending, so nested arrays cannot recurse.
                if self._buf[:1] not in (b"$", b""):
                    raise ProtocolError("array element is not a bulk string")
                element = self._parse()
                if element.data is None:
                    raise ProtocolError("array element is not a bulk string")
                self._items.append(element.data)
                self._due -= 1
        except _NeedMore:
            return None
        reply = MultiBulk(tuple(self._items))
        self._items = None
        return reply

    def _parse(self) -> Reply | None:
        """Take one reply off the buffer's head.

        An array header opens the cursor instead and returns None;
        raises _NeedMore, consuming nothing, if the reply is incomplete.
        """
        if not self._buf:
            raise _NeedMore
        marker = self._buf[:1]
        line, used = self._line(1)
        if marker == b"+":
            reply: Reply = SimpleStatus(line.decode("latin-1"))
        elif marker == b"-":
            reply = ErrReply(line.decode("latin-1"))
        elif marker == b":":
            reply = IntReply(self._int(line))
        elif marker == b"$":
            n = self._int(line)
            if n < -1:
                raise ProtocolError(f"negative bulk length {n}")
            if n > MAX_BULK_LEN:
                raise ProtocolError(f"bulk length {n} exceeds {MAX_BULK_LEN}")
            if n == -1:
                reply = BulkReply(None)
            else:
                end = used + n
                if end + 2 > len(self._buf):
                    raise _NeedMore
                if self._buf[end : end + 2] != CRLF:
                    raise ProtocolError("bulk string not terminated by CRLF")
                reply = BulkReply(bytes(self._buf[used:end]))
                used = end + 2
        elif marker == b"*":
            n = self._int(line)
            if n < 0:
                raise ProtocolError(f"unsupported array length {n}")
            if n > MAX_ARRAY_LEN:
                raise ProtocolError(f"array length {n} exceeds {MAX_ARRAY_LEN}")
            self._items, self._due = [], n
            reply = None
        else:
            raise ProtocolError(f"unknown reply marker {bytes(marker)!r}")
        del self._buf[:used]
        return reply

    def _line(self, at: int) -> tuple[bytes, int]:
        end = self._buf.find(CRLF, at, at + MAX_LINE_LEN + 2)
        if end == -1:
            if len(self._buf) - at > MAX_LINE_LEN + 1:
                raise ProtocolError(f"reply line longer than {MAX_LINE_LEN} bytes")
            # A CR at the very end might be half a terminator.
            raise _NeedMore
        return bytes(self._buf[at:end]), end + 2

    @staticmethod
    def _int(line: bytes) -> int:
        try:
            return int(line)
        except ValueError:
            raise ProtocolError(f"malformed integer line {line!r}") from None


# ---------------------------------------------------------------------------
# record encoder
#
# The package's record encoder as it was before it spelled records
# directly: a dict of the fields through ``json.dumps``.  Only its bytes
# are the reference; the package's decoder checks canonicity against its
# own spelling.


def record_bytes(decl: RecordDecl, values: Sequence[Any]) -> bytes:
    obj = {name: val for (name, _), val in zip(decl.fields, values)}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


# ---------------------------------------------------------------------------
# record reader
#
# The package's record reader as it was before each declaration got its
# own pattern: parse the payload as JSON, check the field names and the
# kinds of their values, then spell the values again and compare that
# with the text.  Its helper tables are copied from the package as they
# were then.

_json_str = json.JSONEncoder(ensure_ascii=False).encode
_json_decode = json.JSONDecoder(object_pairs_hook=list).decode
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


def _record_text(decl: RecordDecl, values: Sequence[Any]) -> str:
    """The canonical JSON text of a record with these field values."""
    pairs = [f"{_json_str(name)}:{_JSON_SPELLINGS[fbase](val)}" for (name, fbase), val in zip(decl.fields, values)]
    return "{" + ",".join(pairs) + "}"


def record_value(decl: RecordDecl, data: bytes) -> RecordValue:
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
