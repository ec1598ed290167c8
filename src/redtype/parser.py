"""Surface syntax: lexer, parser, and pretty printer.

The grammar is whitespace-insensitive with '#' line comments.  Keys and
hash fields are bare symbols and may contain hyphens (some-set); binder
and record names must avoid the reserved words so that printed programs
re-lex unambiguously.  ``print_program`` emits a canonical form that
parses back to a structurally equal tree.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, TypeVar

from .syntax import (
    COMMAND_SHAPES,
    INT64_MAX,
    INT64_MIN,
    OPCODES,
    SCALARS,
    BaseType,
    BoolLit,
    Command,
    Expr,
    FloatLit,
    HashOf,
    IntLit,
    ListOf,
    Program,
    RecordDecl,
    RecordLit,
    RecordRef,
    SetOf,
    Span,
    StringOf,
    TextLit,
    TypeTag,
    Var,
)

_T = TypeVar("_T")

# The syntax nodes are named tuples, listed in field order.  Building them
# with tuple.__new__ skips the named tuple's Python-level __new__, which is
# about half of each node's cost and so a large share of parsing a command.
_new = tuple.__new__

_BASE_KEYWORDS = {b.name: b for b in SCALARS}
_CONTAINER_KEYWORDS = {"string": StringOf, "list": ListOf, "set": SetOf}
_TAG_KEYWORDS = {*_CONTAINER_KEYWORDS, "hash"}

RESERVED = frozenset(OPCODES) | _TAG_KEYWORDS | set(_BASE_KEYWORDS) | {
    "program",
    "record",
    "true",
    "false",
}


# Deepest nesting of record literals or hash tags the parser descends
# into.  Records are flat and hash fields hold strings, so any nesting is
# ill-typed already; the bound keeps hostile input from exhausting the
# stack.
MAX_NESTING = 64


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: str, found: str):
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


# Longest stretch of token text an error message quotes.
_QUOTE_MAX = 40


def _clip(text: str) -> str:
    return text if len(text) <= _QUOTE_MAX else text[:_QUOTE_MAX] + "..."


_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# A text literal as far as it is well formed, without its closing quote.
# The possessive quantifiers (Python 3.11) keep no backtracking state, so
# a literal of a million escapes costs no more memory to match than its
# own text.
_OPEN_TEXT = r'"[^"\\]*+(?:\\["\\nt][^"\\]*+)*+'

# Blanks and comments are a skipped prefix of each match.  Then one group
# per token kind, in priority order; character classes are spelled out
# because \d and \w admit Unicode digits and letters.  EOF matches only at
# the end and BAD takes any other character, so the matches tile the source.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]++|#[^\n]*+)*+(?:"
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_-]*)"
    r"|(?P<FLOAT>-?[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]*)?)"
    r"|(?P<INT>-?[0-9]+)"
    rf'|(?P<STRING>{_OPEN_TEXT}")'
    r"|(?P<ARROW><-)"
    r"|(?P<LBRACE>\{)|(?P<RBRACE>\})|(?P<LT><)|(?P<GT>>)|(?P<COLON>:)|(?P<COMMA>,)"
    r"|(?P<EOF>\Z)|(?P<BAD>.))",
    re.DOTALL,
)
_OPEN_TEXT_RE = re.compile(_OPEN_TEXT)
_ESCAPE = re.compile(r'\\(["\\nt])')


def _unescape(m: re.Match[str]) -> str:
    return _ESCAPES[m[1]]


def _line_starts(source: str) -> list[int]:
    """Offset of the first character of each line."""
    return [0, *(m.end() for m in re.finditer("\n", source))]


def _where(starts: list[int], pos: int) -> tuple[int, int]:
    """1-based line and column of a source offset."""
    line = bisect_right(starts, pos)
    return line, pos - starts[line - 1] + 1


def _located(starts: list[int], pos: int, expected: str, found: str) -> ParseError:
    return ParseError(*_where(starts, pos), expected, found)


def _bad_token(source: str, pos: int) -> ParseError:
    """The error for a character that starts no token."""
    starts = _line_starts(source)
    if source[pos] != '"':
        return _located(starts, pos, "a token", f"character {source[pos]!r}")
    # the literal stops short at a bad escape or at the end of input
    end = _OPEN_TEXT_RE.match(source, pos).end()
    if end == len(source):
        return _located(starts, pos, "closing '\"'", "end of input")
    if end + 1 == len(source):
        return _located(starts, end, "escape character", "end of input")
    return _located(starts, end, "one of \\\" \\\\ \\n \\t", f"'\\{source[end + 1]}'")


def _lex(source: str) -> tuple[list[str], list[str], list[int]]:
    """The tokens of ``source`` as parallel lists, ending with one EOF token.

    Each token has a kind (IDENT INT FLOAT STRING LBRACE RBRACE LT GT COLON
    COMMA ARROW EOF), a text, and the offset of its first character.
    """
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
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
        kinds.append(kind)
        texts.append(text)
        offsets.append(pos)
        if kind == "EOF":
            break
    return kinds, texts, offsets


class _Parser:
    """Recursive descent over the token lists; ``i`` indexes the next token.

    The command productions read the lists through a local index and store
    it back in ``i`` when they hand over, so a well-formed command costs no
    call per token.  ``i`` never moves past the EOF token.
    """

    def __init__(self, source: str):
        self.kinds, self.texts, self.offsets = _lex(source)
        self.i = 0
        self.starts = _line_starts(source)

    def error(self, i: int, expected: str, found: str) -> ParseError:
        return _located(self.starts, self.offsets[i], expected, found)

    def describe(self, i: int) -> str:
        kind = self.kinds[i]
        if kind == "EOF":
            return "end of input"
        if kind == "STRING":
            return "text literal"
        return f"'{_clip(self.texts[i])}'"

    def fail(self, i: int, expected: str) -> ParseError:
        return self.error(i, expected, self.describe(i))

    def expect(self, kind: str, expected: str) -> int:
        """Moves past the next token, which must be a ``kind``; returns its index."""
        i = self.i
        if self.kinds[i] != kind:
            raise self.fail(i, expected)
        self.i = i + 1
        return i

    def deeper(self, i: int, depth: int) -> int:
        if depth >= MAX_NESTING:
            raise self.error(i, f"at most {MAX_NESTING} levels of nesting", "deeper nesting")
        return depth + 1

    def unreserved(self, i: int, role: str) -> str:
        """The text of name token ``i``, which must not be a reserved word."""
        name = self.texts[i]
        if name in RESERVED:
            raise self.error(i, f"{role} name", f"reserved word '{name}'")
        return name

    # ---- grammar productions ------------------------------------------

    def program(self) -> Program:
        kinds, texts = self.kinds, self.texts
        records: list[RecordDecl] = []
        seen_records: set[str] = set()
        while kinds[self.i] == "IDENT" and texts[self.i] == "record":
            records.append(self.record_decl(seen_records))
        if kinds[self.i] != "IDENT" or texts[self.i] != "program":
            raise self.fail(self.i, "'program'")
        self.i += 1
        self.expect("LBRACE", "'{'")
        body: list[Command] = []
        binders: set[str] = set()
        while kinds[self.i] != "RBRACE":
            if kinds[self.i] == "EOF":
                raise self.fail(self.i, "'}'")
            body.append(self.command(binders))
        self.i += 1
        if kinds[self.i] != "EOF":
            raise self.fail(self.i, "end of input")
        return Program(tuple(records), tuple(body))

    def record_decl(self, seen_records: set[str]) -> RecordDecl:
        self.i += 1  # the word 'record'
        i = self.expect("IDENT", "record name")
        name = self.unreserved(i, "record")
        if name in seen_records:
            raise self.error(i, "a new record name", f"duplicate record '{_clip(name)}'")
        seen_records.add(name)
        self.expect("LBRACE", "'{'")
        fields = self.fields("field name", "a new field name", lambda: self.base_type(allow_record=False))
        self.expect("RBRACE", "'}'")
        return RecordDecl(name, fields)

    def fields(self, role: str, fresh: str, value: Callable[[], _T]) -> tuple[tuple[str, _T], ...]:
        """Comma-separated ``name: value`` pairs with distinct names."""
        out: list[tuple[str, _T]] = []
        seen: set[str] = set()
        while True:
            i = self.expect("IDENT", role)
            fname = self.texts[i]
            if fname in seen:
                raise self.error(i, fresh, f"duplicate field '{_clip(fname)}'")
            seen.add(fname)
            self.expect("COLON", "':'")
            out.append((fname, value()))
            if self.kinds[self.i] != "COMMA":
                return tuple(out)
            self.i += 1

    def base_type(self, allow_record: bool) -> BaseType:
        i = self.expect("IDENT", "a base type")
        word = self.texts[i]
        if word in _BASE_KEYWORDS:
            return _BASE_KEYWORDS[word]
        if not allow_record:
            raise self.fail(i, f"a scalar base type ({', '.join(_BASE_KEYWORDS)})")
        if word in RESERVED:
            raise self.error(i, "a base type", f"reserved word '{word}'")
        return RecordRef(word)

    def type_tag(self, depth: int = 0) -> TypeTag:
        i = self.expect("IDENT", "a type tag (string, list, set, hash)")
        word = self.texts[i]
        if word in _CONTAINER_KEYWORDS:
            self.expect("LT", "'<'")
            base = self.base_type(allow_record=True)
            self.expect("GT", "'>'")
            return _CONTAINER_KEYWORDS[word](base)
        if word == "hash":
            inner = self.deeper(i, depth)
            self.expect("LT", "'<'")
            fields = self.fields("hash field name", "a new hash field", lambda: self.field_tag(inner))
            self.expect("GT", "'>'")
            return HashOf(fields)
        raise self.fail(i, "a type tag (string, list, set, hash)")

    def field_tag(self, depth: int) -> StringOf:
        i = self.i
        tag = self.type_tag(depth)
        if not isinstance(tag, StringOf):
            raise self.error(i, "a string<...> field tag", _clip(tag_text(tag)))
        return tag

    def command(self, binders: set[str]) -> Command:
        kinds, texts = self.kinds, self.texts
        i = self.i
        if kinds[i] != "IDENT":
            raise self.fail(i, "a command")
        binder: str | None = None
        opcode = texts[i]
        if opcode not in OPCODES:
            binder = self.unreserved(i, "binder")
            if binder in binders:
                raise self.error(i, "a new binder name", f"duplicate binder '{_clip(binder)}'")
            binders.add(binder)
            i += 1
            if kinds[i] != "ARROW":
                raise self.fail(i, "'<-'")
            i += 1
            opcode = texts[i]
            if kinds[i] != "IDENT" or opcode not in OPCODES:
                raise self.fail(i, "a command")
        n_keys, has_field, n_values, takes_tag = COMMAND_SHAPES[opcode]
        pos = self.offsets[i]
        line = bisect_right(self.starts, pos)
        span = _new(Span, (line, pos - self.starts[line - 1] + 1))
        i += 1
        end = i + n_keys + has_field
        for j in range(i, end):  # stops at the EOF token at the latest
            if kinds[j] != "IDENT":
                raise self.fail(j, "a key" if j < i + n_keys else "a hash field")
        keys = tuple(texts[i : i + n_keys])
        field_name = texts[end - 1] if has_field else None
        self.i = end
        # one value is the common case; a comprehension costs a call
        args = (self.expr(),) if n_values == 1 else tuple([self.expr() for _ in range(n_values)])
        declared = None
        if takes_tag:
            self.expect("COLON", "':'")
            declared = self.type_tag()
        return _new(Command, (opcode, keys, args, field_name, declared, binder, span))

    def expr(self, depth: int = 0) -> Expr:
        i = self.i
        kind = self.kinds[i]
        text = self.texts[i]
        if kind == "INT":
            # counting digits first keeps int() off unbounded text, leading
            # zeros included
            digits = text.lstrip("-0")
            value = int(digits or "0") if len(digits) <= 19 else 2**64  # out of range either sign
            if text[0] == "-":
                value = -value
            if not INT64_MIN <= value <= INT64_MAX:
                raise self.error(i, "a signed 64-bit integer", "literal out of range")
            self.i = i + 1
            return _new(IntLit, (value,))
        if kind == "FLOAT":
            value = float(text)
            if value in (float("inf"), float("-inf")):
                raise self.error(i, "a representable float", "literal out of range")
            self.i = i + 1
            return _new(FloatLit, (value,))
        if kind == "STRING":
            self.i = i + 1
            return _new(TextLit, (text,))
        if kind != "IDENT":
            raise self.fail(i, "an expression")
        self.i = i + 1
        if text == "true":
            return _new(BoolLit, (True,))
        if text == "false":
            return _new(BoolLit, (False,))
        if self.kinds[i + 1] != "LBRACE":
            return _new(Var, (text,))
        inner = self.deeper(i, depth)
        self.i = i + 2
        args = [self.expr(inner)]
        while self.kinds[self.i] == "COMMA":
            self.i += 1
            args.append(self.expr(inner))
        self.expect("RBRACE", "'}'")
        return _new(RecordLit, (text, tuple(args)))


def parse_program(source: str) -> Program:
    """Parse a full source file.  Raises ParseError with line/column."""
    return _Parser(source).program()


def parse_type_tag(text: str) -> TypeTag:
    """Parse a standalone type tag, e.g. from an assumption file."""
    p = _Parser(text)
    tag = p.type_tag()
    if p.kinds[p.i] != "EOF":
        raise p.fail(p.i, "end of input")
    return tag


# ---------------------------------------------------------------------------
# pretty printing


_CONTAINER_NAMES = {cls: name for name, cls in _CONTAINER_KEYWORDS.items()}


def base_text(b: BaseType) -> str:
    return b.name


def tag_text(tag: TypeTag) -> str:
    if isinstance(tag, HashOf):
        inner = ", ".join(f"{name}: {tag_text(t)}" for name, t in tag.fields)
        return f"hash<{inner}>"
    return f"{_CONTAINER_NAMES[type(tag)]}<{base_text(tag.base)}>"


def float_text(value: float) -> str:
    """Shortest float form that the lexer accepts (always has a '.')."""
    s = repr(value)
    if "e" in s or "E" in s:
        mantissa, _, exponent = s.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exponent}"
    if "." not in s:
        s += ".0"
    return s


_ESCAPED = {c: "\\" + esc for esc, c in _ESCAPES.items()}


def text_literal(value: str) -> str:
    return '"' + "".join(_ESCAPED.get(c, c) for c in value) + '"'


def scalar_text(value: bool | int | float | str) -> str:
    """Literal spelling of a scalar payload."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return float_text(value)
    return text_literal(value)


def expr_text(e: Expr) -> str:
    if isinstance(e, (IntLit, FloatLit, BoolLit, TextLit)):
        return scalar_text(e.value)
    if isinstance(e, Var):
        return e.name
    assert isinstance(e, RecordLit)
    return f"{e.name}{{{', '.join(expr_text(a) for a in e.args)}}}"


def command_text(c: Command) -> str:
    n_keys, has_field, n_values, takes_tag = COMMAND_SHAPES[c.opcode]
    words = [c.opcode, *c.keys[:n_keys]]
    if has_field:
        words.append(c.field_name)
    words.extend(expr_text(a) for a in c.args[:n_values])
    if takes_tag:
        words += [":", tag_text(c.declared)]
    head = f"{c.binder} <- " if c.binder else ""
    return head + " ".join(words)


def print_program(p: Program) -> str:
    lines: list[str] = []
    for r in p.records:
        fields = ", ".join(f"{name}: {base_text(b)}" for name, b in r.fields)
        lines.append(f"record {r.name} {{ {fields} }}")
    lines.append("program {")
    for c in p.body:
        lines.append("  " + command_text(c))
    lines.append("}")
    return "\n".join(lines) + "\n"
