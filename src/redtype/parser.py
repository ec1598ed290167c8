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
from typing import Callable, NamedTuple, TypeVar

from .syntax import (
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

_BASE_KEYWORDS = {"int": INT, "float": FLOAT, "bool": BOOL, "text": TEXT}
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
            # int() off unbounded text
            value = int(t.text) if len(t.text.lstrip("-0")) <= 19 else 2**63
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


def parse_program(source: str) -> Program:
    """Parse a full source file.  Raises ParseError with line/column."""
    return _Parser(source).program()


def parse_type_tag(text: str) -> TypeTag:
    """Parse a standalone type tag, e.g. from an assumption file."""
    p = _Parser(text)
    tag = p.type_tag()
    if p.peek().kind != "EOF":
        raise p.fail("end of input")
    return tag


# ---------------------------------------------------------------------------
# pretty printing


_BASE_NAMES = {b: name for name, b in _BASE_KEYWORDS.items()}
_CONTAINER_NAMES = {cls: name for name, cls in _CONTAINER_KEYWORDS.items()}


def base_text(b: BaseType) -> str:
    return b.name if isinstance(b, RecordRef) else _BASE_NAMES[b]


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
