"""Surface syntax: lexer, parser, and pretty printer.

The grammar is whitespace-insensitive with '#' line comments.  Keys and
hash fields are bare symbols and may contain hyphens (some-set); binder
and record names must avoid the reserved words so that printed programs
re-lex unambiguously.  ``print_program`` emits a canonical form that
parses back to a structurally equal tree.
"""

from __future__ import annotations

import gc
import re
from typing import Callable, Iterator, TypeVar

from .syntax import (
    COMMAND_SHAPES,
    INT64_MAX,
    INT64_MIN,
    KINDS,
    OPCODES,
    SCALARS,
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
    new_node,
)

_T = TypeVar("_T")

_BASE_KEYWORDS = {b.name: b for b in SCALARS}
_CONTAINER_KEYWORDS = {word: cls for cls, word in KINDS.items() if cls is not HashOf}
_TYPE_TAG = f"a type tag ({', '.join(KINDS.values())})"

RESERVED = frozenset(OPCODES) | set(KINDS.values()) | set(_BASE_KEYWORDS) | {
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


def _located(source: str, pos: int, expected: str, found: str) -> ParseError:
    """The error at a source offset, located by counting lines on the error path only."""
    line_start = source.rfind("\n", 0, pos) + 1
    return ParseError(source.count("\n", 0, pos) + 1, pos - line_start + 1, expected, found)


def _bad_token(source: str, pos: int) -> ParseError:
    """The error for a character that starts no token."""
    if source[pos] != '"':
        return _located(source, pos, "a token", f"character {source[pos]!r}")
    # the literal stops short at a bad escape or at the end of input
    end = _OPEN_TEXT_RE.match(source, pos).end()
    if end == len(source):
        return _located(source, pos, "closing '\"'", "end of input")
    if end + 1 == len(source):
        return _located(source, end, "escape character", "end of input")
    return _located(source, end, "one of \\\" \\\\ \\n \\t", f"'\\{source[end + 1]}'")


_Token = tuple[str, str, re.Match[str]]

# The kinds the lexer does more for than pass on.
_SCREENED = frozenset({"STRING", "FLOAT", "BAD", "EOF"})


def _tokens(source: str) -> Iterator[_Token]:
    """The tokens of ``source``, read on demand, ending with one EOF token.

    Each token is a kind (IDENT INT FLOAT STRING LBRACE RBRACE LT GT COLON
    COMMA ARROW EOF), a text, and the match it came from, whose
    ``start(kind)`` is the token's offset; the offset is asked for only
    where a span or an error needs it.  A character that starts no token
    raises its ParseError when the scan reaches it, which ends the stream.
    """
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        if kind in _SCREENED:
            if kind == "STRING":
                text = text[1:-1]
                if "\\" in text:
                    text = _ESCAPE.sub(_unescape, text)
            elif kind == "FLOAT":
                if text[-1] in "eE+-":  # an exponent without digits
                    raise _located(source, m.start(kind), "exponent digits", "malformed float literal")
            elif kind == "BAD":
                raise _bad_token(source, m.start(kind))
            else:
                yield kind, text, m
                return
        yield kind, text, m


def _describe(token: _Token) -> str:
    kind, text, _ = token
    if kind == "EOF":
        return "end of input"
    if kind == "STRING":
        return "text literal"
    return f"'{_clip(text)}'"


# Each opcode maps to itself, so that a command keeps the table's string
# rather than its own copy of the source text.
_OPCODES = {op: op for op in OPCODES}


class _Parser:
    """Recursive descent over the token stream with one token of lookahead.

    ``tok`` is the next unread token and ``next`` reads the one after it;
    the stream is never read past its EOF token.  The command productions
    keep the current token in a local and store it back in ``tok`` when
    they hand over, so a well-formed command calls no parser method per
    token.  A command's line is counted from the newlines since the
    previous command's opcode: ``line`` is that opcode's line, ``line_start``
    the offset that line starts at and ``last`` the opcode's offset.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokens(source)
        self.next = self.tokens.__next__
        self.tok = self.next()
        self.line, self.line_start, self.last = 1, 0, 0

    def error(self, tok: _Token, expected: str, found: str) -> ParseError:
        return _located(self.source, tok[2].start(tok[0]), expected, found)

    def fail(self, tok: _Token, expected: str) -> ParseError:
        return self.error(tok, expected, _describe(tok))

    def expect(self, kind: str, expected: str) -> _Token:
        """Moves past the next token, which must be a ``kind``, and returns it."""
        tok = self.tok
        if tok[0] != kind:
            raise self.fail(tok, expected)
        self.tok = self.next()
        return tok

    def deeper(self, tok: _Token, depth: int) -> int:
        if depth >= MAX_NESTING:
            raise self.error(tok, f"at most {MAX_NESTING} levels of nesting", "deeper nesting")
        return depth + 1

    def unreserved(self, tok: _Token, role: str) -> str:
        """The text of name token ``tok``, which must not be a reserved word."""
        name = tok[1]
        if name in RESERVED:
            raise self.error(tok, f"{role} name", f"reserved word '{name}'")
        return name

    # ---- grammar productions ------------------------------------------

    def program(self) -> Program:
        records: list[RecordDecl] = []
        seen_records: set[str] = set()
        while self.tok[:2] == ("IDENT", "record"):
            records.append(self.record_decl(seen_records))
        if self.tok[:2] != ("IDENT", "program"):
            raise self.fail(self.tok, "'program'")
        self.tok = self.next()
        self.expect("LBRACE", "'{'")
        body: list[Command] = []
        binders: set[str] = set()
        while self.tok[0] != "RBRACE":
            if self.tok[0] == "EOF":
                raise self.fail(self.tok, "'}'")
            body.append(self.command(binders))
        self.tok = self.next()
        return Program(tuple(records), tuple(body))

    def record_decl(self, seen_records: set[str]) -> RecordDecl:
        self.tok = self.next()  # the word 'record'
        tok = self.expect("IDENT", "record name")
        name = self.unreserved(tok, "record")
        if name in seen_records:
            raise self.error(tok, "a new record name", f"duplicate record '{_clip(name)}'")
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
            tok = self.expect("IDENT", role)
            fname = tok[1]
            if fname in seen:
                raise self.error(tok, fresh, f"duplicate field '{_clip(fname)}'")
            seen.add(fname)
            self.expect("COLON", "':'")
            out.append((fname, value()))
            if self.tok[0] != "COMMA":
                return tuple(out)
            self.tok = self.next()

    def base_type(self, allow_record: bool) -> BaseType:
        tok = self.expect("IDENT", "a base type")
        word = tok[1]
        if word in _BASE_KEYWORDS:
            return _BASE_KEYWORDS[word]
        if not allow_record:
            raise self.fail(tok, f"a scalar base type ({', '.join(_BASE_KEYWORDS)})")
        if word in RESERVED:
            raise self.error(tok, "a base type", f"reserved word '{word}'")
        return RecordRef(word)

    def type_tag(self, depth: int = 0) -> TypeTag:
        tok = self.expect("IDENT", _TYPE_TAG)
        word = tok[1]
        if word in _CONTAINER_KEYWORDS:
            self.expect("LT", "'<'")
            base = self.base_type(allow_record=True)
            self.expect("GT", "'>'")
            return _CONTAINER_KEYWORDS[word](base)
        if word == KINDS[HashOf]:
            inner = self.deeper(tok, depth)
            self.expect("LT", "'<'")
            fields = self.fields("hash field name", "a new hash field", lambda: self.field_tag(inner))
            self.expect("GT", "'>'")
            return HashOf(fields)
        raise self.fail(tok, _TYPE_TAG)

    def field_tag(self, depth: int) -> StringOf:
        tok = self.tok
        tag = self.type_tag(depth)
        if not isinstance(tag, StringOf):
            raise self.error(tok, f"a {KINDS[StringOf]}<...> field tag", _clip(tag_text(tag)))
        return tag

    def command(self, binders: set[str]) -> Command:
        nxt = self.next
        tok = self.tok
        if tok[0] != "IDENT":
            raise self.fail(tok, "a command")
        binder: str | None = None
        opcode = _OPCODES.get(tok[1])
        if opcode is None:
            binder = self.unreserved(tok, "binder")
            if binder in binders:
                raise self.error(tok, "a new binder name", f"duplicate binder '{_clip(binder)}'")
            binders.add(binder)
            tok = nxt()
            if tok[0] != "ARROW":
                raise self.fail(tok, "'<-'")
            tok = nxt()
            opcode = _OPCODES.get(tok[1])
            if tok[0] != "IDENT" or opcode is None:
                raise self.fail(tok, "a command")
        n_keys, has_field, n_values, takes_tag = COMMAND_SHAPES[opcode]
        pos = tok[2].start(tok[0])
        newlines = self.source.count("\n", self.last, pos)
        if newlines:
            self.line += newlines
            self.line_start = self.source.rfind("\n", self.last, pos) + 1
        self.last = pos
        span = new_node(Span, (self.line, pos - self.line_start + 1))
        keys: tuple[str, ...] = ()
        for _ in range(n_keys):
            tok = nxt()
            if tok[0] != "IDENT":
                raise self.fail(tok, "a key")
            keys += (tok[1],)
        field_name = None
        if has_field:
            tok = nxt()
            if tok[0] != "IDENT":
                raise self.fail(tok, "a hash field")
            field_name = tok[1]
        self.tok = nxt()
        # one value is the common case; a comprehension costs a call
        args = (self.expr(),) if n_values == 1 else tuple([self.expr() for _ in range(n_values)])
        declared = None
        if takes_tag:
            self.expect("COLON", "':'")
            declared = self.type_tag()
        return new_node(Command, (opcode, keys, args, field_name, declared, binder, span))

    def expr(self, depth: int = 0) -> Expr:
        tok = self.tok
        kind, text, _ = tok
        if kind == "INT":
            # counting digits first keeps int() off unbounded text, leading
            # zeros included
            digits = text.lstrip("-0")
            value = int(digits or "0") if len(digits) <= 19 else 2**64  # out of range either sign
            if text[0] == "-":
                value = -value
            if not INT64_MIN <= value <= INT64_MAX:
                raise self.error(tok, "a signed 64-bit integer", "literal out of range")
            self.tok = self.next()
            return new_node(IntLit, (value,))
        if kind == "FLOAT":
            value = float(text)
            if value in (float("inf"), float("-inf")):
                raise self.error(tok, "a representable float", "literal out of range")
            self.tok = self.next()
            return new_node(FloatLit, (value,))
        if kind == "STRING":
            self.tok = self.next()
            return new_node(TextLit, (text,))
        if kind != "IDENT":
            raise self.fail(tok, "an expression")
        self.tok = self.next()
        if text == "true":
            return new_node(BoolLit, (True,))
        if text == "false":
            return new_node(BoolLit, (False,))
        if self.tok[0] != "LBRACE":
            return new_node(Var, (text,))
        inner = self.deeper(tok, depth)
        self.tok = self.next()
        args = [self.expr(inner)]
        while self.tok[0] == "COMMA":
            self.tok = self.next()
            args.append(self.expr(inner))
        self.expect("RBRACE", "'}'")
        return new_node(RecordLit, (text, tuple(args)))


def _parse(source: str, production: Callable[[_Parser], _T]) -> _T:
    """``production`` over the whole of ``source``, which it must consume."""
    p = _Parser(source)
    try:
        result = production(p)
        if p.tok[0] != "EOF":
            raise p.fail(p.tok, "end of input")
        return result
    except ParseError:
        # the first bad token in the source wins over a grammar error, as
        # if the whole source had been lexed first
        for _ in p.tokens:
            pass
        raise


def parse_program(source: str) -> Program:
    """Parse a full source file.  Raises ParseError with line/column."""
    # The tree holds no cycles, so the cyclic collector can find nothing
    # in it; paused, it does not rescan the growing tree as it is built.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _parse(source, _Parser.program)
    finally:
        if collecting:
            gc.enable()


def parse_type_tag(text: str) -> TypeTag:
    """Parse a standalone type tag, e.g. from an assumption file."""
    return _parse(text, _Parser.type_tag)


# ---------------------------------------------------------------------------
# pretty printing


def tag_text(tag: TypeTag) -> str:
    if isinstance(tag, HashOf):
        inner = ", ".join(f"{name}: {tag_text(t)}" for name, t in tag.fields)
    else:
        inner = tag.base.name
    return f"{KINDS[type(tag)]}<{inner}>"


def float_text(value: float) -> str:
    """Shortest form of a finite float that the lexer accepts (always has a '.')."""
    s = repr(value)  # has a '.' or, as in 1e+16, an exponent
    mantissa, _, exponent = s.partition("e")
    return s if "." in mantissa else f"{mantissa}.0e{exponent}"


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
        fields = ", ".join(f"{name}: {b.name}" for name, b in r.fields)
        lines.append(f"record {r.name} {{ {fields} }}")
    lines.append("program {")
    for c in p.body:
        lines.append("  " + command_text(c))
    lines.append("}")
    return "\n".join(lines) + "\n"
