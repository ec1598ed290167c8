"""Surface syntax: parser and pretty printer.

The grammar is whitespace-insensitive with '#' line comments.  Keys and
hash fields are bare symbols and may contain hyphens (some-set); binder
and record names must avoid the reserved words so that printed programs
re-lex unambiguously.  ``print_program`` emits a canonical form that
parses back to a structurally equal tree.

A program body is read by two paths.  The statement path reads each plain
command (one with no type tag and at most one value) with two pattern
matches and builds its nodes from the match groups; its value is a scalar
literal, true, false, a binder name or a flat record literal of those.
Everything else, ``declare``, record declarations and any text the
statement path does not accept, is read by recursive descent over the
tokens of ``lexer``, one at a time from that statement on; the token path
builds every ParseError, so the first bad token in the source still wins.
"""

from __future__ import annotations

import gc
import re
from typing import Callable, TypeVar

from .lexer import (
    _BLANKS,
    _ESCAPES,
    _FLOAT,
    _IDENT,
    _INT,
    _OPEN_TEXT,
    ParseError,
    _located,
    _number,
    _text,
    _Token,
    _token,
)
from .syntax import (
    COMMAND_SHAPES,
    KINDS,
    LITERAL_BASES,
    OPCODES,
    SCALARS,
    BaseType,
    BoolLit,
    Command,
    Expr,
    HashOf,
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


# Longest stretch of token text an error message quotes.
_QUOTE_MAX = 40


def _clip(text: str) -> str:
    return text if len(text) <= _QUOTE_MAX else text[:_QUOTE_MAX] + "..."


def _describe(token: _Token) -> str:
    kind, text, _ = token
    if kind == "EOF":
        return "end of input"
    if kind == "STRING":
        return "text literal"
    return f"'{_clip(text)}'"


_BOOLS = {"true": BoolLit(True), "false": BoolLit(False)}
_IN_RANGE = {"INT": "a signed 64-bit integer", "FLOAT": "a representable float"}

# The statement path reads a plain command with two matches: _HEAD reads an
# optional binder and the opcode, and the tail of the opcode's shape reads
# the keys and the hash field (unnamed groups), a value, and the blanks
# after the command.  A value is a scalar literal, true, false or a binder
# name, or a flat record literal of those, whose arguments _ARG then reads
# one by one.  A name followed by a '{' that opens no flat record literal
# makes the tail fail, as does any other text that is not a plain command.
# _SCALAR has one named group per kind of value token, the name last, so
# that a record literal's braces can follow it; _ATOM is the same
# alternation without groups.
_SCALAR = rf'(?P<FLOAT>{_FLOAT})|(?P<INT>{_INT})|(?P<STRING>{_OPEN_TEXT}")|(?P<IDENT>{_IDENT})'
_ATOM = rf'(?>{_FLOAT}|{_INT}|{_OPEN_TEXT}"|{_IDENT})'
_VALUE = (
    rf"{_BLANKS}(?>{_SCALAR}"
    rf"(?:{_BLANKS}\{{(?P<args>{_BLANKS}{_ATOM}{_BLANKS}(?:,{_BLANKS}{_ATOM}{_BLANKS})*+)\}})?+)"
)
_ARG = re.compile(rf"{_BLANKS}(?>{_SCALAR}){_BLANKS},?+").finditer
_HEAD = re.compile(rf"(?:({_IDENT}){_BLANKS}<-{_BLANKS})?+({_IDENT})").match
# Each opcode maps to itself, so that a command keeps the table's string
# rather than its own copy of the source text.
_OPCODES = {op: op for op in OPCODES}


# opcode -> (the opcode, its shape's tail, number of keys, has a hash
# field), for each opcode of a plain command that a parse has met.
_Statement = tuple[str, Callable[..., re.Match[str] | None], int, bool]
_STATEMENTS: dict[str, _Statement] = {}


def _statement(op: str) -> _Statement | None:
    """Adds ``op`` to ``_STATEMENTS``, or None if it is not the opcode of a plain command.

    A tail takes up to 1.6 ms to compile, so it is compiled when a parse
    first meets an opcode of its shape; ``re``'s cache gives the other
    opcodes of that shape the same tail.
    """
    shape = COMMAND_SHAPES.get(op)
    if shape is None or shape[2] > 1 or shape[3]:
        return None
    n_keys, has_field, n_values, _ = shape
    tail = re.compile(rf"{_BLANKS}({_IDENT})" * (n_keys + has_field) + _VALUE * n_values + rf"{_BLANKS}(?!\{{)")
    _STATEMENTS[op] = statement = (_OPCODES[op], tail.match, n_keys, has_field)
    return statement


def _atom(kind: str, text: str) -> Expr | None:
    """The node of a value token the statement path read, or None if the token path must judge it."""
    if kind == "IDENT":
        return _BOOLS.get(text) or new_node(Var, (text,))
    if kind == "STRING":
        value = _text(text)
        return None if value is None else new_node(TextLit, (value,))
    return _number(kind, text)


def _args(source: str, m: re.Match[str]) -> tuple[Expr, ...] | None:
    """The value arguments a tail match read, or None if the token path must judge them."""
    kind = m.lastgroup  # None if the shape takes no value
    if kind is None:
        return ()
    if kind != "args":
        node = _atom(kind, m[kind])
        return None if node is None else (node,)
    name = m["IDENT"]
    if name in _BOOLS:  # a bool, then a brace that starts no command
        return None
    args = []
    for a in _ARG(source, *m.span(kind)):
        kind = a.lastgroup
        node = _atom(kind, a[kind])
        if node is None:
            return None
        args.append(node)
    return (new_node(RecordLit, (name, tuple(args))),)


class _Parser:
    """The statement path, then recursive descent over the tokens.

    ``tok`` is the next unread token and ``next`` reads the one after it.
    ``statements`` reads the plain commands of a program body from ``tok``
    on and leaves ``tok`` at the first one it does not accept; the token
    productions read that statement or the body's end, and build every
    ParseError.
    A command's line is counted from the newlines since the previous
    command's opcode: ``line`` is that opcode's line, ``line_start`` the
    offset that line starts at and ``last`` the opcode's offset.
    """

    def __init__(self, source: str):
        self.source = source
        self.line, self.line_start, self.last = 1, 0, 0
        self.tok = _token(source, 0)

    def next(self) -> _Token:
        """The token after ``tok``."""
        return _token(self.source, self.tok[2].end())

    def error(self, tok: _Token, expected: str, found: str) -> ParseError:
        """The grammar error at ``tok``, unless a token after ``self.tok`` is bad.

        The first bad token in the source wins over a grammar error, as if
        the whole source had been lexed first, so its error is raised here.
        """
        after = self.tok
        while after[0] != "EOF":
            after = _token(self.source, after[2].end())
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

    def span(self, pos: int) -> Span:
        """The span of the opcode at offset ``pos``, which follows the previous command's."""
        newlines = self.source.count("\n", self.last, pos)
        if newlines:
            self.line += newlines
            self.line_start = self.source.rfind("\n", self.last, pos) + 1
        self.last = pos
        return new_node(Span, (self.line, pos - self.line_start + 1))

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
        while True:
            self.statements(body, binders)
            if self.tok[0] == "RBRACE":
                break
            if self.tok[0] == "EOF":
                raise self.fail(self.tok, "'}'")
            body.append(self.command(binders))
        self.tok = self.next()
        return Program(tuple(records), tuple(body))

    def statements(self, body: list[Command], binders: set[str]) -> None:
        """Reads plain commands from ``tok`` on into ``body``, two matches each."""
        source = self.source
        table = _STATEMENTS
        start = pos = self.tok[2].start(self.tok[0])
        while (head := _HEAD(source, pos)) is not None:
            binder, op = head.groups()
            statement = table.get(op) or _statement(op)
            if statement is None or binder in RESERVED or binder in binders:
                break
            opcode, tail, n_keys, has_field = statement
            m = tail(source, head.end())
            if m is None or (args := _args(source, m)) is None:
                break
            if binder is not None:
                binders.add(binder)
            words = m.groups()
            field_name = words[n_keys] if has_field else None
            span = self.span(head.start(2))
            body.append(new_node(Command, (opcode, words[:n_keys], args, field_name, None, binder, span)))
            pos = m.end()
        if pos != start:
            self.tok = _token(source, pos)

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
        tok = self.expect("IDENT", "a command")
        binder: str | None = None
        opcode = _OPCODES.get(tok[1])
        if opcode is None:
            binder = self.unreserved(tok, "binder")
            if binder in binders:
                raise self.error(tok, "a new binder name", f"duplicate binder '{_clip(binder)}'")
            binders.add(binder)
            self.expect("ARROW", "'<-'")
            tok = self.expect("IDENT", "a command")
            opcode = _OPCODES.get(tok[1])
            if opcode is None:
                raise self.fail(tok, "a command")
        n_keys, has_field, n_values, takes_tag = COMMAND_SHAPES[opcode]
        span = self.span(tok[2].start(tok[0]))
        keys = tuple([self.expect("IDENT", "a key")[1] for _ in range(n_keys)])
        field_name = self.expect("IDENT", "a hash field")[1] if has_field else None
        args = tuple([self.expr() for _ in range(n_values)])
        declared = None
        if takes_tag:
            self.expect("COLON", "':'")
            declared = self.type_tag()
        return new_node(Command, (opcode, keys, args, field_name, declared, binder, span))

    def expr(self, depth: int = 0) -> Expr:
        tok = self.tok
        kind, text, _ = tok
        if kind == "STRING":
            self.tok = self.next()
            return new_node(TextLit, (text,))
        if kind in _IN_RANGE:
            number = _number(kind, text)
            if number is None:
                raise self.error(tok, _IN_RANGE[kind], "literal out of range")
            self.tok = self.next()
            return number
        self.expect("IDENT", "an expression")
        if text in _BOOLS:
            return _BOOLS[text]
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
    result = production(p)
    if p.tok[0] != "EOF":
        raise p.fail(p.tok, "end of input")
    return result


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
    if type(e) in LITERAL_BASES:
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
