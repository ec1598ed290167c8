"""Tokens of the surface syntax: token patterns, the token at an offset and the literal reader.

The lexer's ``_TOKEN`` and the parser's statement patterns are built from
the fragments here, so each token is spelled once.  ``_text`` and
``_number`` read a literal token's value for both of the parser's paths,
so the escape rules, the int64 bound and the finite-float check each have
one owner; ``_text`` refuses surrogate code points by ``syntax.utf8_text``.
"""

from __future__ import annotations

import re

from .syntax import INT64_MAX, INT64_MIN, SURROGATE, FloatLit, IntLit, new_node, utf8_text


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: str, found: str):
        # Exception keeps the arguments as given, so copy and pickle rebuild the error.
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: expected {self.expected}, found {self.found}"


_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# Each token's pattern, spelled once for _TOKEN and the parser's statement
# patterns.  Character classes are spelled out because \d
# and \w admit Unicode digits and letters.  The possessive quantifiers
# (Python 3.11) keep no backtracking state, so a text literal of a million
# escapes costs no more memory to match than its own text; _OPEN_TEXT is a
# text literal as far as it is well formed, without its closing quote.
_BLANKS = r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+"
_IDENT = r"[A-Za-z_][A-Za-z0-9_-]*+"
_FLOAT = r"-?[0-9]++\.[0-9]++(?:[eE][+-]?+[0-9]*+)?+"
_INT = r"-?[0-9]++"
_OPEN_TEXT = r'"[^"\\]*+(?:\\["\\nt][^"\\]*+)*+'

# Blanks and comments are a skipped prefix of each match.  Then one group
# per token kind, in priority order.  EOF matches only at the end and BAD
# takes any other character, so the matches tile the source.
_TOKEN = re.compile(
    rf"{_BLANKS}(?:(?P<IDENT>{_IDENT})|(?P<FLOAT>{_FLOAT})|(?P<INT>{_INT})|(?P<STRING>{_OPEN_TEXT}\")"
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


def _text(token: str) -> str | None:
    """The value of a well-formed text literal token, or None if it holds a surrogate code point."""
    if not utf8_text(token):
        return None
    text = token[1:-1]
    return _ESCAPE.sub(_unescape, text) if "\\" in text else text


_INF = float("inf")


def _number(kind: str, text: str) -> IntLit | FloatLit | None:
    """The literal of an INT or FLOAT token, or None if it is out of range or malformed."""
    if kind == "INT":
        if len(text) <= 18:  # below 10**18 in magnitude, so an int64 whatever its digits
            return new_node(IntLit, (int(text),))
        # counting digits first keeps int() off unbounded text, leading
        # zeros included
        digits = text.lstrip("-0")
        value = int(digits or "0") if len(digits) <= 19 else 2**64  # out of range either sign
        if text[0] == "-":
            value = -value
        return new_node(IntLit, (value,)) if INT64_MIN <= value <= INT64_MAX else None
    try:
        value = float(text)
    except ValueError:  # an exponent without digits, which the lexer refuses on the token path
        return None
    return new_node(FloatLit, (value,)) if -_INF < value < _INF else None


def _token(source: str, pos: int) -> _Token:
    """The token at offset ``pos`` of ``source``, after the blanks and comments there.

    A token is a kind (IDENT INT FLOAT STRING LBRACE RBRACE LT GT COLON
    COMMA ARROW EOF), a text, and the match it came from: ``start(kind)``
    is the token's offset, asked for only where a span or an error needs
    it, and ``end()`` is where the next token's blanks begin.  At the end
    of the source the token is EOF.  A character that starts no token
    raises its ParseError.
    """
    m = _TOKEN.match(source, pos)
    kind = m.lastgroup
    text = m[kind]
    if kind == "STRING":
        value = _text(text)
        if value is None:
            found = ord(SURROGATE.search(text)[0])
            raise _located(source, m.start(kind), "text that UTF-8 can encode", f"surrogate code point U+{found:04X}")
        text = value
    elif kind == "FLOAT" and text[-1] in "eE+-":  # an exponent without digits
        raise _located(source, m.start(kind), "exponent digits", "malformed float literal")
    elif kind == "BAD":
        raise _bad_token(source, m.start(kind))
    return kind, text, m
