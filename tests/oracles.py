"""Naive reference models for the dictionary operations and the lexer.

Written independently of the package implementation, in a deliberately
different style (index arithmetic and list comprehensions instead of
first-match recursion; a character-at-a-time scanner that tracks line and
column as it goes instead of one compiled pattern), so agreement between
the two is meaningful.  Kept in its own module because both the unit tests
and the acceptance sweep drive it.
"""

from __future__ import annotations

from redtype.parser import ParseError
from redtype.syntax import HashOf, TypeTag
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
