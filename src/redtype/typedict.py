"""Symbolic key/type dictionaries: the paper's list operations.

A dictionary is an ordered association list of (key, tag) pairs.  Order
matters and duplicate keys are representable: every operation here is
defined by first-match recursion over the list, and the test suite pins
each one against an independent naive model, duplicates included.

These operations are the specification the checker is tested against.
The checker threads a duplicate-free dict instead, which holds the same
entries in the same order at a cost per command that does not grow with
the number of keys; a test folds these operations over generated
programs and compares the final dictionaries, order included.

Lookup never falls back to a default.  A missing key is ``STUCK``, a
distinct value callers must branch on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .syntax import HashOf, ListOf, SetOf, StringOf, TypeTag

Entry = tuple[str, TypeTag]
TypeDict = list[Entry]


@dataclass(frozen=True)
class Found:
    tag: TypeTag


class Stuck:
    """Irreducible lookup: the key has no usable entry."""

    __slots__ = ()
    _instance: "Stuck | None" = None

    def __new__(cls) -> "Stuck":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Stuck"


STUCK = Stuck()

Lookup = Found | Stuck


def dict_get(xs: Sequence[Entry], k: str) -> Lookup:
    """Tag of the first entry for ``k``, or STUCK if there is none."""
    for key, tag in xs:
        if key == k:
            return Found(tag)
    return STUCK


def dict_set(xs: Sequence[Entry], k: str, x: TypeTag) -> TypeDict:
    """Replace the first entry for ``k`` in place, else append (k, x).

    Position is preserved on replacement; later duplicates are left
    untouched.
    """
    for i, (key, _) in enumerate(xs):
        if key == k:
            return list(xs[:i]) + [(k, x)] + list(xs[i + 1 :])
    return list(xs) + [(k, x)]


def dict_del(xs: Sequence[Entry], k: str) -> TypeDict:
    """Remove the first entry for ``k``; no-op if absent."""
    out: TypeDict = []
    skipped = False
    for key, tag in xs:
        if not skipped and key == k:
            skipped = True
            continue
        out.append((key, tag))
    return out


def dict_member(xs: Sequence[Entry], k: str) -> bool:
    return any(key == k for key, _ in xs)


# ---------------------------------------------------------------------------
# hash variants.  These treat the field dictionary inside a HashOf tag as
# a nested association list and carry some deliberately odd corner cases
# (documented per function) that are kept stable.  The checker does not
# call them; acceptance criterion 4, tests/test_typedict.py and the
# specification fold in tests/test_checker.py do, and the benchmark's
# tracer wraps them.


def hash_get(xs: Sequence[Entry], k: str, f: str) -> Lookup:
    """Field tag of the hash stored at ``k``.

    Resolution stops at the first entry for ``k``: if that entry is not
    a hash the lookup is STUCK, it does not keep searching for a later
    hash entry under the same key.
    """
    for key, tag in xs:
        if key == k:
            if isinstance(tag, HashOf):
                return dict_get(tag.fields, f)
            return STUCK
    return STUCK


def hash_set(xs: Sequence[Entry], k: str, f: str, a: TypeTag) -> TypeDict:
    """Set field ``f`` of the first *hash* entry for ``k`` to ``a``.

    Recursion skips entries that are not hashes even when their key is
    ``k``, so a dictionary like [(k, StringOf t)] gains a fresh hash
    entry appended after the string one.  The checker's precondition
    rules that situation out up front, but the operation itself keeps
    the skip-and-append behavior.
    """
    for i, (key, tag) in enumerate(xs):
        if key == k and isinstance(tag, HashOf):
            updated = HashOf(tuple(dict_set(tag.fields, f, a)))
            return list(xs[:i]) + [(k, updated)] + list(xs[i + 1 :])
    return list(xs) + [(k, HashOf(tuple(dict_set((), f, a))))]


def hash_del(xs: Sequence[Entry], k: str, f: str) -> TypeDict:
    """Remove field ``f`` from the first hash entry for ``k``.

    Dictionaries with no hash entry for ``k`` come back unchanged;
    non-hash entries under ``k`` are skipped, as in hash_set.
    """
    for i, (key, tag) in enumerate(xs):
        if key == k and isinstance(tag, HashOf):
            updated = HashOf(tuple(dict_del(tag.fields, f)))
            return list(xs[:i]) + [(k, updated)] + list(xs[i + 1 :])
    return list(xs)


def hash_member(xs: Sequence[Entry], k: str, f: str) -> bool:
    """True iff the first entry for ``k`` is a hash containing ``f``.

    A non-hash first entry answers False outright (no fallthrough to
    later duplicates).
    """
    for key, tag in xs:
        if key == k:
            return isinstance(tag, HashOf) and dict_member(tag.fields, f)
    return False


# ---------------------------------------------------------------------------
# tag predicates and the "well-typed or non-existent" combinator


def is_string(tag: TypeTag) -> bool:
    return isinstance(tag, StringOf)


def is_list(tag: TypeTag) -> bool:
    return isinstance(tag, ListOf)


def is_set(tag: TypeTag) -> bool:
    return isinstance(tag, SetOf)


def is_hash(tag: TypeTag) -> bool:
    return isinstance(tag, HashOf)


def or_nx(pred: Callable[[TypeTag], bool], xs: Sequence[Entry], k: str) -> bool:
    """pred holds of k's tag, or k is absent.

    Membership is evaluated first: an absent key short-circuits to True
    without consulting ``pred`` (there is no tag to consult).
    """
    look = dict_get(xs, k)
    if isinstance(look, Stuck):
        return True
    return pred(look.tag)
