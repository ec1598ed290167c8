"""Static checking: fold a symbolic key/type dictionary over a program.

Each command is a dictionary transformer with a precondition, as in the
paper's type signatures; ``_step`` spells each opcode's rule
(precondition, dictionary update, result type) in one case, and reads
the dictionary only through ``_lookup``.  Checking walks the body left
to right from an initial dictionary (empty unless the caller assumes
otherwise), threading one insertion-ordered dict of key -> tag, which
each command updates in place, and an environment of binder result
types, and stops at the first violated precondition.  The
dict is the duplicate-free association list of the paper, so a step's
cost does not grow with the number of tracked keys; the list operations
of ``typedict`` are the specification it is tested against.

An accepted program cannot raise a WRONGTYPE or integer/float parse
error when run against a store that matches the initial dictionary;
that guarantee is what the differential fuzzer hammers on.

A dictionary entry means "if this key exists in the store, it holds a
value of this shape".  Keys can be tracked yet absent (declare writes
nothing; RPOP deletes an emptied list), which is why setnx carries an
equality precondition on tracked keys: its write-if-absent behavior
would otherwise smuggle a string of the wrong type under an existing
entry.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Collection, Container, Mapping, NamedTuple

from . import typedict
from .codec import DecodeError, int64_value, value_decoder
from .parser import _clip, tag_text
from .syntax import (
    BOOL,
    FLOAT,
    INT,
    KINDS,
    LITERAL_BASES,
    BaseType,
    Command,
    Expr,
    HashOf,
    ListOf,
    Node,
    Program,
    RecordDecl,
    RecordLit,
    RecordRef,
    SetOf,
    Span,
    StringOf,
    TypeTag,
    Var,
    new_node,
    record_table,
    shared,
)
from .typedict import Found, TypeDict

# Stable machine-readable constraint identifiers, used in JSON reports.
NOT_MEMBER = "NotMember-violated"
LIST_OR_NX = "ListOrNX-violated"
SET_OR_NX = "SetOrNX-violated"
HASH_OR_NX = "HashOrNX-violated"
GET_EQUALITY = "GetEquality-failed"
GET_STUCK = "GetStuck"
ELEMENT_MISMATCH = "ElementTypeMismatch"
UNKNOWN_RECORD = "UnknownRecord"
UNKNOWN_VARIABLE = "UnknownVariable"
ARITY_MISMATCH = "ArityMismatch"


# ---- result types ----------------------------------------------------------


class ResultType(Node):
    __slots__ = ()
    # The base type a binder of this result has in expressions; None if
    # such a binder cannot appear in an expression.  A field of
    # ScalarResult; a class attribute here would shadow that field.
    binds: BaseType | None


class ScalarResult(ResultType, NamedTuple("ScalarResult", [("name", str), ("binds", BaseType | None)])):
    """A result without an element type, by its surface name."""

    __slots__ = ()


@shared
class MaybeResult(ResultType, NamedTuple("MaybeResult", [("base", BaseType)])):
    __slots__ = ()
    binds = None


@shared
class ListResult(ResultType, NamedTuple("ListResult", [("base", BaseType)])):
    __slots__ = ()
    binds = None


STATUS = ScalarResult("status", None)
INT_RESULT = ScalarResult("integer", INT)
FLOAT_RESULT = ScalarResult("double", FLOAT)
BOOL_RESULT = ScalarResult("boolean", BOOL)
UNIT = ScalarResult("unit", None)


# ---- outcomes ---------------------------------------------------------------


class CheckError(Exception):
    """A violated precondition, located at one command."""

    def __init__(self, span: Span | None, opcode: str | None, constraint: str, detail: str):
        # Exception keeps the arguments as given, so copy and pickle rebuild the error.
        self.span = span
        self.opcode = opcode
        self.constraint = constraint
        self.detail = detail

    def __str__(self) -> str:
        # formatted when read, so that a caller of _step can locate the error in place
        at = f"{self.span.line}:{self.span.col}: " if self.span else ""
        op = f"{self.opcode}: " if self.opcode else ""
        return f"{at}{self.constraint}: {op}{self.detail}"


def _fail(constraint: str, detail: str) -> CheckError:
    """A violation not yet located; the caller of ``_step`` that reports it adds the command's span."""
    return CheckError(None, None, constraint, detail)


class _CheckOkFields(NamedTuple):
    initial: TypeDict
    final: TypeDict
    result: ResultType
    # One result type per body command, in order; the runtime decodes by them.
    results: tuple[ResultType, ...]


class CheckOk(Node, _CheckOkFields):
    __slots__ = ()


CheckReport = CheckOk | CheckError


# ---- expressions ------------------------------------------------------------

def infer_expr(
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    e: Expr,
) -> BaseType:
    """Base type of a value expression; raises CheckError (span-less)."""
    base = LITERAL_BASES.get(type(e))
    if base is not None:
        return base
    if isinstance(e, Var):
        rt = env.get(e.name)
        if rt is None:
            raise _fail(UNKNOWN_VARIABLE, f"no binder named '{_clip(e.name)}' in scope")
        if rt.binds is None:
            raise _fail(
                ELEMENT_MISMATCH,
                f"binder '{_clip(e.name)}' has result type {_clip(result_text(rt))}, "
                "which cannot appear in an expression",
            )
        return rt.binds
    assert isinstance(e, RecordLit)
    decl = records.get(e.name)
    if decl is None:
        raise _fail(UNKNOWN_RECORD, f"no record named '{_clip(e.name)}' is declared")
    if len(e.args) != len(decl.fields):
        raise _fail(
            ARITY_MISMATCH,
            f"record '{_clip(e.name)}' has {len(decl.fields)} fields but {len(e.args)} arguments were given",
        )
    for (fname, fbase), arg in zip(decl.fields, e.args):
        got = infer_expr(env, records, arg)
        if got != fbase:
            raise _fail(
                ELEMENT_MISMATCH,
                f"field '{_clip(fname)}' of record '{_clip(e.name)}' takes {_clip(fbase.name)}, "
                f"got {_clip(got.name)}",
            )
    return new_node(RecordRef, (e.name,))


def result_text(rt: ResultType) -> str:
    """Surface spelling of a result type, as used in reports."""
    if isinstance(rt, ScalarResult):
        return rt.name
    if isinstance(rt, MaybeResult):
        return f"maybe<{rt.base.name}>"
    assert isinstance(rt, ListResult)
    return f"list<{rt.base.name}>"


def undeclared_record(tag: TypeTag, records: Container[str]) -> str | None:
    """Name of the first undeclared record referenced by ``tag``, if any."""
    if isinstance(tag, (StringOf, ListOf, SetOf)):
        base = tag.base
        if isinstance(base, RecordRef) and base.name not in records:
            return base.name
        return None
    assert isinstance(tag, HashOf)
    for _, ftag in tag.fields:
        bad = undeclared_record(ftag, records)
        if bad:
            return bad
    return None


# ---- commands ---------------------------------------------------------------

# The dictionary the checker threads: key -> tag, in insertion order.  A
# Python dict is the duplicate-free association list of typedict.py:
# assigning to a tracked key keeps its position, and a deleted key that
# is set again moves to the end, exactly as dict_set and dict_del do.
_Dict = dict[str, TypeTag]

def _as_dict(xs: TypeDict) -> _Dict:
    """``xs`` as a dict; raises ValueError if a key occurs twice."""
    d = dict(xs)
    if len(d) != len(xs):
        counts = Counter(k for k, _ in xs)
        twice = next(k for k, _ in xs if counts[k] > 1)
        raise ValueError(f"key '{_clip(twice)}' occurs twice in the dictionary")
    return d


def check_command(
    xs: TypeDict,
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    cmd: Command,
    strict: bool = False,
) -> tuple[TypeDict, ResultType]:
    """Post-dictionary and result type of one command; ``xs`` is left as is.

    Raises CheckError (with the command's span attached) on the first
    violated precondition, and ValueError if ``xs`` tracks a key twice.
    """
    d = _as_dict(xs)
    try:
        result = _step(d, env, records, cmd, strict)
    except CheckError as err:
        err.span, err.opcode = cmd.span, cmd.opcode
        raise
    return list(d.items()), result


def _lookup(xs: _Dict, k: str, want: type | TypeTag | None = None, or_nx: str | None = None) -> TypeTag | None:
    """The tag of ``k``: the one place a rule reads the dictionary.

    Without ``want`` this is a plain read, None if ``k`` is untracked.
    ``want`` is a tag class or a whole tag.  A tracked key with another
    tag violates ``or_nx``, or GetEquality without it; an untracked key
    is None under ``or_nx``, and GetStuck without it.
    """
    tag = xs.get(k)
    if want is None or (tag is None and or_nx):
        return tag
    if tag is None:
        raise _fail(GET_STUCK, f"key '{_clip(k)}' is not in the dictionary")
    if not (isinstance(tag, want) if isinstance(want, type) else tag == want):
        kind = f"a {KINDS[want]}" if isinstance(want, type) else tag_text(want)
        raise _fail(or_nx or GET_EQUALITY, f"key '{_clip(k)}' holds {_clip(tag_text(tag))}, not {kind}")
    return tag


def _step(
    xs: _Dict,
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    cmd: Command,
    strict: bool,
) -> ResultType:
    """Apply one command to ``xs`` in place and return its result type.

    Raises CheckError (span-less; the caller locates it) on the first
    violated precondition, before ``xs`` is changed.  Every read of
    ``xs`` goes through ``_lookup``.
    """
    op = cmd.opcode
    k = cmd.keys[0] if cmd.keys else ""
    a = infer_expr(env, records, cmd.args[0]) if cmd.args else None
    match op:
        case "ping":
            return STATUS
        case "set":
            xs[k] = StringOf(a)
            return STATUS
        case "setnx":
            tag, new = _lookup(xs, k), StringOf(a)
            if tag is not None and tag != new:
                raise _fail(
                    GET_EQUALITY,
                    f"key '{_clip(k)}' is tracked as {_clip(tag_text(tag))}, but setnx may write a "
                    f"{KINDS[StringOf]}<{_clip(a.name)}> if the key is unset",
                )
            xs[k] = new
            return BOOL_RESULT
        case "get":
            return MaybeResult(_lookup(xs, k, StringOf).base)
        case "del":
            xs.pop(k, None)
            return INT_RESULT
        case "incr":
            _lookup(xs, k, StringOf(INT))
            return INT_RESULT
        case "incrbyfloat":
            if a != FLOAT:
                raise _fail(ELEMENT_MISMATCH, f"incrbyfloat takes a float increment, got {_clip(a.name)}")
            _lookup(xs, k, StringOf(FLOAT))
            return FLOAT_RESULT
        case "lpush" | "sadd":
            if op == "lpush":
                old, new, verb = _lookup(xs, k, ListOf, LIST_OR_NX), ListOf(a), "push"
            else:
                old, new, verb = _lookup(xs, k, SetOf, SET_OR_NX), SetOf(a), "add"
            if strict and old is not None and old != new:
                raise _fail(
                    ELEMENT_MISMATCH,
                    f"key '{_clip(k)}' holds {_clip(tag_text(old))}; "
                    f"cannot {verb} {_clip(a.name)} elements in strict mode",
                )
            xs[k] = new
            return INT_RESULT
        case "llen":
            _lookup(xs, k, ListOf, LIST_OR_NX)
            return INT_RESULT
        case "rpop":
            return MaybeResult(_lookup(xs, k, ListOf).base)
        case "sinter":
            k2 = cmd.keys[1]
            tag, tag2 = _lookup(xs, k, SetOf), _lookup(xs, k2, SetOf)
            if tag.base != tag2.base:
                raise _fail(
                    GET_EQUALITY,
                    f"keys '{_clip(k)}' and '{_clip(k2)}' hold {_clip(tag_text(tag))} and "
                    f"{_clip(tag_text(tag2))}; sinter needs equal element types",
                )
            return ListResult(tag.base)
        case "hset":
            assert cmd.field_name is not None
            old = _lookup(xs, k, HashOf, HASH_OR_NX)
            fields = old.fields if old is not None else ()
            xs[k] = HashOf(tuple(typedict.dict_set(fields, cmd.field_name, StringOf(a))))
            return BOOL_RESULT
        case "hget":
            assert cmd.field_name is not None
            tag = _lookup(xs, k)
            look = typedict.dict_get(tag.fields, cmd.field_name) if isinstance(tag, HashOf) else typedict.STUCK
            if not isinstance(look, Found):
                raise _fail(GET_STUCK, f"no hash field '{_clip(cmd.field_name)}' is tracked under key '{_clip(k)}'")
            if not isinstance(look.tag, StringOf):
                raise _fail(
                    GET_EQUALITY,
                    f"field '{_clip(cmd.field_name)}' of '{_clip(k)}' holds {_clip(tag_text(look.tag))}, "
                    f"not a {KINDS[StringOf]}",
                )
            return MaybeResult(look.tag.base)
        case "declare":
            tag = _lookup(xs, k)
            if tag is not None:
                raise _fail(NOT_MEMBER, f"key '{_clip(k)}' is already tracked as {_clip(tag_text(tag))}")
            assert cmd.declared is not None
            bad = undeclared_record(cmd.declared, records)
            if bad:
                raise _fail(UNKNOWN_RECORD, f"no record named '{_clip(bad)}' is declared")
            xs[k] = cmd.declared
            return UNIT
    raise _fail(ARITY_MISMATCH, f"unknown command '{op}'")


# ---- programs ---------------------------------------------------------------


def check_program(
    program: Program,
    initial: TypeDict | None = None,
    strict: bool = False,
) -> CheckReport:
    """Check a whole program; total, returns CheckOk or the first CheckError.

    Raises ValueError if ``initial`` tracks a key twice or names a record the program does not declare.
    """
    records = record_table(program)
    start: TypeDict = list(initial) if initial else []
    xs = _as_dict(start)
    for k, tag in start:
        if bad := undeclared_record(tag, records):
            raise ValueError(f"the tag assumed for key '{_clip(k)}' names record '{_clip(bad)}', which is not declared")
    env: dict[str, ResultType] = {}
    results: list[ResultType] = []
    for cmd in program.body:
        try:
            result = _step(xs, env, records, cmd, strict)
        except CheckError as err:
            err.span, err.opcode = cmd.span, cmd.opcode
            # The error is a value from here on, so drop its traceback: the frames in
            # it would otherwise hold the caller's frame, and so this error, in a cycle.
            return err.with_traceback(None)
        results.append(result)
        if cmd.binder is not None:
            env[cmd.binder] = result
    return CheckOk(start, list(xs.items()), results[-1] if results else UNIT, tuple(results))


# ---- the premise ------------------------------------------------------------

# Reads a record payload's JSON only to refuse each int in it that is no int64.
# JSON spells an int in ASCII, so its text encodes as the bytes INCR would read.
_int64_json = json.JSONDecoder(parse_int=lambda s: int64_value(s.encode("ascii"))).decode


def _fits(data: bytes, base: BaseType, records: Mapping[str, RecordDecl]) -> bool:
    """Whether ``data`` decodes at ``base`` through the codec, each int in it an int64."""
    try:
        if isinstance(base, RecordRef):
            _int64_json(data.decode("utf-8"))
        (int64_value if base == INT else value_decoder(base, records))(data)
    except (DecodeError, KeyError, ValueError, RecursionError):
        return False
    return True


def matches(
    read: Mapping[str, tuple[str, Any]],
    xs: TypeDict | Mapping[str, TypeTag],
    keys: Collection[str],
    strict: bool,
    records: Mapping[str, RecordDecl] | None = None,
) -> bool:
    """Whether what was read from a store meets the premise of a check from ``xs``.

    ``read`` maps each key among ``keys`` that the store holds to its kind
    (the store's TYPE reply: string, list, set or hash) and its payload:
    the value's bytes, a hash's field -> bytes dict, or a list's or set's
    elements (read in strict mode only).  Each of ``keys`` must be absent,
    or tracked by ``xs`` and of its tag's kind.  A string's value and each
    tracked field of a hash must decode at the tag's base, and in strict
    mode so must each element of a list or set.  Every int they spell, a
    ``string<int>`` or a record's int field alike, must be an int64 as
    INCR's own reader, ``codec.int64_value``, takes it.  ``records`` declares the record
    bases the tags name.  Raises ValueError if a list ``xs`` tracks a key
    twice.
    """
    tags = xs if isinstance(xs, Mapping) else _as_dict(xs)
    records = records or {}
    for k in keys:
        if k not in read:
            continue
        kind, payload = read[k]
        tag = tags.get(k)
        if tag is None or KINDS[type(tag)] != kind:
            return False
        if isinstance(tag, StringOf):
            if not _fits(payload, tag.base, records):
                return False
        elif isinstance(tag, HashOf):
            if not all(_fits(payload[f], ftag.base, records) for f, ftag in tag.fields if f in payload):
                return False
        elif strict and not all(_fits(x, tag.base, records) for x in payload):
            return False
    return True
