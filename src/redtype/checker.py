"""Static checking: fold a symbolic key/type dictionary over a program.

Each command is a dictionary transformer with a precondition, as in the
paper's type signatures; ``_check_command`` spells each opcode's rule
(precondition, dictionary update, result type) in one case.  Checking
walks the body left to right from an initial dictionary (empty unless
the caller assumes otherwise), threading one insertion-ordered dict of
key -> tag, which each command updates in place, and an environment of
binder result types, and stops at the first violated precondition.  The
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

from dataclasses import dataclass
from typing import Callable, Container, Mapping

from . import typedict
from .parser import _clip, base_text, tag_text
from .syntax import (
    BOOL,
    FLOAT,
    INT,
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
    record_table,
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


class ResultType:
    __slots__ = ()
    # The base type a binder of this result has in expressions; None if
    # such a binder cannot appear in an expression.
    binds: BaseType | None = None


@dataclass(frozen=True)
class ScalarResult(ResultType):
    """A result without an element type, by its surface name."""

    name: str
    binds: BaseType | None = None


@dataclass(frozen=True)
class MaybeResult(ResultType):
    base: BaseType


@dataclass(frozen=True)
class ListResult(ResultType):
    base: BaseType


STATUS = ScalarResult("status")
INT_RESULT = ScalarResult("integer", INT)
FLOAT_RESULT = ScalarResult("double", FLOAT)
BOOL_RESULT = ScalarResult("boolean", BOOL)
UNIT = ScalarResult("unit")


# ---- outcomes ---------------------------------------------------------------


class CheckError(Exception):
    """A violated precondition, located at one command."""

    def __init__(self, span: Span | None, opcode: str | None, constraint: str, detail: str):
        super().__init__(constraint, detail)  # not span and opcode, which _step may fill in
        self.span = span
        self.opcode = opcode
        self.constraint = constraint
        self.detail = detail

    def __str__(self) -> str:
        # formatted when read, so that _step can locate the error in place
        at = f"{self.span.line}:{self.span.col}: " if self.span else ""
        op = f"{self.opcode}: " if self.opcode else ""
        return f"{at}{self.constraint}: {op}{self.detail}"


def _fail(constraint: str, detail: str) -> CheckError:
    """A violation not yet located; check_command adds the command's span."""
    return CheckError(None, None, constraint, detail)


@dataclass
class CheckOk:
    initial: TypeDict
    final: TypeDict
    result: ResultType
    # One result type per body command, in order; the runtime decodes by them.
    results: tuple[ResultType, ...]


CheckReport = CheckOk | CheckError


# ---- expressions ------------------------------------------------------------

_LITERAL_BASES: dict[type, BaseType] = {IntLit: INT, FloatLit: FLOAT, BoolLit: BOOL, TextLit: TEXT}


def infer_expr(
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    e: Expr,
) -> BaseType:
    """Base type of a value expression; raises CheckError (span-less)."""
    base = _LITERAL_BASES.get(type(e))
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
                f"field '{_clip(fname)}' of record '{_clip(e.name)}' takes {_clip(base_text(fbase))}, "
                f"got {_clip(base_text(got))}",
            )
    return RecordRef(e.name)


def result_text(rt: ResultType) -> str:
    """Surface spelling of a result type, as used in reports."""
    if isinstance(rt, ScalarResult):
        return rt.name
    if isinstance(rt, MaybeResult):
        return f"maybe<{base_text(rt.base)}>"
    assert isinstance(rt, ListResult)
    return f"list<{base_text(rt.base)}>"


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
        keys = [k for k, _ in xs]
        twice = next(k for k in keys if keys.count(k) > 1)
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
    result = _step(d, env, records, cmd, strict)
    return list(d.items()), result


def _step(
    xs: _Dict,
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    cmd: Command,
    strict: bool,
) -> ResultType:
    """Apply one command to ``xs`` in place and return its result type.

    Raises CheckError (with the command's span attached) on the first
    violated precondition, before ``xs`` is changed.
    """
    try:
        return _check_command(xs, env, records, cmd, strict)
    except CheckError as err:
        if err.span is None:
            err.span, err.opcode = cmd.span, cmd.opcode
        raise


def _tracked(xs: _Dict, k: str, ok: Callable[[TypeTag], bool], kind: str) -> TypeTag:
    """The tag of ``k``, which must be tracked as ``kind``; else GetStuck or GetEquality-failed."""
    tag = xs.get(k)
    if tag is None:
        raise _fail(GET_STUCK, f"key '{_clip(k)}' is not in the dictionary")
    if not ok(tag):
        raise _fail(GET_EQUALITY, f"key '{_clip(k)}' holds {_clip(tag_text(tag))}, not {kind}")
    return tag


def _or_nx(xs: _Dict, k: str, ok: Callable[[TypeTag], bool], constraint: str, kind: str) -> TypeTag | None:
    """The tag of ``k``, which must be ``kind`` if tracked at all; else ``constraint``."""
    tag = xs.get(k)
    if tag is not None and not ok(tag):
        raise _fail(constraint, f"key '{_clip(k)}' holds {_clip(tag_text(tag))}, not {kind}")
    return tag


def _check_command(
    xs: _Dict,
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    cmd: Command,
    strict: bool,
) -> ResultType:
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
            tag = xs.setdefault(k, StringOf(a))
            if tag != StringOf(a):
                raise _fail(
                    GET_EQUALITY,
                    f"key '{_clip(k)}' is tracked as {_clip(tag_text(tag))}, but setnx may write a "
                    f"string<{_clip(base_text(a))}> if the key is unset",
                )
            return BOOL_RESULT
        case "get":
            return MaybeResult(_tracked(xs, k, typedict.is_string, "a string").base)
        case "del":
            xs.pop(k, None)
            return INT_RESULT
        case "incr":
            _tracked(xs, k, lambda tag: tag == StringOf(INT), "string<int>")
            return INT_RESULT
        case "incrbyfloat":
            if a != FLOAT:
                raise _fail(ELEMENT_MISMATCH, f"incrbyfloat takes a float increment, got {_clip(base_text(a))}")
            _tracked(xs, k, lambda tag: tag == StringOf(FLOAT), "string<float>")
            return FLOAT_RESULT
        case "lpush" | "sadd":
            if op == "lpush":
                old, new, verb = _or_nx(xs, k, typedict.is_list, LIST_OR_NX, "a list"), ListOf(a), "push"
            else:
                old, new, verb = _or_nx(xs, k, typedict.is_set, SET_OR_NX, "a set"), SetOf(a), "add"
            if strict and old is not None and old != new:
                raise _fail(
                    ELEMENT_MISMATCH,
                    f"key '{_clip(k)}' holds {_clip(tag_text(old))}; "
                    f"cannot {verb} {_clip(base_text(a))} elements in strict mode",
                )
            xs[k] = new
            return INT_RESULT
        case "llen":
            _or_nx(xs, k, typedict.is_list, LIST_OR_NX, "a list")
            return INT_RESULT
        case "rpop":
            return MaybeResult(_tracked(xs, k, typedict.is_list, "a list").base)
        case "sinter":
            k2 = cmd.keys[1]
            tag = _tracked(xs, k, typedict.is_set, "a set")
            tag2 = _tracked(xs, k2, typedict.is_set, "a set")
            if tag.base != tag2.base:
                raise _fail(
                    GET_EQUALITY,
                    f"keys '{_clip(k)}' and '{_clip(k2)}' hold {_clip(tag_text(tag))} and {_clip(tag_text(tag2))}; "
                    "sinter needs equal element types",
                )
            return ListResult(tag.base)
        case "hset":
            assert cmd.field_name is not None
            old = _or_nx(xs, k, typedict.is_hash, HASH_OR_NX, "a hash")
            xs[k] = HashOf(tuple(typedict.dict_set(old.fields if old is not None else (), cmd.field_name, StringOf(a))))
            return BOOL_RESULT
        case "hget":
            assert cmd.field_name is not None
            tag = xs.get(k)
            look = typedict.dict_get(tag.fields, cmd.field_name) if isinstance(tag, HashOf) else typedict.STUCK
            if not isinstance(look, Found):
                raise _fail(GET_STUCK, f"no hash field '{_clip(cmd.field_name)}' is tracked under key '{_clip(k)}'")
            if not isinstance(look.tag, StringOf):
                raise _fail(
                    GET_EQUALITY,
                    f"field '{_clip(cmd.field_name)}' of '{_clip(k)}' holds {_clip(tag_text(look.tag))}, not a string",
                )
            return MaybeResult(look.tag.base)
        case "declare":
            if k in xs:
                raise _fail(NOT_MEMBER, f"key '{_clip(k)}' is already tracked as {_clip(tag_text(xs[k]))}")
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

    Raises ValueError if ``initial`` tracks a key twice.
    """
    records = record_table(program)
    start: TypeDict = list(initial) if initial else []
    xs = _as_dict(start)
    env: dict[str, ResultType] = {}
    results: list[ResultType] = []
    for cmd in program.body:
        try:
            result = _step(xs, env, records, cmd, strict)
        except CheckError as err:
            return err
        results.append(result)
        if cmd.binder is not None:
            env[cmd.binder] = result
    return CheckOk(start, list(xs.items()), results[-1] if results else UNIT, tuple(results))
