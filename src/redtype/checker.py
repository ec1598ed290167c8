"""Static checking: fold a symbolic key/type dictionary over a program.

Each command is a dictionary transformer with a precondition.  Checking
walks the body left to right from an initial dictionary (empty unless
the caller assumes otherwise), threading the dictionary and an
environment of binder result types, and stops at the first violated
precondition.  An accepted program cannot raise a WRONGTYPE or
integer/float parse error when run against a store that matches the
initial dictionary; that guarantee is what the differential fuzzer
hammers on.

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
from .parser import base_text, tag_text
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
from .typedict import Found, Stuck, TypeDict

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


@dataclass(frozen=True)
class StatusResult(ResultType):
    pass


@dataclass(frozen=True)
class IntResult(ResultType):
    pass


@dataclass(frozen=True)
class FloatResult(ResultType):
    pass


@dataclass(frozen=True)
class BoolResult(ResultType):
    pass


@dataclass(frozen=True)
class UnitResult(ResultType):
    pass


@dataclass(frozen=True)
class MaybeResult(ResultType):
    base: BaseType


@dataclass(frozen=True)
class ListResult(ResultType):
    base: BaseType


STATUS = StatusResult()
INT_RESULT = IntResult()
FLOAT_RESULT = FloatResult()
BOOL_RESULT = BoolResult()
UNIT = UnitResult()

_SCALAR_BASES: dict[type, BaseType] = {IntResult: INT, FloatResult: FLOAT, BoolResult: BOOL}


# ---- outcomes ---------------------------------------------------------------


class CheckError(Exception):
    """A violated precondition, located at one command."""

    def __init__(self, span: Span | None, opcode: str | None, constraint: str, detail: str):
        at = f"{span.line}:{span.col}: " if span else ""
        op = f"{opcode}: " if opcode else ""
        super().__init__(f"{at}{constraint}: {op}{detail}")
        self.span = span
        self.opcode = opcode
        self.constraint = constraint
        self.detail = detail


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


def infer_expr(
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    e: Expr,
) -> BaseType:
    """Base type of a value expression; raises CheckError (span-less)."""
    if isinstance(e, IntLit):
        return INT
    if isinstance(e, FloatLit):
        return FLOAT
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, TextLit):
        return TEXT
    if isinstance(e, Var):
        rt = env.get(e.name)
        if rt is None:
            raise _fail(UNKNOWN_VARIABLE, f"no binder named '{e.name}' in scope")
        base = _SCALAR_BASES.get(type(rt))
        if base is None:
            raise _fail(
                ELEMENT_MISMATCH,
                f"binder '{e.name}' has result type {result_text(rt)}, which cannot appear in an expression",
            )
        return base
    assert isinstance(e, RecordLit)
    decl = records.get(e.name)
    if decl is None:
        raise _fail(UNKNOWN_RECORD, f"no record named '{e.name}' is declared")
    if len(e.args) != len(decl.fields):
        raise _fail(
            ARITY_MISMATCH,
            f"record '{e.name}' has {len(decl.fields)} fields but {len(e.args)} arguments were given",
        )
    for (fname, fbase), arg in zip(decl.fields, e.args):
        got = infer_expr(env, records, arg)
        if got != fbase:
            raise _fail(
                ELEMENT_MISMATCH,
                f"field '{fname}' of record '{e.name}' takes {base_text(fbase)}, got {base_text(got)}",
            )
    return RecordRef(e.name)


def result_text(rt: ResultType) -> str:
    """Surface spelling of a result type, as used in reports."""
    if isinstance(rt, StatusResult):
        return "status"
    if isinstance(rt, IntResult):
        return "integer"
    if isinstance(rt, FloatResult):
        return "double"
    if isinstance(rt, BoolResult):
        return "boolean"
    if isinstance(rt, UnitResult):
        return "unit"
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


def check_command(
    xs: TypeDict,
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    cmd: Command,
    strict: bool = False,
) -> tuple[TypeDict, ResultType]:
    """Post-dictionary and result type of one command.

    Raises CheckError (with the command's span attached) on the first
    violated precondition.
    """
    try:
        return _check_command(xs, env, records, cmd, strict)
    except CheckError as err:
        if err.span is None:
            raise CheckError(cmd.span, cmd.opcode, err.constraint, err.detail) from None
        raise


def _found_tag(xs: TypeDict, k: str) -> TypeTag:
    look = typedict.dict_get(xs, k)
    if isinstance(look, Stuck):
        raise _fail(GET_STUCK, f"key '{k}' is not in the dictionary")
    assert isinstance(look, Found)
    return look.tag


# A precondition on one key: raises CheckError, or returns the key's tag
# when the key must be tracked.  sinter applies its guard to both keys.
_Guard = Callable[[TypeDict, str], TypeTag | None]


def _holds_or_nx(test: Callable[[TypeTag], bool], constraint: str, kind: str) -> _Guard:
    """Each key holds ``kind`` if it is tracked at all; else ``constraint``."""

    def guard(xs: TypeDict, k: str) -> None:
        if not typedict.or_nx(test, xs, k):
            raise _fail(constraint, f"key '{k}' holds {tag_text(_found_tag(xs, k))}, not {kind}")

    return guard


def _tracked_as(test: Callable[[TypeTag], bool], kind: str) -> _Guard:
    """Each key is tracked with a tag that passes ``test``; else GetEquality-failed."""

    def guard(xs: TypeDict, k: str) -> TypeTag:
        tag = _found_tag(xs, k)
        if not test(tag):
            raise _fail(GET_EQUALITY, f"key '{k}' holds {tag_text(tag)}, not {kind}")
        return tag

    return guard


# Every opcode but declare, setnx and hget, which _check_command spells
# out: opcode -> (precondition on each key, the tag the command stores
# under its key given the value's base type, and the result type or its
# constructor from the keys' element type).  del and hset update the
# dictionary in ways of their own.
_RULES: dict[str, tuple[_Guard | None, Callable[[BaseType], TypeTag] | None, ResultType | type]] = {
    "ping": (None, None, STATUS),
    "set": (None, StringOf, STATUS),
    "del": (None, None, INT_RESULT),
    "get": (_tracked_as(typedict.is_string, "a string"), None, MaybeResult),
    "incr": (_tracked_as(lambda tag: tag == StringOf(INT), "string<int>"), None, INT_RESULT),
    "incrbyfloat": (_tracked_as(lambda tag: tag == StringOf(FLOAT), "string<float>"), None, FLOAT_RESULT),
    "lpush": (_holds_or_nx(typedict.is_list, LIST_OR_NX, "a list"), ListOf, INT_RESULT),
    "llen": (_holds_or_nx(typedict.is_list, LIST_OR_NX, "a list"), None, INT_RESULT),
    "rpop": (_tracked_as(typedict.is_list, "a list"), None, MaybeResult),
    "sadd": (_holds_or_nx(typedict.is_set, SET_OR_NX, "a set"), SetOf, INT_RESULT),
    "sinter": (_tracked_as(typedict.is_set, "a set"), None, ListResult),
    "hset": (_holds_or_nx(typedict.is_hash, HASH_OR_NX, "a hash"), None, BOOL_RESULT),
}
# In strict mode a tracked container must already hold the pushed type.
_STRICT_VERBS = {ListOf: "push", SetOf: "add"}


def _check_command(
    xs: TypeDict,
    env: Mapping[str, ResultType],
    records: Mapping[str, RecordDecl],
    cmd: Command,
    strict: bool,
) -> tuple[TypeDict, ResultType]:
    op = cmd.opcode
    k = cmd.keys[0] if cmd.keys else ""
    a = infer_expr(env, records, cmd.args[0]) if cmd.args else None

    if op == "declare":
        if typedict.dict_member(xs, k):
            raise _fail(NOT_MEMBER, f"key '{k}' is already tracked as {tag_text(_found_tag(xs, k))}")
        assert cmd.declared is not None
        bad = undeclared_record(cmd.declared, records)
        if bad:
            raise _fail(UNKNOWN_RECORD, f"no record named '{bad}' is declared")
        return typedict.dict_set(xs, k, cmd.declared), UNIT

    if op == "setnx":
        if not typedict.dict_member(xs, k):
            return typedict.dict_set(xs, k, StringOf(a)), BOOL_RESULT
        tag = _found_tag(xs, k)
        if tag != StringOf(a):
            raise _fail(
                GET_EQUALITY,
                f"key '{k}' is tracked as {tag_text(tag)}, but setnx may write a "
                f"string<{base_text(a)}> if the key is unset",
            )
        return xs, BOOL_RESULT

    if op == "hget":
        assert cmd.field_name is not None
        look = typedict.hash_get(xs, k, cmd.field_name)
        if isinstance(look, Stuck):
            raise _fail(GET_STUCK, f"no hash field '{cmd.field_name}' is tracked under key '{k}'")
        assert isinstance(look, Found)
        if not isinstance(look.tag, StringOf):
            raise _fail(
                GET_EQUALITY,
                f"field '{cmd.field_name}' of '{k}' holds {tag_text(look.tag)}, not a string",
            )
        return xs, MaybeResult(look.tag.base)

    if op not in _RULES:
        raise _fail(ARITY_MISMATCH, f"unknown command '{op}'")
    guard, write, result = _RULES[op]
    if op == "incrbyfloat" and a != FLOAT:
        raise _fail(ELEMENT_MISMATCH, f"incrbyfloat takes a float increment, got {base_text(a)}")
    tag = guard(xs, k) if guard else None
    if op == "sinter":
        k2 = cmd.keys[1]
        tag2 = guard(xs, k2)
        if tag.base != tag2.base:
            raise _fail(
                GET_EQUALITY,
                f"keys '{k}' and '{k2}' hold {tag_text(tag)} and {tag_text(tag2)}; sinter needs equal element types",
            )
    if isinstance(result, type):
        result = result(tag.base)

    if write is not None:
        verb = _STRICT_VERBS.get(write)
        if strict and verb:
            look = typedict.dict_get(xs, k)
            if isinstance(look, Found) and look.tag != write(a):
                raise _fail(
                    ELEMENT_MISMATCH,
                    f"key '{k}' holds {tag_text(look.tag)}; cannot {verb} {base_text(a)} elements in strict mode",
                )
        xs = typedict.dict_set(xs, k, write(a))
    elif op == "del":
        xs = typedict.dict_del(xs, k)
    elif op == "hset":
        assert cmd.field_name is not None
        xs = typedict.hash_set(xs, k, cmd.field_name, StringOf(a))
    return xs, result


# ---- programs ---------------------------------------------------------------


def check_program(
    program: Program,
    initial: TypeDict | None = None,
    strict: bool = False,
) -> CheckReport:
    """Check a whole program; total, returns CheckOk or the first CheckError."""
    records = record_table(program)
    xs: TypeDict = list(initial) if initial else []
    start: TypeDict = list(xs)
    env: dict[str, ResultType] = {}
    results: list[ResultType] = []
    for cmd in program.body:
        try:
            xs, result = check_command(xs, env, records, cmd, strict)
        except CheckError as err:
            return err
        results.append(result)
        if cmd.binder is not None:
            env[cmd.binder] = result
    return CheckOk(start, xs, results[-1] if results else UNIT, tuple(results))
