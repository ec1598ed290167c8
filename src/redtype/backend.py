"""Program execution against a store backend.

``run_program`` replays a checker-accepted program, issuing exactly one
wire command per command in the body (declare issues none), decoding
each reply against the result type the checker's report records for
it, and binding binder values for later expressions; the dictionary is
not folded again.  Any error reply aborts the run with a located
failure; so does a stored value that does not decode as its tracked
type (message prefixed with DECODE, which in default mode can happen
after a container's element type was overwritten).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any, Mapping, Protocol

from . import codec
from .checker import (
    BoolResult,
    CheckOk,
    FloatResult,
    IntResult,
    ListResult,
    MaybeResult,
    ResultType,
    StatusResult,
    UnitResult,
    check_command,  # noqa: F401  not called; kept for the benchmark tracer, which wraps this name
    infer_expr,
)
from .codec import RecordValue, TypedValue
from .resp import ProtocolError, ReplyDecoder, encode_command
from .store import (
    BulkReply,
    ErrReply,
    IntReply,
    MemoryStore,
    MultiBulk,
    Reply,
    SimpleStatus,
)
from .syntax import (
    COMMAND_SHAPES,
    BoolLit,
    Command,
    Expr,
    FloatLit,
    IntLit,
    Program,
    RecordDecl,
    RecordLit,
    Span,
    TextLit,
    Var,
    record_table,
)


class Backend(Protocol):
    def send(self, argv: list[bytes]) -> Reply: ...


class MemoryBackend:
    """Runs commands against an in-process store."""

    def __init__(self, store: MemoryStore | None = None):
        self.store = store or MemoryStore()

    def send(self, argv: list[bytes]) -> Reply:
        return self.store.execute(argv)


class RespBackend:
    """One blocking socket connection speaking RESP2."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._decoder = ReplyDecoder()

    def send(self, argv: list[bytes]) -> Reply:
        self._sock.sendall(encode_command(argv))
        while True:
            reply = self._decoder.poll()
            if reply is not None:
                return reply
            data = self._sock.recv(4096)
            if not data:
                raise ConnectionError("connection closed mid-reply")
            self._decoder.feed(data)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "RespBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ---- outcomes ----------------------------------------------------------------


@dataclass
class RunValue:
    result: ResultType
    value: Any


@dataclass
class RunError:
    message: str
    span: Span


RunOutcome = RunValue | RunError


# ---- expression evaluation ----------------------------------------------------


def eval_expr(e: Expr, values: Mapping[str, Any]) -> Any:
    if isinstance(e, (IntLit, FloatLit, BoolLit, TextLit)):
        return e.value
    if isinstance(e, Var):
        return values[e.name]
    assert isinstance(e, RecordLit)
    return RecordValue(e.name, tuple(eval_expr(a, values) for a in e.args))


# Commands that take a type tag are static and have no wire name.
_WIRE_NAMES = {
    op: op.upper().encode("ascii")
    for op, (_, _, _, takes_tag) in COMMAND_SHAPES.items()
    if not takes_tag
}


def _wire_command(
    cmd: Command,
    env: Mapping[str, ResultType],
    values: Mapping[str, Any],
    records: Mapping[str, RecordDecl],
) -> list[bytes] | None:
    """Wire form of one command; None for declare (purely static)."""
    name = _WIRE_NAMES.get(cmd.opcode)
    if name is None:
        return None
    argv = [name]
    argv.extend(k.encode("utf-8") for k in cmd.keys)
    if cmd.field_name is not None:
        argv.append(cmd.field_name.encode("utf-8"))
    for arg in cmd.args:
        base = infer_expr(env, records, arg)
        argv.append(codec.encode(TypedValue(base, eval_expr(arg, values)), records))
    return argv


def _decode_reply(
    reply: Reply, rt: ResultType, records: Mapping[str, RecordDecl]
) -> Any:
    if isinstance(rt, StatusResult):
        if isinstance(reply, SimpleStatus):
            return reply.text
    elif isinstance(rt, IntResult):
        if isinstance(reply, IntReply):
            return reply.value
    elif isinstance(rt, BoolResult):
        if isinstance(reply, IntReply):
            return reply.value != 0
    elif isinstance(rt, FloatResult):
        # Increment replies are bulk; real servers may format them more
        # loosely than the codec image (e.g. "3"), so parse leniently.
        if isinstance(reply, BulkReply) and reply.data is not None:
            try:
                return float(reply.data)
            except ValueError:
                raise codec.DecodeError("float", reply.data) from None
    elif isinstance(rt, MaybeResult):
        if isinstance(reply, BulkReply):
            if reply.data is None:
                return None
            return codec.decode(reply.data, rt.base, records).value
    elif isinstance(rt, ListResult):
        if isinstance(reply, MultiBulk):
            return [codec.decode(item, rt.base, records).value for item in reply.items]
    raise ProtocolError(f"reply {reply!r} does not fit result type {rt!r}")


def run_program(program: Program, report: CheckOk, backend: Backend) -> RunOutcome:
    """Execute an accepted program; pre: ``report`` came from check_program on it.

    Each command's reply is decoded by the result type in ``report.results``.
    """
    assert len(report.results) == len(program.body), "report is not for this program"
    records = record_table(program)
    env: dict[str, ResultType] = {}
    values: dict[str, Any] = {}
    outcome: RunOutcome = RunValue(UnitResult(), None)
    for cmd, rt in zip(program.body, report.results):
        argv = _wire_command(cmd, env, values, records)
        if argv is None:
            value: Any = None
        else:
            reply = backend.send(argv)
            if isinstance(reply, ErrReply):
                return RunError(reply.message, cmd.span)
            try:
                value = _decode_reply(reply, rt, records)
            except codec.DecodeError as err:
                return RunError(f"DECODE {err}", cmd.span)
        if cmd.binder is not None:
            env[cmd.binder] = rt
            values[cmd.binder] = value
        outcome = RunValue(rt, value)
    return outcome
