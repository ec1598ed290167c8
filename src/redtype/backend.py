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

import math
import socket
from typing import Any, Mapping, NamedTuple, Protocol

from . import codec
from .checker import (
    STATUS,
    UNIT,
    CheckOk,
    ListResult,
    MaybeResult,
    ResultType,
    check_command,  # noqa: F401  not called; kept for the benchmark tracer, which wraps this name
    infer_expr,
    result_text,
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
    BOOL,
    FLOAT,
    INT,
    WIRE_ARITIES,
    BoolLit,
    Command,
    Expr,
    FloatLit,
    IntLit,
    Node,
    Program,
    RecordDecl,
    RecordLit,
    Span,
    TextLit,
    Var,
    new_node,
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


class RunValue(Node, NamedTuple("RunValue", [("result", ResultType), ("value", Any)])):
    __slots__ = ()


class RunError(Node, NamedTuple("RunError", [("message", str), ("span", Span)])):
    __slots__ = ()


RunOutcome = RunValue | RunError


# ---- expression evaluation ----------------------------------------------------


def eval_expr(e: Expr, values: Mapping[str, Any]) -> Any:
    if isinstance(e, (IntLit, FloatLit, BoolLit, TextLit)):
        return e.value
    if isinstance(e, Var):
        return values[e.name]
    assert isinstance(e, RecordLit)
    return RecordValue(e.name, tuple(eval_expr(a, values) for a in e.args))


_WIRE_NAMES: dict[str, bytes] = {name.lower(): name.encode("ascii") for name in WIRE_ARITIES}


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
        argv.append(codec.encode(new_node(TypedValue, (base, eval_expr(arg, values))), records))
    return argv


def _decode_reply(
    reply: Reply, rt: ResultType, records: Mapping[str, RecordDecl]
) -> Any:
    """The value ``reply`` carries as a result of type ``rt``.

    Raises codec.DecodeError if a payload does not decode, and
    ProtocolError if the reply's kind does not fit ``rt``.
    """
    binds = rt.binds
    if isinstance(reply, IntReply) and binds in (INT, BOOL):
        return reply.value if binds == INT else reply.value != 0
    if isinstance(reply, BulkReply):
        if isinstance(rt, MaybeResult):
            return None if reply.data is None else codec.decode(reply.data, rt.base, records).value
        if binds == FLOAT and reply.data is not None:
            # Increment replies are bulk; real servers may format them more
            # loosely than the codec image (e.g. "3"), so read them in the
            # store's own float grammar.
            f = codec.redis_float(reply.data)
            if f is None or not math.isfinite(f):
                raise codec.DecodeError(FLOAT.name, reply.data)
            return f
    if isinstance(reply, MultiBulk) and isinstance(rt, ListResult):
        return list(map(codec.value_decoder(rt.base, records), reply.items))
    if isinstance(reply, SimpleStatus) and rt == STATUS:
        return reply.text
    raise ProtocolError(f"reply {_reply_text(reply)} does not fit result type {result_text(rt)}")


def _reply_text(reply: Reply) -> str:
    """The reply's kind and its payload, quoted as codec.DecodeError quotes data."""
    if isinstance(reply, MultiBulk):
        return f"MultiBulk of {len(reply.items)} items"
    return f"{type(reply).__name__}({codec.quote(reply[0])})"  # the other kinds carry one value each


def run_program(program: Program, report: CheckOk, backend: Backend) -> RunOutcome:
    """Execute an accepted program; pre: ``report`` came from check_program on it.

    Each command's reply is decoded by the result type in ``report.results``.
    """
    assert len(report.results) == len(program.body), "report is not for this program"
    records = record_table(program)
    env: dict[str, ResultType] = {}
    values: dict[str, Any] = {}
    rt: ResultType = UNIT  # the last command's result type and value
    value: Any = None
    for cmd, rt in zip(program.body, report.results):
        argv = _wire_command(cmd, env, values, records)
        if argv is None:
            value = None
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
    return RunValue(rt, value)
