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
from typing import Any, Callable, Mapping, NamedTuple, Protocol

from . import codec
from .checker import (
    BOOL_RESULT,
    FLOAT_RESULT,
    INT_RESULT,
    STATUS,
    UNIT,
    CheckOk,
    ListResult,
    MaybeResult,
    ResultType,
    ScalarResult,
    check_command,  # noqa: F401  not called; kept for the benchmark tracer, which wraps this name
    infer_expr,
    result_text,
)
from .codec import RecordValue
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
    FLOAT,
    INT,
    LITERAL_BASES,
    WIRE_ARITIES,
    Expr,
    Node,
    Program,
    RecordDecl,
    RecordRef,
    Span,
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


# ---- arguments and replies ---------------------------------------------------


_WIRE_NAMES: dict[str, bytes] = {name.lower(): name.encode("ascii") for name in WIRE_ARITIES}
_LITERAL_BYTES = {cls: codec.value_encoder(base) for cls, base in LITERAL_BASES.items()}


def _argument(e: Expr, binders: dict[str, tuple[ResultType, Any]], records: dict[str, RecordDecl]) -> bytes:
    """A binder's or a record literal's payload, encoded at the base the checker proved for it.

    That base is a binder's recorded result type's, or a record literal's
    declaration; ``run_program`` encodes a literal through
    ``_LITERAL_BYTES`` itself.  Only an argument the run cannot encode
    reaches ``infer_expr``, which raises the checker's CheckError for it.
    """
    try:
        if type(e) is Var:  # a binder that binds no base (None) has no encoder: KeyError
            rt, value = binders[e.name]
            return codec.value_encoder(rt.binds, records)(value)
        # A field holds a literal's value, or a binder's if it binds a base; else None, which no field takes.
        fields = [
            binders[a.name][1] if type(a) is Var and binders[a.name][0].binds else getattr(a, "value", None)
            for a in e.args
        ]
        encode = codec.value_encoder(new_node(RecordRef, (e.name,)), records)
        return encode(new_node(RecordValue, (e.name, tuple(fields))))
    except (KeyError, ValueError):
        infer_expr({name: rt for name, (rt, _) in binders.items()}, records, e)
        raise


def _float_reply(reply: BulkReply, rt: ResultType, records: Mapping[str, RecordDecl]) -> float:
    # Increment replies are bulk; real servers may format them more loosely
    # than the codec image (e.g. "3"), so read them in the store's own grammar.
    if reply.data is None:
        raise _unfit(reply, rt)
    f = codec.redis_float(reply.data)
    if f is None or not math.isfinite(f):
        raise codec.DecodeError(FLOAT.name, reply.data)
    return f


# Per scalar result type, and per class of the result types with a base:
# the reply kind that fits it and the function that reads such a reply.
_READERS: dict[Any, tuple[type, Callable[..., Any]]] = {
    STATUS: (SimpleStatus, lambda r, rt, recs: r.text),
    INT_RESULT: (IntReply, lambda r, rt, recs: r.value),
    BOOL_RESULT: (IntReply, lambda r, rt, recs: r.value != 0),
    FLOAT_RESULT: (BulkReply, _float_reply),
    MaybeResult: (BulkReply, lambda r, rt, recs: None if r.data is None else codec.decode(r.data, rt.base, recs).value),
    ListResult: (MultiBulk, lambda r, rt, recs: (
        codec.int_values(r.items) if rt.base == INT else list(map(codec.value_decoder(rt.base, recs), r.items)))),
}


def _decode_reply(reply: Reply, rt: ResultType, records: Mapping[str, RecordDecl]) -> Any:
    """The value ``reply`` carries as a result of type ``rt``.

    Raises codec.DecodeError if a payload does not decode, and
    ProtocolError if the reply's kind does not fit ``rt``.
    """
    kind, read = _READERS.get(rt if type(rt) is ScalarResult else type(rt), (None, None))
    if type(reply) is not kind:
        raise _unfit(reply, rt)
    return read(reply, rt, records)


def _unfit(reply: Reply, rt: ResultType) -> ProtocolError:
    # The reply's kind and its payload, quoted as codec.DecodeError quotes data.
    if isinstance(reply, MultiBulk):
        text = f"MultiBulk of {len(reply.items)} items"
    else:
        text = f"{type(reply).__name__}({codec.quote(reply[0])})"  # the other kinds carry one value each
    return ProtocolError(f"reply {text} does not fit result type {result_text(rt)}")


def run_program(program: Program, report: CheckOk, backend: Backend) -> RunOutcome:
    """Execute an accepted program; pre: ``report`` came from check_program on it.

    Each command's reply is decoded by the result type in ``report.results``.
    """
    assert len(report.results) == len(program.body), "report is not for this program"
    records = record_table(program)
    binders: dict[str, tuple[ResultType, Any]] = {}  # binder -> its result type and value
    rt: ResultType = UNIT  # the last command's result type and value
    value: Any = None
    send = backend.send  # bound once per run: a wrapper put on the class's send before the run sees every call
    for (opcode, keys, args, field_name, _, binder, span), rt in zip(program.body, report.results):
        name = _WIRE_NAMES.get(opcode)
        if name is None:  # declare: static only
            value = None
        else:
            argv = [name]
            for k in keys:
                argv.append(k.encode())
            if field_name is not None:
                argv.append(field_name.encode())
            for arg in args:
                encode = _LITERAL_BYTES.get(type(arg))
                argv.append(_argument(arg, binders, records) if encode is None else encode(arg.value))
            reply = send(argv)
            if type(reply) is ErrReply:
                return RunError(reply.message, span)
            try:
                value = _decode_reply(reply, rt, records)
            except codec.DecodeError as err:
                return RunError(f"DECODE {err}", span)
        if binder is not None:
            binders[binder] = rt, value
    return RunValue(rt, value)
