"""Execution: decoding per result type, binder flow, wire discipline,
and memory-vs-loopback-server equivalence."""

from __future__ import annotations

import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from redtype import backend as backend_module, checker, cli, codec, typedict
from redtype.backend import (
    MemoryBackend,
    RespBackend,
    RunError,
    RunValue,
    run_program,
)
from redtype.checker import FLOAT_RESULT, INT_RESULT, STATUS, UNIT, CheckOk, MaybeResult, check_program
from redtype.codec import RecordValue, TypedValue, quote
from redtype.fuzz import _GATING, _trial, generate_program
from redtype.parser import parse_program
from redtype.resp import ProtocolError
from redtype.store import NONFINITE_MSG, OVERFLOW_MSG, BulkReply, ErrReply, IntReply, MemoryStore
from redtype.syntax import (
    COMMAND_SHAPES,
    FLOAT,
    INT,
    INT64_MAX,
    INT64_MIN,
    LITERAL_BASES,
    TEXT,
    BoolLit,
    Command,
    FloatLit,
    HashOf,
    IntLit,
    ListOf,
    Program,
    RecordLit,
    RecordRef,
    Span,
    StringOf,
    TextLit,
    Var,
    record_table,
)

QUEUE_SOURCE = """\
record Message { body: text, id: int }
program {
  declare counter : string<int>
  declare queue   : list<Message>
  i <- incr counter
  lpush queue Message{ "hello", i }
  j <- incr counter
  lpush queue Message{ "world", j }
  rpop queue
}
"""


def run_source(source, backend=None, initial=None, strict=False):
    program = parse_program(source)
    report = check_program(program, initial, strict)
    assert isinstance(report, CheckOk), report
    return run_program(program, report, backend or MemoryBackend())


def test_queue_program_returns_first_pushed_message():
    outcome = run_source(QUEUE_SOURCE)
    assert isinstance(outcome, RunValue)
    assert outcome.value == RecordValue("Message", ("hello", 1))


def test_ping_program():
    outcome = run_source("program { ping }")
    assert outcome == RunValue(outcome.result, "PONG")


def test_get_on_declared_but_unset_key_is_absent():
    outcome = run_source("program { get k }", initial=[("k", StringOf(INT))])
    assert isinstance(outcome, RunValue)
    assert outcome.value is None


def test_scalar_results_decode_to_python_values():
    backend = MemoryBackend()
    assert run_source("program { set k 5 }", backend).value == "OK"
    assert run_source("program { incr k }", backend, initial=[("k", StringOf(INT))]).value == 6
    assert run_source("program { setnx fresh 1 }", backend).value is True
    assert run_source("program { setnx fresh 2 }", backend, initial=[("fresh", StringOf(INT))]).value is False
    assert run_source("program { del k }", backend).value == 1
    out = run_source('program { declare x : string<float>  incrbyfloat x 2.5 }', backend)
    assert out.value == pytest.approx(2.5)


def test_sinter_decodes_to_element_list():
    source = """\
program {
  sadd s 10
  sadd s 7
  sadd t 10
  sadd t 3
  sinter s t
}
"""
    outcome = run_source(source)
    assert outcome.value == [10]


def test_hash_round_trip_through_execution():
    source = """\
program {
  hset user name "banacorn"
  hset user birthyear 1992
  hget user birthyear
}
"""
    outcome = run_source(source)
    assert outcome.value == 1992


def test_bool_and_maybe_text_values():
    source = 'program { b <- hset h f "x"  hget h f }'
    outcome = run_source(source)
    assert outcome.value == "x"


def test_declare_produces_unit_and_no_wire_traffic():
    class Counting:
        def __init__(self):
            self.sent = []
            self.inner = MemoryBackend()

        def send(self, argv):
            self.sent.append(list(argv))
            return self.inner.send(argv)

    backend = Counting()
    program = parse_program(QUEUE_SOURCE)
    report = check_program(program)
    run_program(program, report, backend)
    # 7 body commands, 2 of them declares: 5 wire commands.
    assert len(backend.sent) == 5
    assert backend.sent[0][0] == b"INCR"
    assert [argv[0] for argv in backend.sent].count(b"LPUSH") == 2


def test_runtime_error_reports_span():
    # INCR on an assumed-int key whose stored bytes are not an integer:
    # the assumption lies about the store, execution surfaces the error.
    store = MemoryStore()
    store.execute([b"SET", b"c", b"pear"])
    outcome = run_source(
        "program {\n  incr c\n}",
        backend=MemoryBackend(store),
        initial=[("c", StringOf(INT))],
    )
    assert isinstance(outcome, RunError)
    assert outcome.message == "ERR value is not an integer or out of range"
    assert outcome.span.line == 2


def test_decode_failure_after_container_retype():
    # Default mode allows lpush to overwrite the element type; the stale
    # element then fails to decode as the new type.
    source = """\
program {
  lpush q "pear"
  lpush q 5
  rpop q
}
"""
    outcome = run_source(source)
    assert isinstance(outcome, RunError)
    assert outcome.message.startswith("DECODE")
    assert outcome.span.line == 4


def test_strict_mode_never_reaches_the_decode_failure():
    program = parse_program('program { lpush q "pear"  lpush q 5  rpop q }')
    report = check_program(program, strict=True)
    assert not isinstance(report, CheckOk)


def test_binder_values_flow_into_later_commands():
    source = """\
program {
  declare c : string<int>
  n <- incr c
  set copy n
  get copy
}
"""
    outcome = run_source(source)
    assert outcome.value == 1


# ---------------------------------------------------------------------------
# RESP backend against the loopback server


def _reset(host, port):
    with RespBackend(host, port) as b:
        b.send([b"RESET"])


def test_resp_backend_runs_the_queue_program(resp_server):
    host, port, _ = resp_server
    _reset(host, port)
    program = parse_program(QUEUE_SOURCE)
    report = check_program(program)
    with RespBackend(host, port) as backend:
        outcome = run_program(program, report, backend)
    assert isinstance(outcome, RunValue)
    assert outcome.value == RecordValue("Message", ("hello", 1))


def test_resp_backend_equivalence_on_fuzz_programs(resp_server):
    host, port, _ = resp_server
    rng = random.Random(4242)
    checked = 0
    with RespBackend(host, port) as backend:
        for _ in range(100):
            program = generate_program(rng, max_len=10, ill_typed_rate=0.1)
            report = check_program(program)
            if not isinstance(report, CheckOk):
                continue
            checked += 1
            mem_outcome = run_program(program, report, MemoryBackend())
            _reset(host, port)
            wire_outcome = run_program(program, report, backend)
            assert wire_outcome == mem_outcome, program
    assert checked > 40  # most programs should be accepted and compared


def test_resp_backend_refuses_half_closed_connection(resp_server):
    host, port, _ = resp_server
    backend = RespBackend(host, port)
    backend.close()
    with pytest.raises(OSError):
        backend.send([b"PING"])


# ---------------------------------------------------------------------------
# check once: the run decodes by the checker's recorded result types


def test_check_ok_records_one_result_type_per_command():
    report = check_program(parse_program(QUEUE_SOURCE))
    assert isinstance(report, CheckOk)
    message = MaybeResult(RecordRef("Message"))
    assert report.results == (UNIT, UNIT, INT_RESULT, INT_RESULT, INT_RESULT, INT_RESULT, message)
    assert report.results[-1] == report.result
    empty = check_program(parse_program("program { }"))
    assert empty.results == () and empty.result == UNIT


def _accepted_corpus():
    """The queue program and the first 20 accepted programs drawn at seed 7, each with its report."""
    rng = random.Random(7)
    drawn = (generate_program(rng, max_len=12) for _ in range(1000))
    cases = []
    for p in itertools.chain([parse_program(QUEUE_SOURCE)], drawn):
        if isinstance(r := check_program(p), CheckOk):
            cases.append((p, r))
            if len(cases) == 21:
                break
    return cases


def test_run_program_makes_no_checker_or_dictionary_calls(monkeypatch):
    cases = _accepted_corpus()
    expected = [run_program(p, r, MemoryBackend()) for p, r in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("run_program re-derived what the checker proved")

    monkeypatch.setattr(checker, "check_command", forbidden)
    monkeypatch.setattr(backend_module, "check_command", forbidden)
    for name, fn in vars(typedict).items():
        if inspect.isfunction(fn) and fn.__module__ == typedict.__name__:
            monkeypatch.setattr(typedict, name, forbidden)
    assert len(cases) > 20
    assert [run_program(p, r, MemoryBackend()) for p, r in cases] == expected


def test_run_program_does_not_re_infer_argument_types(monkeypatch):
    binders = parse_program(
        "program { declare c : string<int>  n <- incr c  b <- setnx d 1.5  x <- incrbyfloat d 1.0"
        "  set e n  set f b  set g x }"
    )
    cases = [*_accepted_corpus(), (binders, check_program(binders))]
    expected = [run_program(p, r, MemoryBackend()) for p, r in cases]
    args = [a for p, _ in cases for cmd in p.body for a in cmd.args]
    # Literals of each base, binders of each base, and record literals with a binder among their fields.
    assert {type(a) for a in args} == {IntLit, FloatLit, BoolLit, TextLit, Var, RecordLit}
    assert any(type(f) is Var for a in args if type(a) is RecordLit for f in a.args)
    assert isinstance(expected[-1], RunValue)

    def forbidden(*args, **kwargs):
        raise AssertionError("run_program inferred the type of an accepted argument")

    monkeypatch.setattr(backend_module, "infer_expr", forbidden)
    assert [run_program(p, r, MemoryBackend()) for p, r in cases] == expected



class _Recording:
    """A mem backend that keeps every argv it is sent."""

    def __init__(self):
        self.sent = []
        self.inner = MemoryBackend()

    def send(self, argv):
        self.sent.append(list(argv))
        return self.inner.send(argv)


def _reference_payload(e, binders, records):
    # Each argument through codec.encode at the base the checker proved for it.
    if type(e) is Var:
        rt, value = binders[e.name]
        return codec.encode(TypedValue(rt.binds, value), records)
    if type(e) is RecordLit:
        fields = tuple(binders[a.name][1] if type(a) is Var else a.value for a in e.args)
        return codec.encode(TypedValue(RecordRef(e.name), RecordValue(e.name, fields)), records)
    return codec.encode(TypedValue(LITERAL_BASES[type(e)], e.value))


def _reference_run(program, report):
    """The argv lists and the outcome of running ``program`` on a fresh mem store, spelled out command by command."""
    records, binders, sent = record_table(program), {}, []
    backend = MemoryBackend()
    rt, value = UNIT, None
    for cmd, rt in zip(program.body, report.results):
        value = None
        if cmd.opcode != "declare":
            field = [] if cmd.field_name is None else [cmd.field_name.encode("utf-8")]
            keys = [k.encode("utf-8") for k in cmd.keys]
            argv = [cmd.opcode.upper().encode("ascii"), *keys, *field]
            argv += [_reference_payload(a, binders, records) for a in cmd.args]
            sent.append(argv)
            reply = backend.send(argv)
            if type(reply) is ErrReply:
                return sent, RunError(reply.message, cmd.span)
            try:
                value = backend_module._decode_reply(reply, rt, records)
            except codec.DecodeError as err:
                return sent, RunError(f"DECODE {err}", cmd.span)
        if cmd.binder is not None:
            binders[cmd.binder] = rt, value
    return sent, RunValue(rt, value)


# Each program with the exact argv lists its run sends and its outcome.
_WIRE_CASES = {
    "overflow-stops-the-run": (
        "program {\n  set k 9223372036854775807\n  n <- incr k\n  set after 1\n}",
        [[b"SET", b"k", b"9223372036854775807"], [b"INCR", b"k"]],
        RunError(OVERFLOW_MSG, Span(3, 8)),
    ),
    "decode-failure-stops-the-run": (
        'program {\n  lpush q "pear"\n  lpush q 5\n  rpop q\n  set after 1\n}',
        [[b"LPUSH", b"q", b"pear"], [b"LPUSH", b"q", b"5"], [b"RPOP", b"q"]],
        RunError("DECODE cannot decode b'pear' as int", Span(4, 3)),
    ),
    "binder-into-argument-and-record-field": (
        "record Message { body: text, id: int }\n"
        'program { declare c : string<int>  n <- incr c  set copy n  lpush q Message{ "hi", n }  rpop q }',
        [[b"INCR", b"c"], [b"SET", b"copy", b"1"], [b"LPUSH", b"q", b'{"body":"hi","id":1}'], [b"RPOP", b"q"]],
        RunValue(MaybeResult(RecordRef("Message")), RecordValue("Message", ("hi", 1))),
    ),
    "hash-field-name": (
        'program { b <- hset user name "banacorn"  hset user born 1.5  hget user name }',
        [[b"HSET", b"user", b"name", b"banacorn"], [b"HSET", b"user", b"born", b"1.5"], [b"HGET", b"user", b"name"]],
        RunValue(MaybeResult(TEXT), "banacorn"),
    ),
    "non-ascii-text": (
        'program { set k "é日"  b <- setnx k "x"  get k }',
        [[b"SET", b"k", "é日".encode("utf-8")], [b"SETNX", b"k", b"x"], [b"GET", b"k"]],
        RunValue(MaybeResult(TEXT), "é日"),
    ),
}


@pytest.mark.parametrize("name", list(_WIRE_CASES))
def test_a_run_sends_exactly_these_argv_lists(name):
    source, argvs, outcome = _WIRE_CASES[name]
    program = parse_program(source)
    report = check_program(program)
    assert isinstance(report, CheckOk), report
    backend = _Recording()
    assert run_program(program, report, backend) == outcome
    assert backend.sent == argvs
    assert _reference_run(program, report) == (argvs, outcome)


def test_a_run_sends_the_reference_wire_traffic_on_the_accepted_corpus():
    cases = _accepted_corpus()
    cases += [(p, check_program(p)) for p in (parse_program(source) for source, _, _ in _WIRE_CASES.values())]
    for program, report in cases:
        backend = _Recording()
        outcome = run_program(program, report, backend)
        assert (backend.sent, outcome) == _reference_run(program, report), program
    assert sum(len(_reference_run(p, r)[0]) for p, r in cases) > 100


def test_an_unfit_reply_from_the_backend_raises_protocol_error():
    class Unfit:
        def send(self, argv):
            return IntReply(1)

    program = parse_program("program { set k 1  ping }")
    with pytest.raises(ProtocolError, match=r"^reply IntReply\(1\) does not fit result type status$"):
        run_program(program, check_program(program), Unfit())


def test_run_from_an_assumed_dictionary_decodes_by_its_types():
    source = """\
record Message { body: text, id: int }
program {
  n <- incr counter
  lpush queue Message{ "hi", n }
  x <- hget h f
  m <- rpop queue
}
"""
    initial = [
        ("counter", StringOf(INT)),
        ("queue", ListOf(RecordRef("Message"))),
        ("h", HashOf((("f", StringOf(FLOAT)),))),
    ]
    store = MemoryStore()
    store.execute([b"SET", b"counter", b"41"])
    store.execute([b"HSET", b"h", b"f", b"2.5"])
    program = parse_program(source)
    report = check_program(program, initial)
    assert isinstance(report, CheckOk)
    assert report.results[2] == MaybeResult(FLOAT)
    outcome = run_program(program, report, MemoryBackend(store))
    assert outcome == RunValue(MaybeResult(RecordRef("Message")), RecordValue("Message", ("hi", 42)))
    assert store.execute([b"LLEN", b"queue"]).value == 0


class _FloatReplies:
    """A server whose INCRBYFLOAT replies carry ``data`` instead of the sum."""

    def __init__(self, data):
        self.data = data
        self.inner = MemoryBackend()

    def send(self, argv):
        reply = self.inner.send(argv)
        return BulkReply(self.data) if argv[0] == b"INCRBYFLOAT" else reply


INCRBYFLOAT_SOURCE = "program { set k 1.5  incrbyfloat k 1.0 }"


@pytest.mark.parametrize("data", [b"nan", b"inf", b"-inf", b"1e999", b" 1_0 ", b"1_0", b"\xd9\xa1"])
def test_a_float_reply_outside_the_store_grammar_is_a_decode_failure(data):
    outcome = run_source(INCRBYFLOAT_SOURCE, _FloatReplies(data))
    assert isinstance(outcome, RunError)
    assert outcome.message.startswith("DECODE cannot decode")
    assert outcome.message.endswith("as float")


@pytest.mark.parametrize("data, value", [(b"3", 3.0), (b"2.5", 2.5), (b"2.5e3", 2500.0), (b"-.5", -0.5)])
def test_a_float_reply_in_the_store_grammar_decodes(data, value):
    assert run_source(INCRBYFLOAT_SOURCE, _FloatReplies(data)) == RunValue(FLOAT_RESULT, value)


def test_an_unfit_reply_names_the_result_type_as_reports_spell_it():
    with pytest.raises(ProtocolError, match=r"^reply IntReply\(1\) does not fit result type status$"):
        backend_module._decode_reply(IntReply(1), STATUS, {})
    with pytest.raises(ProtocolError, match=r"does not fit result type maybe<int>$"):
        backend_module._decode_reply(IntReply(1), MaybeResult(INT), {})
    with pytest.raises(ProtocolError, match=r"^reply BulkReply\(None\) does not fit result type double$"):
        backend_module._decode_reply(BulkReply(None), FLOAT_RESULT, {})


def test_a_record_literal_the_codec_cannot_spell_is_refused_not_written():
    # The checker types a non-finite float literal as float, which only a
    # built tree can hold; the run must not store b"inf" where a Point goes.
    program = parse_program("record Point { x: float, y: float }\nprogram { set k Point{ 1.5, 2.5 } }")
    cmd = program.body[0]
    point = RecordLit("Point", (FloatLit(math.inf), FloatLit(1.0)))
    program = program._replace(body=(cmd._replace(args=(point,)),))
    report = check_program(program)
    assert isinstance(report, CheckOk)
    store = MemoryStore()
    with pytest.raises(ValueError, match="is not a value of record 'Point'"):
        run_program(program, report, MemoryBackend(store))
    assert store.execute([b"GET", b"k"]) == BulkReply(None)


class _RpopReplies:
    """A server whose RPOP replies carry ``data`` instead of the popped element."""

    def __init__(self, data):
        self.data = data
        self.inner = MemoryBackend()

    def send(self, argv):
        reply = self.inner.send(argv)
        return BulkReply(self.data) if argv[0] == b"RPOP" else reply


@pytest.mark.parametrize(
    "data",
    [b'{"body":"hello","id":' + b"7" * 5000 + b"}", b'{"body":"hel\nlo","id":1}'],
    ids=["5000-digit-id", "raw-newline"],
)
def test_a_record_reply_the_codec_refuses_exits_4_through_the_cli(data, tmp_path, monkeypatch, capsys):
    path = tmp_path / "queue.rt"
    path.write_text(QUEUE_SOURCE, encoding="utf-8")
    monkeypatch.setattr(cli, "_open_backend", lambda args: _RpopReplies(data))
    assert cli.main(["run", str(path)]) == cli.EXIT_RUNTIME_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"runtime error at 9:3: DECODE cannot decode {quote(data)} as Message (not a JSON object)\n"


# Literals at the edges of each base's domain, as the literal constructors build them.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
).map(FloatLit)
_EDGE_LITERALS = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MAX, -1, 0, 1]).map(IntLit),
    st.integers(INT64_MIN, INT64_MAX).map(IntLit),
    _EDGE_FLOATS,
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "\U0001f600", 'a"b\\c\n\td\x1b']).map(TextLit),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).map(TextLit),
    st.booleans().map(BoolLit),
)
_TWO_KEYS = st.sampled_from(["a", "b"])


@st.composite
def _edge_command(draw):
    op = draw(st.sampled_from(["set", "get", "lpush", "rpop", "sadd", "sinter", "hset", "hget", "incr", "incrbyfloat"]))
    n_keys, has_field, n_values, _ = COMMAND_SHAPES[op]
    keys = tuple(draw(_TWO_KEYS) for _ in range(n_keys))
    field = draw(st.sampled_from(["f", "g"])) if has_field else None
    args = tuple(draw(_EDGE_FLOATS if op == "incrbyfloat" else _EDGE_LITERALS) for _ in range(n_values))
    return Command(op, keys, args, field)


@settings(max_examples=300, deadline=None)
@given(st.lists(_edge_command(), min_size=1, max_size=5), st.booleans())
def test_accepted_programs_of_edge_literals_run_clean_on_mem(body, strict):
    # Redis's own overflow replies are not failures of the guarantee; every other
    # error reply, a DECODE in strict mode and any exception are.
    kind, message = _trial(Program((), tuple(body)), strict)
    if kind == "other":
        assert message in (OVERFLOW_MSG, NONFINITE_MSG)
    else:
        assert kind not in _GATING[strict], message
