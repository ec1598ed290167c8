"""Execution: decoding per result type, binder flow, wire discipline,
and memory-vs-loopback-server equivalence."""

from __future__ import annotations

import inspect
import random

import pytest

from redtype import backend as backend_module, checker, typedict
from redtype.backend import (
    MemoryBackend,
    RespBackend,
    RunError,
    RunValue,
    run_program,
)
from redtype.checker import INT_RESULT, UNIT, CheckOk, MaybeResult, check_program
from redtype.codec import RecordValue
from redtype.fuzz import generate_program
from redtype.parser import parse_program
from redtype.store import MemoryStore
from redtype.syntax import FLOAT, INT, HashOf, ListOf, RecordRef, StringOf

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


def test_run_program_makes_no_checker_or_dictionary_calls(monkeypatch):
    rng = random.Random(7)
    programs = [parse_program(QUEUE_SOURCE)] + [generate_program(rng, max_len=12) for _ in range(60)]
    cases = [(p, r) for p in programs if isinstance(r := check_program(p), CheckOk)]
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
