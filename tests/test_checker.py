"""Rule-by-rule checker behavior, constraint identifiers, and program folding."""

from __future__ import annotations

import copy
import pickle
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from redtype.checker import (
    BOOL_RESULT,
    FLOAT_RESULT,
    INT_RESULT,
    STATUS,
    UNIT,
    CheckError,
    CheckOk,
    ListResult,
    MaybeResult,
    check_command,
    check_program,
    infer_expr,
    matches,
    result_text,
)
from redtype import checker, typedict
from redtype.fuzz import _KEYS, RECORD_POOL, _Generator, generate_program
from redtype.parser import parse_program
from redtype.store import NOT_FLOAT_MSG, NOT_INT_MSG, ErrReply, MemoryStore
from redtype.syntax import (
    BOOL,
    FLOAT,
    INT,
    TEXT,
    BoolLit,
    Command,
    FloatLit,
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
    OPCODES,
    hash_of,
    record_table,
)

MESSAGE = RecordDecl("Message", (("body", TEXT), ("id", INT)))
RECORDS = {"Message": MESSAGE}


def check1(xs, cmd, env=None, records=None, strict=False):
    return check_command(xs, env or {}, records if records is not None else RECORDS, cmd, strict)


def rejects(xs, cmd, constraint, env=None, strict=False):
    with pytest.raises(CheckError) as exc:
        check1(xs, cmd, env=env, strict=strict)
    assert exc.value.constraint == constraint, exc.value
    return exc.value


# ---------------------------------------------------------------------------
# expression inference


def test_infer_literals():
    assert infer_expr({}, {}, IntLit(1992)) == INT
    assert infer_expr({}, {}, FloatLit(1.5)) == FLOAT
    assert infer_expr({}, {}, BoolLit(True)) == BOOL
    assert infer_expr({}, {}, TextLit("x")) == TEXT


def test_infer_record_literal():
    e = RecordLit("Message", (TextLit("hello"), Var("i")))
    assert infer_expr({"i": INT_RESULT}, RECORDS, e) == RecordRef("Message")


def test_infer_scalar_binders():
    env = {"n": INT_RESULT, "f": FLOAT_RESULT, "b": BOOL_RESULT}
    assert infer_expr(env, {}, Var("n")) == INT
    assert infer_expr(env, {}, Var("f")) == FLOAT
    assert infer_expr(env, {}, Var("b")) == BOOL


@pytest.mark.parametrize(
    "env, expr, constraint",
    [
        ({}, Var("ghost"), "UnknownVariable"),
        ({"m": MaybeResult(TEXT)}, Var("m"), "ElementTypeMismatch"),
        ({"l": ListResult(INT)}, Var("l"), "ElementTypeMismatch"),
        ({"s": STATUS}, Var("s"), "ElementTypeMismatch"),
        ({"u": UNIT}, Var("u"), "ElementTypeMismatch"),
        ({}, RecordLit("Ghost", ()), "UnknownRecord"),
        ({}, RecordLit("Message", (TextLit("x"),)), "ArityMismatch"),
        ({}, RecordLit("Message", (IntLit(1), IntLit(2))), "ElementTypeMismatch"),
        ({}, RecordLit("Message", (TextLit("x"), FloatLit(1.0))), "ElementTypeMismatch"),
    ],
)
def test_infer_errors(env, expr, constraint):
    with pytest.raises(CheckError) as exc:
        infer_expr(env, RECORDS, expr)
    assert exc.value.constraint == constraint


def test_bool_int_literals_are_not_interchangeable():
    # bool fields take bools only, int fields take ints only
    flag = RecordDecl("Flag", (("armed", BOOL),))
    with pytest.raises(CheckError):
        infer_expr({}, {"Flag": flag}, RecordLit("Flag", (IntLit(1),)))
    with pytest.raises(CheckError):
        infer_expr({}, RECORDS, RecordLit("Message", (TextLit("x"), BoolLit(True))))


# ---------------------------------------------------------------------------
# command transfer rules


def test_ping_keeps_dictionary():
    assert check1([], Command("ping")) == ([], STATUS)


def test_set_tracks_string_of_inferred_type():
    xs, rt = check1([], Command("set", keys=("k",), args=(TextLit("foo"),)))
    assert xs == [("k", StringOf(TEXT))]
    assert rt is STATUS
    xs, _ = check1(xs, Command("set", keys=("k",), args=(IntLit(1),)))
    assert xs == [("k", StringOf(INT))]


def test_setnx_on_untracked_key_tracks_it():
    xs, rt = check1([], Command("setnx", keys=("k",), args=(IntLit(1),)))
    assert xs == [("k", StringOf(INT))]
    assert rt is BOOL_RESULT


def test_setnx_on_tracked_key_requires_matching_tag():
    xs = [("k", StringOf(INT))]
    out, rt = check1(xs, Command("setnx", keys=("k",), args=(IntLit(2),)))
    assert out == xs and rt is BOOL_RESULT
    rejects(xs, Command("setnx", keys=("k",), args=(TextLit("x"),)), "GetEquality-failed")
    rejects(
        [("k", ListOf(INT))],
        Command("setnx", keys=("k",), args=(IntLit(1),)),
        "GetEquality-failed",
    )


def test_get_needs_tracked_string():
    xs = [("k", StringOf(FLOAT))]
    out, rt = check1(xs, Command("get", keys=("k",)))
    assert out == xs and rt == MaybeResult(FLOAT)
    rejects([], Command("get", keys=("k",)), "GetStuck")
    rejects([("k", ListOf(INT))], Command("get", keys=("k",)), "GetEquality-failed")


def test_del_untracks_and_is_total():
    xs, rt = check1([("k", StringOf(INT))], Command("del", keys=("k",)))
    assert xs == [] and rt is INT_RESULT
    assert check1([], Command("del", keys=("k",)))[0] == []


def test_incr_requires_string_int():
    xs = [("c", StringOf(INT))]
    assert check1(xs, Command("incr", keys=("c",))) == (xs, INT_RESULT)
    rejects([], Command("incr", keys=("c",)), "GetStuck")
    rejects([("c", StringOf(TEXT))], Command("incr", keys=("c",)), "GetEquality-failed")
    rejects([("c", SetOf(INT))], Command("incr", keys=("c",)), "GetEquality-failed")


def test_incrbyfloat_requires_string_float_and_float_increment():
    xs = [("x", StringOf(FLOAT))]
    out, rt = check1(xs, Command("incrbyfloat", keys=("x",), args=(FloatLit(0.5),)))
    assert out == xs and rt is FLOAT_RESULT
    rejects(xs, Command("incrbyfloat", keys=("x",), args=(IntLit(1),)), "ElementTypeMismatch")
    rejects(
        [("x", StringOf(INT))],
        Command("incrbyfloat", keys=("x",), args=(FloatLit(0.5),)),
        "GetEquality-failed",
    )
    rejects([], Command("incrbyfloat", keys=("x",), args=(FloatLit(0.5),)), "GetStuck")


def test_lpush_on_absent_or_list_key():
    xs, rt = check1([], Command("lpush", keys=("q",), args=(IntLit(1),)))
    assert xs == [("q", ListOf(INT))] and rt is INT_RESULT
    # element overwrite allowed by default
    xs2, _ = check1(xs, Command("lpush", keys=("q",), args=(TextLit("x"),)))
    assert xs2 == [("q", ListOf(TEXT))]
    rejects(
        [("q", StringOf(INT))], Command("lpush", keys=("q",), args=(IntLit(1),)), "ListOrNX-violated"
    )


def test_llen_on_absent_or_list_key():
    assert check1([], Command("llen", keys=("q",))) == ([], INT_RESULT)
    xs = [("q", ListOf(TEXT))]
    assert check1(xs, Command("llen", keys=("q",))) == (xs, INT_RESULT)
    rejects([("q", SetOf(TEXT))], Command("llen", keys=("q",)), "ListOrNX-violated")


def test_rpop_requires_tracked_list():
    xs = [("q", ListOf(RecordRef("Message")))]
    out, rt = check1(xs, Command("rpop", keys=("q",)))
    assert out == xs and rt == MaybeResult(RecordRef("Message"))
    rejects([], Command("rpop", keys=("q",)), "GetStuck")
    rejects([("q", StringOf(TEXT))], Command("rpop", keys=("q",)), "GetEquality-failed")


def test_sadd_on_absent_or_set_key():
    xs, rt = check1([], Command("sadd", keys=("s",), args=(TextLit("a"),)))
    assert xs == [("s", SetOf(TEXT))] and rt is INT_RESULT
    rejects(
        [("s", StringOf(TEXT))], Command("sadd", keys=("s",), args=(TextLit("a"),)), "SetOrNX-violated"
    )


def test_sinter_requires_two_sets_of_equal_element_type():
    xs = [("a", SetOf(TEXT)), ("b", SetOf(TEXT))]
    out, rt = check1(xs, Command("sinter", keys=("a", "b")))
    assert out == xs and rt == ListResult(TEXT)
    rejects(xs, Command("sinter", keys=("a", "missing")), "GetStuck")
    rejects(
        [("a", SetOf(TEXT)), ("b", SetOf(INT))],
        Command("sinter", keys=("a", "b")),
        "GetEquality-failed",
    )
    rejects(
        [("a", ListOf(TEXT)), ("b", SetOf(TEXT))],
        Command("sinter", keys=("a", "b")),
        "GetEquality-failed",
    )


def test_hset_tracks_field_tag():
    xs, rt = check1([], Command("hset", keys=("h",), args=(IntLit(1),), field_name="f"))
    assert xs == [("h", hash_of(("f", StringOf(INT))))]
    assert rt is BOOL_RESULT
    # second field appends, first field overwrite retypes in place
    xs, _ = check1(xs, Command("hset", keys=("h",), args=(TextLit("x"),), field_name="g"))
    assert xs == [("h", hash_of(("f", StringOf(INT)), ("g", StringOf(TEXT))))]
    xs, _ = check1(xs, Command("hset", keys=("h",), args=(BoolLit(True),), field_name="f"))
    assert xs == [("h", hash_of(("f", StringOf(BOOL)), ("g", StringOf(TEXT))))]
    rejects(
        [("h", StringOf(INT))],
        Command("hset", keys=("h",), args=(IntLit(1),), field_name="f"),
        "HashOrNX-violated",
    )


def test_hget_requires_tracked_field():
    xs = [("h", hash_of(("f", StringOf(INT))))]
    out, rt = check1(xs, Command("hget", keys=("h",), field_name="f"))
    assert out == xs and rt == MaybeResult(INT)
    rejects(xs, Command("hget", keys=("h",), field_name="g"), "GetStuck")
    rejects([], Command("hget", keys=("h",), field_name="f"), "GetStuck")
    rejects(
        [("h", StringOf(INT))], Command("hget", keys=("h",), field_name="f"), "GetStuck"
    )


def test_declare_requires_fresh_key():
    xs, rt = check1([], Command("declare", keys=("k",), declared=StringOf(INT)))
    assert xs == [("k", StringOf(INT))] and rt is UNIT
    rejects(xs, Command("declare", keys=("k",), declared=StringOf(INT)), "NotMember-violated")


def test_declare_validates_record_references():
    cmd = Command("declare", keys=("k",), declared=ListOf(RecordRef("Ghost")))
    rejects([], cmd, "UnknownRecord")
    nested = Command(
        "declare", keys=("k",), declared=hash_of(("f", StringOf(RecordRef("Ghost"))))
    )
    rejects([], nested, "UnknownRecord")


def test_strict_mode_blocks_container_retyping():
    lists = [("q", ListOf(INT))]
    rejects(
        lists,
        Command("lpush", keys=("q",), args=(TextLit("x"),)),
        "ElementTypeMismatch",
        strict=True,
    )
    sets = [("s", SetOf(INT))]
    rejects(
        sets,
        Command("sadd", keys=("s",), args=(TextLit("x"),)),
        "ElementTypeMismatch",
        strict=True,
    )
    # matching element types stay fine, absent keys too
    assert check1(lists, Command("lpush", keys=("q",), args=(IntLit(1),)), strict=True)[0] == lists
    assert check1([], Command("lpush", keys=("q",), args=(TextLit("x"),)), strict=True)[0] == [
        ("q", ListOf(TEXT))
    ]


def test_error_message_carries_span_opcode_constraint():
    cmd = Command("incr", keys=("c",), span=Span(7, 3))
    err = rejects([], cmd, "GetStuck")
    assert err.span == Span(7, 3)
    assert err.opcode == "incr"
    assert str(err).startswith("7:3: GetStuck: incr: ")


def test_unknown_opcode_is_an_arity_mismatch():
    # only the API can build a command outside the command set
    report = check_program(Program((), (Command("bogus"),)))
    assert isinstance(report, CheckError)
    assert report.constraint == "ArityMismatch"
    assert str(report) == "1:1: ArityMismatch: bogus: unknown command 'bogus'"


# ---------------------------------------------------------------------------
# whole programs


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


def test_queue_program_checks():
    report = check_program(parse_program(QUEUE_SOURCE))
    assert isinstance(report, CheckOk)
    assert report.final == [
        ("counter", StringOf(INT)),
        ("queue", ListOf(RecordRef("Message"))),
    ]
    assert report.result == MaybeResult(RecordRef("Message"))
    assert result_text(report.result) == "maybe<Message>"


def test_set_then_sadd_is_rejected_where_the_sadd_is():
    source = 'program {\n  set some-string "foo"\n  sadd some-string "bar"\n}\n'
    report = check_program(parse_program(source))
    assert isinstance(report, CheckError)
    assert report.constraint == "SetOrNX-violated"
    assert report.span == Span(3, 3)
    assert report.opcode == "sadd"


def test_incr_on_undeclared_key_is_get_stuck():
    report = check_program(parse_program("program {\n  n <- incr counter\n}\n"))
    assert isinstance(report, CheckError)
    assert report.constraint == "GetStuck"
    assert report.span == Span(2, 8)


def test_double_declare_rejected():
    source = "program { declare k : string<int>  declare k : string<int> }"
    report = check_program(parse_program(source))
    assert isinstance(report, CheckError)
    assert report.constraint == "NotMember-violated"


def test_ping_only_program():
    report = check_program(parse_program("program { ping }"))
    assert isinstance(report, CheckOk)
    assert report.final == [] and report.result is STATUS


def test_initial_dictionary_is_honored_and_recorded():
    program = parse_program("program { n <- incr c }")
    initial = [("c", StringOf(INT))]
    report = check_program(program, initial)
    assert isinstance(report, CheckOk)
    assert report.initial == initial
    assert report.final == initial
    assert report.result is INT_RESULT


def test_binder_feeds_later_expressions():
    source = "program { n <- incr c  set out n }"
    report = check_program(parse_program(source), [("c", StringOf(INT))])
    assert isinstance(report, CheckOk)
    assert ("out", StringOf(INT)) in report.final


def test_maybe_binder_cannot_be_reused():
    source = "program { m <- rpop q  set out m }"
    report = check_program(parse_program(source), [("q", ListOf(INT))])
    assert isinstance(report, CheckError)
    assert report.constraint == "ElementTypeMismatch"


def test_first_error_wins():
    source = "program { incr a  incr b }"
    report = check_program(parse_program(source))
    assert isinstance(report, CheckError)
    assert "'a'" in report.detail


def test_result_text_spellings():
    assert result_text(STATUS) == "status"
    assert result_text(INT_RESULT) == "integer"
    assert result_text(FLOAT_RESULT) == "double"
    assert result_text(BOOL_RESULT) == "boolean"
    assert result_text(UNIT) == "unit"
    assert result_text(MaybeResult(INT)) == "maybe<int>"
    assert result_text(ListResult(RecordRef("M"))) == "list<M>"


# ---------------------------------------------------------------------------
# structural invariants, exercised on generator output


def _entries_except(xs, k):
    return [(key, tag) for key, tag in xs if key != k]


def test_growth_discipline_post_dict_changes_only_at_the_command_key():
    rng = random.Random(77)
    for _ in range(300):
        p = generate_program(rng, max_len=15, ill_typed_rate=0.0)
        records = record_table(p)
        xs: list[tuple[str, TypeTag]] = []
        env: dict = {}
        for cmd in p.body:
            out, rt = check_command(xs, env, records, cmd)
            if cmd.keys:
                k = cmd.keys[0]
                assert _entries_except(out, k) == _entries_except(xs, k), cmd
            else:
                assert out == xs
            if cmd.binder is not None:
                env[cmd.binder] = rt
            xs = out


def test_final_dictionaries_have_no_duplicate_keys():
    rng = random.Random(78)
    for _ in range(300):
        p = generate_program(rng, max_len=15, ill_typed_rate=0.0)
        report = check_program(p)
        assert isinstance(report, CheckOk)
        keys = [k for k, _ in report.final]
        assert len(keys) == len(set(keys))


def test_checker_is_total_on_generated_programs():
    rng = random.Random(79)
    for _ in range(400):
        p = generate_program(rng, max_len=10, ill_typed_rate=0.5)
        report = check_program(p)  # must not raise
        assert isinstance(report, (CheckOk, CheckError))


# targeted monotone-rejection cases: dropping an unrelated prefix command
# does not rescue a rejected program


def test_rejection_survives_removal_of_unrelated_prefix():
    base = "program { set other 1  incr missing }"
    shorter = "program { incr missing }"
    for src in (base, shorter):
        report = check_program(parse_program(src))
        assert isinstance(report, CheckError)
        assert report.constraint == "GetStuck"


def test_rejection_can_depend_on_prefix_at_the_same_key():
    # Here removing the prefix changes the dictionary at the key, so the
    # verdict legitimately flips.
    rejected = check_program(parse_program('program { set k "v"  sadd k "x" }'))
    accepted = check_program(parse_program('program { sadd k "x" }'))
    assert isinstance(rejected, CheckError)
    assert isinstance(accepted, CheckOk)


# ---------------------------------------------------------------------------
# the threaded dict agrees with the paper's list operations


def _spec_fold(initial, program, results):
    """Final dictionary by typedict's list operations, keyed by opcode."""
    records = record_table(program)
    xs = list(initial)
    env: dict = {}
    for cmd, rt in zip(program.body, results):
        k = cmd.keys[0] if cmd.keys else None
        a = infer_expr(env, records, cmd.args[0]) if cmd.args else None
        if cmd.opcode == "declare":
            xs = typedict.dict_set(xs, k, cmd.declared)
        elif cmd.opcode == "set" or (cmd.opcode == "setnx" and not typedict.dict_member(xs, k)):
            xs = typedict.dict_set(xs, k, StringOf(a))
        elif cmd.opcode == "lpush":
            xs = typedict.dict_set(xs, k, ListOf(a))
        elif cmd.opcode == "sadd":
            xs = typedict.dict_set(xs, k, SetOf(a))
        elif cmd.opcode == "del":
            xs = typedict.dict_del(xs, k)
        elif cmd.opcode == "hset":
            xs = typedict.hash_set(xs, k, cmd.field_name, StringOf(a))
        if cmd.binder is not None:
            env[cmd.binder] = rt
    return xs


def _random_start(gen: _Generator, rng: random.Random):
    if rng.random() < 0.3:
        return []
    keys = rng.sample(_KEYS + tuple(f"k{i}" for i in range(12)), rng.randint(1, 12))
    return [(k, gen.random_tag()) for k in keys]


def test_check_program_final_equals_the_typedict_fold_in_order():
    rng = random.Random(404)
    starts_nonempty = 0
    for _ in range(1200):
        gen = _Generator(rng, strict=rng.random() < 0.3)
        initial = _random_start(gen, rng)
        starts_nonempty += bool(initial)
        gen.xs = list(initial)
        body = []
        for _ in range(rng.randint(1, 16)):
            cmd, _ = gen.step(ill_typed=False)
            before = list(gen.xs)
            xs, rt = check_command(gen.xs, gen.env, gen.records, cmd, gen.strict)
            assert gen.xs == before, "check_command must not mutate its input"
            gen.xs = xs
            if cmd.binder is not None:
                gen.bind(cmd.binder, rt)
            body.append(cmd)
        program = Program(RECORD_POOL, tuple(body))
        report = check_program(program, initial, strict=gen.strict)
        assert isinstance(report, CheckOk), report
        assert report.initial == initial
        assert report.final == _spec_fold(initial, program, report.results)
        assert report.final == gen.xs
    assert starts_nonempty > 600


def test_duplicate_keyed_dictionary_raises_value_error():
    twice = [("k", StringOf(INT)), ("j", SetOf(TEXT)), ("k", ListOf(INT))]
    with pytest.raises(ValueError, match="'k' occurs twice"):
        check_program(parse_program("program { del k }"), twice)
    with pytest.raises(ValueError, match="'k' occurs twice"):
        check1(twice, Command("ping"))


@pytest.mark.parametrize("tag", [StringOf(RecordRef("Ghost")), hash_of(("f", StringOf(RecordRef("Ghost"))))])
def test_a_dictionary_naming_an_undeclared_record_raises_value_error(tag):
    # Accepting it would let the run reach the record's coder and fail with a KeyError.
    program = parse_program("program { x <- get k }")
    with pytest.raises(ValueError, match=r"^the tag assumed for key 'k' names record 'Ghost', which is not declared$"):
        check_program(program, [("j", StringOf(INT)), ("k", tag)])


def test_duplicate_key_named_is_the_earliest_that_occurs_again():
    xs = [("a", StringOf(INT)), ("b", StringOf(INT)), ("b", StringOf(INT)), ("a", StringOf(INT))]
    with pytest.raises(ValueError, match="key 'a' occurs twice"):
        check1(xs, Command("ping"))


# One accepted command per opcode, checked from LOOKUP_START.
LOOKUP_START = [
    ("n", StringOf(INT)),
    ("x", StringOf(FLOAT)),
    ("q", ListOf(INT)),
    ("s", SetOf(INT)),
    ("t", SetOf(INT)),
    ("h", hash_of(("f", StringOf(INT)))),
]
ONE_OF_EACH = [
    "ping",
    "set n 1",
    "setnx n 2",
    "get n",
    "del n",
    "incr n",
    "incrbyfloat x 1.5",
    "lpush q 1",
    "llen q",
    "rpop q",
    "sadd s 1",
    "sinter s t",
    "hset h f 1",
    "hget h f",
    "declare fresh : string<int>",
]


def test_one_of_each_covers_every_opcode():
    assert {line.split()[0] for line in ONE_OF_EACH} == OPCODES


@pytest.mark.parametrize("line", ONE_OF_EACH)
def test_every_rule_reads_exactly_its_keys_through_the_lookup(monkeypatch, line):
    read = []
    real = checker._lookup

    def lookup(xs, k, *rest):
        read.append(k)
        return real(xs, k, *rest)

    monkeypatch.setattr(checker, "_lookup", lookup)
    (cmd,) = parse_program(f"program {{ {line} }}").body
    assert isinstance(check_program(Program((), (cmd,)), LOOKUP_START), CheckOk)
    assert read == ([] if cmd.opcode in ("ping", "set", "del") else list(cmd.keys))


def test_duplicate_key_search_is_linear():
    xs = [(f"k{i}", StringOf(INT)) for i in range(20_000)]
    xs.append(xs[-1])
    program = parse_program("program { ping }")
    for check in (lambda: check_program(program, xs), lambda: check1(xs, Command("ping"))):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="key 'k19999' occurs twice"):
            check()
        assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# the premise: what was read from a store against a starting dictionary


def _read(store):
    """``matches``' view of a MemoryStore: each key's kind and raw payload."""
    raw = lambda s: s.encode("latin-1")  # noqa: E731
    out = {}
    for entry in store.snapshot():
        value = entry["value"]
        if entry["type"] == "string":
            value = raw(value)
        elif entry["type"] == "hash":
            value = {f: raw(v) for f, v in value.items()}
        else:
            value = [raw(v) for v in value]
        out[entry["key"]] = (entry["type"], value)
    return out


def _holding(*argvs):
    store = MemoryStore()
    for argv in argvs:
        store.execute([a if isinstance(a, bytes) else a.encode() for a in argv])
    return _read(store)


def _message(id_spelling):
    return b'{"body":"hi","id":' + id_spelling + b"}"


@pytest.mark.parametrize(
    "value, fits",
    [
        (str(2**63 - 1), True),
        (str(-(2**63)), True),
        (str(2**63), False),
        (str(-(2**63) - 1), False),
        ("99999999999999999999", False),
        ("007", False),
        ("-0", False),
        ("1.5", False),
    ],
)
def test_a_stored_string_int_matches_only_as_a_canonical_int64(value, fits):
    read = _holding(["SET", "k", value])
    assert matches(read, [("k", StringOf(INT))], ["k"], strict=False) is fits


def test_the_int64_probe_store_checks_clean_but_is_outside_the_premise():
    program = parse_program("program { declare k : string<int>  n <- get k  incr k }")
    assert isinstance(check_program(program), CheckOk)
    read = _holding(["SET", "k", "99999999999999999999"])
    assert not matches(read, [("k", StringOf(INT))], ["k"], strict=False)


@pytest.mark.parametrize("id_value, fits", [(2**63 - 1, True), (-(2**63), True), (2**63, False), (-(2**63) - 1, False)])
def test_a_record_int_field_matches_only_as_an_int64(id_value, fits):
    payload = _message(str(id_value).encode())
    for read, xs in [
        (_holding(["SET", "m", payload]), [("m", StringOf(RecordRef("Message")))]),
        (_holding(["HSET", "h", "f", payload]), [("h", hash_of(("f", StringOf(RecordRef("Message")))))]),
    ]:
        assert matches(read, xs, ["m", "h"], strict=False, records=RECORDS) is fits
    read = _holding(["LPUSH", "q", payload])
    assert matches(read, [("q", ListOf(RecordRef("Message")))], ["q"], strict=True, records=RECORDS) is fits


@pytest.mark.parametrize("digits", [5_000, 1_000_000])
def test_a_long_int_is_refused_by_its_length_in_bounded_time(digits):
    # int() refuses 5,000 digits only through the interpreter's default
    # limit on digits, which can be lifted, and then reads a million
    # digits in seconds; the bound must depend on neither
    spelling = b"9" * digits
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = time.perf_counter()
        assert not matches(_holding(["SET", "k", spelling]), [("k", StringOf(INT))], ["k"], strict=False)
        read = _holding(["SET", "m", _message(spelling)])
        assert not matches(read, [("m", StringOf(RecordRef("Message")))], ["m"], False, RECORDS)
        assert time.perf_counter() - t0 < 0.5
    finally:
        sys.set_int_max_str_digits(previous)


# Stored spellings at the edges of what INCR reads: signs, zeros, blanks,
# separators, non-ASCII digits, the int64 bounds and beyond, long digit runs.
_EDGE_SPELLINGS = [
    b"0", b"-0", b"007", b"+5", b" 5", b"1_0", b"", b"1.5", "\u0661\u0662".encode(),
    *(b"%d" % n for n in (2**63 - 1, -(2**63 - 1), -(2**63), 2**63, -(2**63) - 1)),
    b"9" * 20, b"9" * 5_000,
]


def _premise_agrees_with_the_store(value):
    """``matches`` takes ``value`` as string<int> iff INCR reads it, and as string<float> only if INCRBYFLOAT does."""
    store = MemoryStore()
    store.execute([b"SET", b"k", value])
    read = _read(store)
    incr = store.execute([b"INCR", b"k"])
    assert matches(read, [("k", StringOf(INT))], ["k"], strict=False) is (incr != ErrReply(NOT_INT_MSG))
    store.execute([b"SET", b"k", value])
    if matches(read, [("k", StringOf(FLOAT))], ["k"], strict=False):
        assert store.execute([b"INCRBYFLOAT", b"k", b"1.5"]) != ErrReply(NOT_FLOAT_MSG)


@pytest.mark.parametrize("value", _EDGE_SPELLINGS, ids=lambda v: repr(v[:24]))
def test_the_premise_reads_a_stored_number_as_the_store_does(value):
    _premise_agrees_with_the_store(value)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(-(2**65), 2**65).map(lambda n: b"%d" % n),
        st.from_regex(rb"\A[-+ ]?0?[0-9]{1,21}(\.[0-9]*)?\Z"),
        st.floats(allow_nan=False).map(lambda f: repr(f).encode()),
        st.binary(max_size=22),
    )
)
def test_the_premise_reads_drawn_numbers_as_the_store_does(value):
    _premise_agrees_with_the_store(value)


def test_each_named_key_is_absent_or_tracked_with_its_kind():
    xs = [("k", StringOf(INT)), ("q", ListOf(INT))]
    assert matches({}, xs, ["k", "q", "other"], strict=True)
    assert matches(_holding(["SET", "k", "1"], ["LPUSH", "q", "2"]), xs, ["k", "q"], strict=True)
    # present but untracked
    assert not matches(_holding(["SET", "other", "1"]), xs, ["other"], strict=False)
    # present with another kind
    assert not matches(_holding(["SADD", "q", "1"]), xs, ["q"], strict=False)
    # keys the program does not name are not judged
    assert matches(_holding(["SADD", "q", "1"]), xs, ["k"], strict=False)


def test_a_key_named_twice_in_a_list_dictionary_is_refused():
    twice = [("k", StringOf(INT)), ("k", ListOf(INT))]
    with pytest.raises(ValueError, match="'k' occurs twice"):
        matches({"k": ("list", [b"1"])}, twice, ["k"], False)
    assert matches({"k": ("list", [b"1"])}, dict(twice), ["k"], False)


def test_hash_fields_decode_where_tracked():
    xs = [("h", hash_of(("f", StringOf(INT))))]
    assert matches(_holding(["HSET", "h", "g", "text"]), xs, ["h"], strict=False)
    assert matches(_holding(["HSET", "h", "f", "12"]), xs, ["h"], strict=False)
    assert not matches(_holding(["HSET", "h", "f", "1.5"]), xs, ["h"], strict=False)
    assert not matches(_holding(["HSET", "h", "f", str(2**63)]), xs, ["h"], strict=False)


def test_container_elements_decode_in_strict_mode_only():
    for kind, push in (("list", "LPUSH"), ("set", "SADD")):
        tag = ListOf(INT) if kind == "list" else SetOf(INT)
        stale = _holding([push, "c", "1"], [push, "c", "x"])
        assert matches(stale, [("c", tag)], ["c"], strict=False)
        assert not matches(stale, [("c", tag)], ["c"], strict=True)
        big = _holding([push, "c", str(2**63)])
        assert not matches(big, [("c", tag)], ["c"], strict=True)
        assert matches(_holding([push, "c", "1"]), [("c", tag)], ["c"], strict=True)


def test_a_returned_check_error_holds_no_frames():
    # A traceback would hold the caller's frame, and the caller the error: a
    # cycle that only the cyclic collector frees, program and all.
    report = check_program(parse_program("program { set k 1  get j }"))
    assert isinstance(report, CheckError)
    assert report.__traceback__ is None
    assert str(report) == "1:20: GetStuck: get: key 'j' is not in the dictionary"


def test_a_rejection_survives_copy_and_pickle():
    report = check_program(parse_program("program { set k 1  get j }"))
    assert isinstance(report, CheckError)
    for clone in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(clone) is CheckError
        assert str(clone) == str(report)
        assert (clone.span, clone.opcode, clone.constraint) == (report.span, report.opcode, report.constraint)


def test_the_rules_raise_span_less_errors_that_their_reporting_callers_locate():
    cmd = parse_program("program {\n  ping\n  get j\n}").body[1]
    with pytest.raises(CheckError) as exc:
        checker._step({}, {}, {}, cmd, False)
    assert (exc.value.span, exc.value.opcode) == (None, None)
    assert str(exc.value) == "GetStuck: key 'j' is not in the dictionary"
    with pytest.raises(CheckError) as exc:
        check_command([], {}, {}, cmd)
    assert (exc.value.span, exc.value.opcode) == (cmd.span, "get")
    assert str(exc.value) == "3:3: GetStuck: get: key 'j' is not in the dictionary"


def test_hget_of_a_field_whose_tag_is_not_a_string_is_get_equality():
    # The parser allows only string<...> field tags; an assumed dictionary is built directly.
    initial = [("h", hash_of(("f", ListOf(INT))))]
    report = check_program(parse_program("program {\n  hget h f\n}"), initial)
    assert isinstance(report, CheckError)
    assert report.constraint == "GetEquality-failed"
    assert str(report) == "2:3: GetEquality-failed: hget: field 'f' of 'h' holds list<int>, not a string"
