"""Rule-by-rule checker behavior, constraint identifiers, and program folding."""

from __future__ import annotations

import random

import pytest

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
    result_text,
)
from redtype import typedict
from redtype.fuzz import _KEYS, RECORD_POOL, _Generator, generate_program
from redtype.parser import parse_program
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
                gen.env[cmd.binder] = rt
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
