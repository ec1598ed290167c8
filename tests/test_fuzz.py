"""The differential fuzzer: determinism, generator soundness, shrinking."""

from __future__ import annotations

import hashlib
import random

import pytest

from redtype import checker, fuzz
from redtype.backend import RunError
from redtype.checker import BOOL_RESULT, GET_STUCK, INT_RESULT, STATUS, CheckError, CheckOk, check_program
from redtype.fuzz import (
    FuzzConfig,
    FuzzStats,
    _trial,
    classify,
    generate_program,
    run_fuzz,
    shrink,
)
from redtype.parser import parse_program, print_program
from redtype.syntax import OPCODES, Span


def test_same_seed_same_programs():
    a = [generate_program(random.Random(5), max_len=10) for _ in range(50)]
    # regenerating from a fresh Random with the same seed must replay
    one = random.Random(5)
    b = [generate_program(one, max_len=10) for _ in range(50)]
    two = random.Random(5)
    c = [generate_program(two, max_len=10) for _ in range(50)]
    assert b == c
    assert a[0] == b[0]


# sha256 of the printed text of the first 500 programs that generate_program
# draws from Random(seed) with max_len 20, as run_fuzz draws them, recorded
# before the generator built its nodes by tuple.__new__ and shared its tags.
# Every seeded fuzz figure, the README's (seed 42) included, rests on these.
_GOLDEN_DRAWS = {
    (42, False): "6393038d62099efd4a76304140b4fcd06d79d7ddd61a47c20b1becd7dc3b8163",
    (42, True): "d45cbb7da58b0fec19960ad2203f2bfd040ec90534f37f38fac9731f7a78bfa8",
    (7, False): "0a0cddd47192db3739437f9c0753852d4422be0a1fab2e75aae7ed457f2ed610",
    (7, True): "ed963994ab7b420f8abe5629eb7e770e4e2436076e06013e9f3a6c8db9dedefe",
    (1234, False): "7803350f247318de9f958505748ab8163dad3024373ce84b113df55ebcc7a4dd",
    (1234, True): "1a6bd12ef20520a9d29434258f7060a6295c40b22ac3d352dba4bf7c89b34813",
    (801, False): "f17b04c9da5f8c896f189f41359a6c992e68bcd383f1dff5b39fe9e07664fb3e",
    (801, True): "79919e63bcaf0cca84008bb3841ba5e77fa0e047c666f54e5f5624e920cb89bc",
}


@pytest.mark.parametrize("seed, strict", _GOLDEN_DRAWS)
def test_a_seed_draws_the_recorded_programs(seed, strict):
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(500):
        digest.update(print_program(generate_program(rng, 20, strict)).encode("utf-8"))
    assert digest.hexdigest() == _GOLDEN_DRAWS[seed, strict]


# run_fuzz's statistics at the benchmark's seeds (7, and 801 held out), as
# (accepted, rejected, decode failures); every other count is 0.
_PASS_STATS = {
    (7, False): (430, 1570, 1),
    (7, True): (425, 1575, 0),
    (801, False): (391, 1609, 1),
    (801, True): (400, 1600, 0),
}


@pytest.mark.parametrize("seed, strict", _PASS_STATS)
def test_a_benchmark_pass_gives_the_recorded_stats(seed, strict):
    result = run_fuzz(FuzzConfig(2000, seed, 20, strict))
    accepted, rejected, decode_failures = _PASS_STATS[seed, strict]
    assert result.stats == FuzzStats(2000, accepted, rejected, 0, 0, decode_failures, 0)
    assert result.counterexample is None and result.failure is None


def test_run_fuzz_is_deterministic():
    r1 = run_fuzz(FuzzConfig(iterations=300, seed=11))
    r2 = run_fuzz(FuzzConfig(iterations=300, seed=11))
    assert r1.stats == r2.stats
    assert r1.counterexample == r2.counterexample


def test_all_well_typed_when_ill_rate_zero():
    rng = random.Random(21)
    for _ in range(200):
        p = generate_program(rng, max_len=8, ill_typed_rate=0.0)
        assert isinstance(check_program(p), CheckOk), print_program(p)


def test_all_rejected_when_ill_rate_one():
    rng = random.Random(22)
    for _ in range(200):
        p = generate_program(rng, max_len=8, ill_typed_rate=1.0)
        assert isinstance(check_program(p), CheckError), print_program(p)


def test_strict_generator_stays_sound_in_strict_mode():
    rng = random.Random(23)
    for _ in range(200):
        p = generate_program(rng, max_len=8, strict=True, ill_typed_rate=0.0)
        assert isinstance(check_program(p, [], True), CheckOk), print_program(p)


def test_generated_spans_are_positional():
    p = generate_program(random.Random(3), max_len=6, ill_typed_rate=0.0)
    assert all(c.span == Span(i + 2, 3) for i, c in enumerate(p.body))


def test_small_run_counts_consistently():
    result = run_fuzz(FuzzConfig(iterations=500, seed=42))
    s = result.stats
    assert s.iterations == 500
    assert s.accepted + s.rejected == s.iterations
    # with a 20% per-step ill-typed chance, acceptance sits near
    # mean(0.8^len) for len uniform on 1..20, about a fifth
    assert s.accepted > 60 and s.rejected > 300
    assert s.wrongtype == 0 and s.parse_errors == 0
    assert s.other_errors == 0
    assert result.counterexample is None


def test_strict_run_has_no_decode_failures():
    s = run_fuzz(FuzzConfig(iterations=500, seed=42, strict=True)).stats
    assert s.wrongtype == 0 and s.parse_errors == 0 and s.decode_failures == 0
    assert s.other_errors == 0


def test_default_mode_decode_failures_are_counted_not_fatal():
    # Large enough runs hit the lpush/sadd element-retype path.
    result = run_fuzz(FuzzConfig(iterations=10000, seed=7))
    assert result.counterexample is None
    assert result.stats.decode_failures > 0


def test_stats_lines_shape():
    lines = FuzzStats(iterations=10, accepted=6, rejected=4).lines()
    assert lines == [
        "iterations: 10",
        "accepted: 6",
        "rejected: 4",
        "runtime WRONGTYPE errors: 0",
        "runtime parse errors: 0",
        "decode failures: 0",
        "other errors: 0",
    ]


def test_classify_buckets():
    span = Span(1, 1)
    assert classify(RunError("WRONGTYPE Operation against ...", span)) == "wrongtype"
    assert classify(RunError("ERR value is not an integer or out of range", span)) == "parse"
    assert classify(RunError("ERR value is not a valid float", span)) == "parse"
    assert classify(RunError("DECODE cannot decode b'x' as int", span)) == "decode"
    assert classify(RunError("ERR something else", span)) == "other"


def _decode_fails_from_empty(program):
    from redtype.backend import MemoryBackend, run_program

    report = check_program(program)
    if not isinstance(report, CheckOk):
        return False
    outcome = run_program(program, report, MemoryBackend())
    return isinstance(outcome, RunError) and classify(outcome) == "decode"


def test_shrink_removes_irrelevant_commands():
    # The decode failure needs only the two lpushes and the rpop; the
    # pings and the unrelated set are noise the shrinker must drop.
    source = """\
program {
  ping
  lpush q "pear"
  set unrelated 9
  lpush q 5
  ping
  rpop q
}
"""
    program = parse_program(source)
    assert _decode_fails_from_empty(program)
    small = shrink(program, _decode_fails_from_empty)
    assert [c.opcode for c in small.body] == ["lpush", "lpush", "rpop"]
    assert _decode_fails_from_empty(small)


def test_shrink_respects_an_arbitrary_predicate():
    program = parse_program("program { ping  set k 1  ping  del k }")
    has_del = lambda p: any(c.opcode == "del" for c in p.body)
    small = shrink(program, has_del)
    assert [c.opcode for c in small.body] == ["del"]


_CONSTRAINTS = {
    "NotMember-violated",
    "ListOrNX-violated",
    "SetOrNX-violated",
    "HashOrNX-violated",
    "GetEquality-failed",
    "GetStuck",
    "ElementTypeMismatch",
    "UnknownRecord",
    "UnknownVariable",
    "ArityMismatch",
}


@pytest.mark.parametrize("strict", [False, True])
def test_generator_covers_every_opcode_and_constraint(strict):
    # The generator's reach is the fuzzer's evidence: a seeded batch must
    # emit every opcode and provoke every constraint the checker can raise.
    rng = random.Random(1234)
    opcodes: set[str] = set()
    constraints: set[str] = set()
    for _ in range(3000):
        program = generate_program(rng, strict=strict)
        opcodes.update(c.opcode for c in program.body)
        report = check_program(program, [], strict)
        if isinstance(report, CheckError):
            constraints.add(report.constraint)
    assert opcodes == OPCODES
    assert constraints == _CONSTRAINTS


# ---------------------------------------------------------------------------
# mutants: a checker with one fault injected by wrapping checker._step, which
# both check_program and the generator's draws reach at call time


def _setnx_unchecked(real):
    """setnx without its equality check: a tracked key keeps its tag."""

    def step(xs, env, records, cmd, strict):
        if cmd.opcode == "setnx" and cmd.keys[0] in xs:
            real({}, env, records, cmd, strict)  # the argument is still checked
            return BOOL_RESULT
        return real(xs, env, records, cmd, strict)

    return step


def _push_unchecked(real):
    """Strict mode without its push/add element check."""

    def step(xs, env, records, cmd, strict):
        return real(xs, env, records, cmd, strict and cmd.opcode not in ("lpush", "sadd"))

    return step


def _rejecting(opcodes):
    def make(real):
        def step(xs, env, records, cmd, strict):
            if opcodes is None or cmd.opcode in opcodes:
                raise CheckError(cmd.span, cmd.opcode, GET_STUCK, "rejected by the mutant")
            return real(xs, env, records, cmd, strict)

        return step

    return make


def _accepting_everything(real):
    return lambda xs, env, records, cmd, strict: STATUS


def _fuzz_under(monkeypatch, mutant, iterations, strict=False):
    monkeypatch.setattr(checker, "_step", mutant(checker._step))
    return run_fuzz(FuzzConfig(iterations=iterations, seed=1, strict=strict))


@pytest.mark.parametrize("strict", [False, True])
def test_fuzz_finds_a_dropped_setnx_equality_check(monkeypatch, strict):
    result = _fuzz_under(monkeypatch, _setnx_unchecked, 5000, strict)
    assert result.counterexample is not None
    assert any(c.opcode == "setnx" for c in result.counterexample.body)


def test_fuzz_finds_a_dropped_strict_element_check(monkeypatch):
    result = _fuzz_under(monkeypatch, _push_unchecked, 5000, strict=True)
    assert result.counterexample is not None
    assert result.failure.startswith("DECODE")


def test_fuzz_survives_a_checker_that_rejects_every_incr(monkeypatch):
    result = _fuzz_under(monkeypatch, _rejecting({"incr"}), 500)
    assert result.stats.iterations == 500
    assert result.stats.accepted > 0


def test_fuzz_survives_a_checker_that_rejects_everything(monkeypatch):
    result = _fuzz_under(monkeypatch, _rejecting(None), 100)
    assert result.stats.iterations == 100
    assert result.stats.accepted == 0
    assert result.counterexample is None


def test_a_reply_that_does_not_fit_the_result_type_is_a_violation(monkeypatch):
    result = _fuzz_under(monkeypatch, _accepting_everything, 100)
    assert result.counterexample is not None
    assert "does not fit result type" in result.failure
    assert result.stats.other_errors == 1


def test_an_unfit_reply_is_described_in_bounded_space(monkeypatch):
    monkeypatch.setattr(checker, "_step", _accepting_everything(checker._step))
    source = 'program { set k "' + "x" * 1_000_000 + '"  get k }'
    kind, message = _trial(parse_program(source), strict=False)
    assert kind == "unfit"
    assert "does not fit result type" in message
    assert len(message) < 1024


def test_an_integer_parse_error_on_the_store_is_counted_and_reported(monkeypatch):
    program = parse_program('program { set k "x"  incr k }')
    results = {"set": STATUS, "incr": INT_RESULT}

    def accept(p, xs, strict):
        rts = tuple(results[c.opcode] for c in p.body)
        return CheckOk([], [], rts[-1], rts)

    monkeypatch.setattr(fuzz, "generate_program", lambda rng, max_len, strict: program)
    monkeypatch.setattr(fuzz, "check_program", accept)
    result = run_fuzz(FuzzConfig(iterations=10, seed=1))
    assert (result.stats.iterations, result.stats.accepted, result.stats.parse_errors) == (1, 1, 1)
    assert result.counterexample == program
    assert result.failure == "ERR value is not an integer or out of range"


def test_an_argument_the_runtime_cannot_type_is_a_violation(monkeypatch):
    monkeypatch.setattr(checker, "_step", _accepting_everything(checker._step))
    kind, message = _trial(parse_program("program { set k nope }"), strict=False)
    assert kind == "unfit"
    assert "UnknownVariable" in message


PAIR_DECL = "record Pair { left: text, right: int }\n"


@pytest.mark.parametrize(
    "body, constraint",
    [
        ('set k Pair{ "x" }', "ArityMismatch"),
        ('set k Pair{ "x", 1, 2 }', "ArityMismatch"),
        ("set k Nope{ 1 }", "UnknownRecord"),
        ("set k Pair{ 1, 2 }", "ElementTypeMismatch"),
        ('set k Pair{ "x", true }', "ElementTypeMismatch"),
        ('set k Pair{ "x", nope }', "UnknownVariable"),
        ("s <- ping  set k Pair{ s, 1 }", "ElementTypeMismatch"),  # a status binder holds text, but binds no base
        ("s <- ping  set k s", "ElementTypeMismatch"),
    ],
)
def test_a_record_or_binder_argument_the_runtime_cannot_encode_is_a_violation(monkeypatch, body, constraint):
    monkeypatch.setattr(checker, "_step", _accepting_everything(checker._step))
    kind, message = _trial(parse_program(PAIR_DECL + "program { " + body + " }"), strict=False)
    assert (kind, message.split(":")[0]) == ("unfit", constraint)
