"""Parsing, error positions, and the print/parse round-trip."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from redtype import lexer, parser
from redtype.fuzz import generate_program
from redtype.parser import (
    MAX_NESTING,
    ParseError,
    float_text,
    parse_program,
    parse_type_tag,
    print_program,
    tag_text,
    text_literal,
)
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
    Var,
    hash_of,
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


def test_queue_program_parses_to_expected_tree():
    p = parse_program(QUEUE_SOURCE)
    assert p.records == (RecordDecl("Message", (("body", TEXT), ("id", INT))),)
    assert [c.opcode for c in p.body] == [
        "declare", "declare", "incr", "lpush", "incr", "lpush", "rpop",
    ]
    assert p.body[0] == Command("declare", keys=("counter",), declared=StringOf(INT))
    assert p.body[1] == Command("declare", keys=("queue",), declared=ListOf(RecordRef("Message")))
    assert p.body[2] == Command("incr", keys=("counter",), binder="i")
    assert p.body[3] == Command(
        "lpush",
        keys=("queue",),
        args=(RecordLit("Message", (TextLit("hello"), Var("i"))),),
    )
    assert p.body[6] == Command("rpop", keys=("queue",))
    # Spans point at the opcode, not the binder.
    assert p.body[2].span == Span(5, 8)
    assert p.body[3].span == Span(6, 3)


def test_minimal_program():
    p = parse_program("program { ping }")
    assert p == Program((), (Command("ping"),))


def test_empty_body_is_allowed():
    assert parse_program("program { }").body == ()


def test_comments_and_whitespace():
    source = "# leading\nprogram {  # trailing\n  ping # after\n}\n# done"
    assert parse_program(source).body == (Command("ping"),)


def test_keys_may_use_reserved_words_and_hyphens():
    p = parse_program("program { llen some-set  get set }")
    assert p.body[0].keys == ("some-set",)
    assert p.body[1].keys == ("set",)


def test_string_escapes_and_raw_newline():
    p = parse_program('program { set k "a\\"b\\\\c\\nd\\te\nf" }')
    assert p.body[0].args[0] == TextLit('a"b\\c\nd\te\nf')


def test_float_literal_forms():
    p = parse_program("program { set k 1.5  set k2 -0.25  set k3 2.5e3  set k4 1.0e-2 }")
    values = [c.args[0] for c in p.body]
    assert values == [FloatLit(1.5), FloatLit(-0.25), FloatLit(2500.0), FloatLit(0.01)]


def test_int_and_bool_literals():
    p = parse_program("program { set k -7  set k2 true  set k3 false }")
    assert [c.args[0] for c in p.body] == [IntLit(-7), BoolLit(True), BoolLit(False)]


def test_declare_hash_tag():
    p = parse_program("program { declare user : hash<name: string<text>, age: string<int>> }")
    assert p.body[0].declared == hash_of(
        ("name", StringOf(TEXT)), ("age", StringOf(INT))
    )


def test_binder_attaches_to_command():
    p = parse_program("program { n <- incr c }")
    assert p.body[0].binder == "n"


@pytest.mark.parametrize(
    "source, line, col,  expected_bit",
    [
        ("", 1, 1, "'program'"),
        ("program {", 1, 10, "'}'"),
        ("program { bogus }", 1, 17, "'<-'"),  # binder without arrow
        ("program { x <- 3 }", 1, 16, "a command"),
        ("program { set }", 1, 15, "a key"),
        ("program { set k }", 1, 17, "an expression"),
        ("record M { } program { ping }", 1, 12, "field name"),
        ("record M { f: list } program { ping }", 1, 15, "scalar base type"),
        ("program { declare k : hash<f: list<int>> }", 1, 31, "string<...>"),
        ('program { set k "unterminated }', 1, 17, "closing"),
        ("program { set k 1.5e }", 1, 17, "exponent digits"),
        ("program { ping } trailing", 1, 18, "end of input"),
        ("program { set k @ }", 1, 17, "a token"),
    ],
)
def test_error_positions(source, line, col, expected_bit):
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert exc.value.line == line
    assert exc.value.column == col
    assert expected_bit in exc.value.expected


def test_duplicate_record_rejected():
    src = "record M { f: int } record M { g: int } program { ping }"
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert "duplicate record" in exc.value.found


def test_duplicate_field_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("record M { f: int, f: text } program { ping }")
    assert "duplicate field" in exc.value.found


def test_duplicate_binder_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("program { a <- incr k  a <- incr k }")
    assert "duplicate binder" in exc.value.found


def test_reserved_words_rejected_as_names():
    with pytest.raises(ParseError) as exc:
        parse_program("program { program <- incr k }")
    assert "reserved word 'program'" in exc.value.found
    with pytest.raises(ParseError) as exc:
        parse_program("record list { f: int } program { ping }")
    assert "reserved" in exc.value.found


def test_nonfinite_float_literal_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("program { set k 1" + "0" * 400 + ".0 }")
    assert "out of range" in exc.value.found


def test_int_literal_outside_int64_rejected_at_its_position():
    for literal in (str(2**63), str(-(2**63) - 1), "9" * 5000, "-" + "9" * 5000):
        with pytest.raises(ParseError) as exc:
            parse_program(f"program {{ ping\n  set k {literal} }}")
        assert (exc.value.line, exc.value.column) == (2, 9)
        assert exc.value.expected == "a signed 64-bit integer"
        assert exc.value.found == "literal out of range"


def test_int_literals_at_the_int64_bounds_parse():
    p = parse_program(f"program {{ set lo {-(2**63)}  set hi {2**63 - 1}  set z -0000000000000000000000001 }}")
    assert [c.args[0] for c in p.body] == [IntLit(-(2**63)), IntLit(2**63 - 1), IntLit(-1)]


def test_int_literals_with_thousands_of_leading_zeros_parse():
    # int() refuses more than 4,300 digits, leading zeros included
    zeros = "0" * 5000
    p = parse_program(f"program {{ set p {zeros}1  set n -{zeros}1  set z -{zeros} }}")
    assert [c.args[0] for c in p.body] == [IntLit(1), IntLit(-1), IntLit(0)]


def test_parse_type_tag_standalone():
    assert parse_type_tag("string<int>") == StringOf(INT)
    assert parse_type_tag("set<Message>") == SetOf(RecordRef("Message"))
    assert parse_type_tag("hash<f: string<bool>>") == hash_of(("f", StringOf(BOOL)))
    with pytest.raises(ParseError):
        parse_type_tag("string<int> junk")
    with pytest.raises(ParseError):
        parse_type_tag("int")


# ---------------------------------------------------------------------------
# printing


def test_print_queue_program_is_canonical():
    p = parse_program(QUEUE_SOURCE)
    printed = print_program(p)
    assert printed == (
        "record Message { body: text, id: int }\n"
        "program {\n"
        "  declare counter : string<int>\n"
        "  declare queue : list<Message>\n"
        "  i <- incr counter\n"
        '  lpush queue Message{"hello", i}\n'
        "  j <- incr counter\n"
        '  lpush queue Message{"world", j}\n'
        "  rpop queue\n"
        "}\n"
    )
    assert parse_program(printed) == p


def test_float_text_always_relexes_as_float():
    for v in (1.0, -0.5, 1e22, 5e-324, 123456789.25, -1e22):
        s = float_text(v)
        p = parse_program(f"program {{ set k {s} }}")
        assert p.body[0].args[0] == FloatLit(v)


def test_text_literal_with_a_surrogate_rejected_at_the_literal():
    # a plain set, which the statement path reads
    with pytest.raises(ParseError) as exc:
        parse_program('program { set k "\ud800"  get k }')
    assert (exc.value.line, exc.value.column) == (1, 17)
    assert exc.value.expected == "text that UTF-8 can encode"
    assert exc.value.found == "surrogate code point U+D800"
    # inside a nested record literal, which only the token path reads
    with pytest.raises(ParseError) as exc:
        parse_program('record Pair { left: text, right: int }\nprogram {\n  set k Pair{ Pair{ "a\\n\udfff", 1 }, 1 } }')
    assert (exc.value.line, exc.value.column) == (3, 21)
    assert exc.value.found == "surrogate code point U+DFFF"


def test_text_literals_beyond_ascii_parse():
    p = parse_program('program { set k "é日\U0001f600\uffff"  set j "\\n\U0010ffff" }')
    assert [c.args[0] for c in p.body] == [TextLit("é日\U0001f600\uffff"), TextLit("\n\U0010ffff")]


def test_text_literal_escapes():
    assert text_literal('a"b') == '"a\\"b"'
    assert text_literal("a\\b") == '"a\\\\b"'
    assert text_literal("a\nb\tc") == '"a\\nb\\tc"'


def test_tag_text_spellings():
    assert tag_text(StringOf(INT)) == "string<int>"
    assert tag_text(ListOf(RecordRef("M"))) == "list<M>"
    assert tag_text(hash_of(("f", StringOf(FLOAT)))) == "hash<f: string<float>>"


# ---------------------------------------------------------------------------
# round-trip: generator-produced programs and arbitrary-input robustness


def test_round_trip_on_generated_programs():
    rng = random.Random(1234)
    for _ in range(1000):
        p = generate_program(rng, max_len=12, ill_typed_rate=0.0)
        assert parse_program(print_program(p)) == p


def test_round_trip_on_ill_typed_programs_too():
    # Ill-typed programs are still grammatical; printing must round-trip
    # them as well (the fuzzer prints counterexamples).
    rng = random.Random(99)
    for _ in range(300):
        p = generate_program(rng, max_len=10, ill_typed_rate=0.8)
        assert parse_program(print_program(p)) == p


_names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in ("true", "false")
)
_exprs = st.recursive(
    st.one_of(
        st.integers(-(10**12), 10**12).map(IntLit),
        st.floats(allow_nan=False, allow_infinity=False).map(FloatLit),
        st.booleans().map(BoolLit),
        st.text(max_size=12).map(TextLit),
        _names.map(Var),
    ),
    lambda inner: st.builds(
        RecordLit, _names.map(str.capitalize), st.tuples(inner) | st.tuples(inner, inner)
    ),
    max_leaves=6,
)


@settings(max_examples=300)
@given(st.lists(_exprs, min_size=1, max_size=5))
def test_round_trip_expressions_via_set(exprs):
    body = tuple(Command("set", keys=(f"k{i}",), args=(e,)) for i, e in enumerate(exprs))
    p = Program((), body)
    assert parse_program(print_program(p)).body == body


@settings(max_examples=400)
@given(st.text(max_size=60))
def test_parser_never_panics(source):
    try:
        parse_program(source)
    except ParseError:
        pass  # the only allowed failure mode


@settings(max_examples=200)
@given(st.binary(max_size=40))
def test_parser_never_panics_on_binary_soup(data):
    try:
        parse_program(data.decode("latin-1"))
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# nesting bound


def test_deeply_nested_record_literal_is_a_located_parse_error():
    source = "program {\n  set k " + "R{" * 2000 + "1" + "}" * 2000 + "\n}\n"
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.line, exc.value.column) == (2, 9 + 2 * MAX_NESTING)
    assert "nesting" in str(exc.value)


def test_deeply_nested_hash_tag_is_a_parse_error():
    text = "hash<f: " * 2000 + "string<int>" + ">" * 2000
    with pytest.raises(ParseError, match="nesting"):
        parse_type_tag(text)


def test_nesting_up_to_the_bound_still_parses():
    inner = "R{" * MAX_NESTING + "1" + "}" * MAX_NESTING
    program = parse_program("program {\n  set k " + inner + "\n}\n")
    assert len(program.body) == 1


# ---------------------------------------------------------------------------
# the lexer against the character-at-a-time reference in tests/oracles.py


def _lex(source):
    """The package lexer's tokens as ``(kind, text, offset)``, one at a time, ending with EOF."""
    tokens, pos = [], 0
    while True:
        kind, text, m = lexer._token(source, pos)
        tokens.append((kind, text, m.start(kind)))
        if kind == "EOF":
            return tokens
        pos = m.end()


def _line_col(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _package_tokens(source):
    """The package lexer's tokens as ``(kind, text, line, col)``."""
    return [(kind, text, *_line_col(source, pos)) for kind, text, pos in _lex(source)]


_FRAGMENTS = [
    "program", "record", "set", "k", "x-1", "_a", "{", "}", "<", ">", ":", ",", "<-", "-", "-x",
    "0", "-7", "12", "1.5", "-2.25", "1.5e", "1.5e3e", "1.5E+3", "1.5e-", "1.", ".5", "1e5",
    '"', '"a"', '"a\\nb\\t\\"\\\\"', '"\\q"', '"\\', '"raw\nnewline"', "\\",
    "#c", "#c\n", "\n", " ", "\t", "\r", "\x0b", "@", ".", "é", "٣", "²", "ｋ",
]


def _assert_lexes_like_the_reference(source):
    try:
        expected = oracles.lex(source)
    except ParseError as ref:
        where = (ref.line, ref.column, ref.expected, ref.found)
        for run in (_lex, parse_program):
            with pytest.raises(ParseError) as exc:
                run(source)
            assert (exc.value.line, exc.value.column, exc.value.expected, exc.value.found) == where
        return
    assert _package_tokens(source) == expected


@settings(max_examples=1000)
@given(st.text(max_size=80) | st.text(alphabet="\"\\nte1.5-<#\n {}", max_size=40))
def test_lexer_agrees_with_the_reference_on_arbitrary_text(source):
    _assert_lexes_like_the_reference(source)


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=20), st.sampled_from(["", " ", "\n"]))
def test_lexer_agrees_with_the_reference_on_token_soup(fragments, sep):
    _assert_lexes_like_the_reference(sep.join(fragments))


def _offset(text, line, column):
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + column - 1


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12), st.sampled_from(["", " ", "\n"]), st.data())
def test_the_token_at_an_offset_is_the_reference_lexers_first_token_from_there(fragments, sep, data):
    source = sep.join(fragments)
    pos = data.draw(st.integers(0, len(source)))
    rest = source[pos:]
    try:
        expected = oracles.lex(rest)[0]
    except ParseError as ref:
        expected = ref
    try:
        kind, text, m = lexer._token(source, pos)
    except ParseError as err:
        assert isinstance(expected, ParseError)
        at = _offset(source, err.line, err.column) - pos
        assert (*_line_col(rest, at), err.expected, err.found) == (
            expected.line, expected.column, expected.expected, expected.found
        )
        return
    if isinstance(expected, ParseError):  # a later token of the rest is bad, so the first is read alone
        expected = oracles.lex(rest[: m.end() - pos])[0]
    assert (kind, text, *_line_col(rest, m.start(kind) - pos)) == expected


# ---------------------------------------------------------------------------
# the parser against the token-object reference parser in tests/oracles.py


def _lexes(text):
    try:
        _lex(text)
    except ParseError:
        return False
    return True


# The fragments that lex, plus words and whole commands of the grammar, so
# that soups get past the first token and into records, binders, commands
# and type tags.
_GRAMMAR_FRAGMENTS = [f for f in _FRAGMENTS if _lexes(f)] + [
    "declare", "incr", "hset", "hget", "sinter", "ping", "lpush", "R", "R{", "x", "x <-", "true",
    "string<int>", "list<R>", "hash<f: string<text>>", "hash<", "int", "text", "list", ": int",
    "set k 1", "y <- incr k", "lpush q R{1, \"a\"}", "hset h f 2.5", "sinter a b", "declare k : set<R>",
]
_PREFIXES = ["", "program {", "record R { a: int, b: text } program {"]


def _outcome(parse, source):
    """``parse``'s result with every command's span, or its error's location and text.

    Command equality ignores spans, so the spans are compared on their own.
    """
    try:
        result = parse(source)
    except ParseError as err:
        return "error", (err.line, err.column, err.expected, err.found)
    return result, [c.span for c in getattr(result, "body", ())]


def _assert_parses_like_the_reference(source):
    assert _outcome(parse_program, source) == _outcome(oracles.parse, source)
    assert _outcome(parse_type_tag, source) == _outcome(oracles.parse_tag, source)


@settings(max_examples=1000)
@given(
    st.sampled_from(_PREFIXES),
    st.lists(st.sampled_from(_GRAMMAR_FRAGMENTS), max_size=20),
    st.sampled_from(["", " ", "\n"]),
)
def test_parser_agrees_with_the_reference_on_token_soup(prefix, fragments, sep):
    _assert_parses_like_the_reference(prefix + sep + sep.join(fragments))


@settings(max_examples=300)
@given(
    st.integers(0, 2**32),
    st.floats(0, 1),
    st.floats(0, 0.2),
    st.lists(st.sampled_from(_GRAMMAR_FRAGMENTS), max_size=3),
)
def test_parser_agrees_with_the_reference_on_printed_programs(seed, cut, width, fragments):
    """Printed generated programs, whole and with a stretch replaced by fragments."""
    rng = random.Random(seed)
    text = print_program(generate_program(rng, max_len=12, ill_typed_rate=0.3))
    _assert_parses_like_the_reference(text)
    start = int(cut * len(text))
    end = start + int(width * len(text))
    _assert_parses_like_the_reference(text[:start] + " ".join(fragments) + text[end:])


# ---------------------------------------------------------------------------
# bounded work on hostile source


def _parse_within(source, seconds=5.0):
    """parse_program's result or ParseError, asserting the time budget."""
    t0 = time.perf_counter()
    try:
        outcome = parse_program(source)
    except ParseError as err:
        outcome = err
    assert time.perf_counter() - t0 < seconds
    return outcome


@pytest.mark.parametrize(
    "source, where",
    [
        ('program { set k "' + "a" * 2_000_000, (1, 17, "closing '\"'", "end of input")),
        ('program { set k "' + "\\n" * 1_000_000, (1, 17, "closing '\"'", "end of input")),
        ('program { set k "' + "\\n" * 1_000_000 + "\\", (1, 2_000_018, "escape character", "end of input")),
        (" " * 2_000_000, (1, 2_000_001, "'program'", "end of input")),
        ("\n" * 1_000_000 + "@", (1_000_001, 1, "a token", "character '@'")),
    ],
    ids=["2MB-unterminated-literal", "1M-escapes-unterminated", "1M-escapes-then-backslash", "2MB-blanks", "1M-newlines"],
)
def test_hostile_source_gives_its_located_error_in_bounded_time(source, where):
    err = _parse_within(source)
    assert isinstance(err, ParseError)
    assert (err.line, err.column, err.expected, err.found) == where


def test_hostile_source_a_200k_command_program_parses_in_bounded_time():
    n = 200_000
    program = _parse_within("program {\n" + "".join(f"  set k{i} {i}\n" for i in range(n)) + "}\n")
    assert len(program.body) == n
    assert program.body[-1].span == Span(n + 1, 3)


def test_parse_error_quotes_at_most_40_characters_of_a_token():
    long = "x" * 200_000
    for source, found in [
        (f"program {{ ping }} {long}", f"'{'x' * 40}...'"),
        (f"program {{ {long} <- incr a  {long} <- incr b }}", f"duplicate binder '{'x' * 40}...'"),
        (f"record {long} {{ f: int }} record {long} {{ f: int }} program {{ ping }}", f"duplicate record '{'x' * 40}...'"),
        (f"record M {{ {long}: int, {long}: int }} program {{ ping }}", f"duplicate field '{'x' * 40}...'"),
        ("program { ping } " + "y" * 40, f"'{'y' * 40}'"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_program(source)
        assert exc.value.found == found
        assert len(str(exc.value)) < 120
    with pytest.raises(ParseError) as exc:
        parse_type_tag(f"hash<f: list<{long}>>")
    assert exc.value.found == "list<" + "x" * 35 + "..."


# ---------------------------------------------------------------------------
# one streaming pass: memory, error order and spans


def _queue_program(cycles):
    """The quick-start queue shape, four commands per cycle."""
    lines = ["record Message { body: text, id: int }", "program {", "  declare counter : string<int>"]
    for i in range(cycles):
        lines += [
            f"  i{i} <- incr counter",
            f'  lpush queue Message{{ "message {i}", i{i} }}',
            f"  hset h f{i % 8} {i * 7919}",
            "  rpop queue",
        ]
    return "\n".join(lines + ["}"]) + "\n"


def test_a_parse_holds_little_more_than_the_tree_it_returns():
    source = _queue_program(1000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        program = parse_program(source)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(program.body) == 4001
    assert peak - before <= 1.2 * (kept - before)


@pytest.mark.parametrize(
    "source, where",
    [
        ("program { set }\n@", (2, 1, "a token", "character '@'")),
        ("program { ping } trailing\nset k 1.5e", (2, 7, "exponent digits", "malformed float literal")),
        ('record R { } program {\n  set k "\\q" }', (2, 10, "one of \\\" \\\\ \\n \\t", "'\\q'")),
        ("program { set k " + "R{" * (MAX_NESTING + 1) + "1 } }\n\n  @", (3, 3, "a token", "character '@'")),
        ('program { set k 1 }}}\n"open', (2, 1, "closing '\"'", "end of input")),
    ],
)
def test_a_bad_token_after_a_grammar_error_is_still_the_error(source, where):
    for parse in (parse_program, oracles.parse):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert (exc.value.line, exc.value.column, exc.value.expected, exc.value.found) == where


def test_spans_of_a_multi_line_program_equal_the_reference_spans():
    source = (
        "# a queue\n"
        "record Message { body: text,\n"
        "                 id: int }\n"
        "\n"
        "program {   # body\n"
        "  declare q : list<Message>\n"
        "\n"
        '  n <- incr c  lpush q Message{ "two\nlines", n }\n'
        "  # a comment with set k 1 in it\n"
        '  set t "a\n'
        '\n'
        'b"   ping\n'
        "\t\tm <-\n"
        "   rpop q\n"
        "}\n"
    )
    spans = [c.span for c in parse_program(source).body]
    assert spans == [c.span for c in oracles.parse(source).body]
    assert spans == [Span(6, 3), Span(8, 8), Span(8, 16), Span(11, 3), Span(13, 6), Span(15, 4)]


def test_a_reserved_word_is_not_a_record_base():
    with pytest.raises(ParseError) as exc:
        parse_program("program { declare k : string<program> }")
    assert (exc.value.expected, exc.value.found) == ("a base type", "reserved word 'program'")
    assert str(exc.value) == "1:30: expected a base type, found reserved word 'program'"


def test_a_parse_error_survives_copy_and_pickle():
    with pytest.raises(ParseError) as exc:
        parse_program("program {")
    err = exc.value
    assert str(err) == "1:10: expected '}', found end of input"
    for clone in (copy.copy(err), copy.deepcopy(err), pickle.loads(pickle.dumps(err))):
        assert type(clone) is ParseError
        assert str(clone) == str(err)
        assert (clone.line, clone.column, clone.expected, clone.found) == (err.line, err.column, err.expected, err.found)


# ---------------------------------------------------------------------------
# the statement path: where a plain command ends, and what it hands to the
# token path, against the reference parser


_QUEUE_RECORD = "record Message { body: text, id: int }\n"


@pytest.mark.parametrize(
    "body",
    [
        # no blank between tokens
        "set k 5get k",
        "x<-incr k",
        'set k"a"',
        'x<-incr k set k"a"get k',
        # comments, tabs and carriage returns between a command's tokens
        "x\t<-\r\n# c\n incr\t# d\n k\r\n  set\tk\r# e\n\t5",
        "hset\th # c\n f\r\n\t-7 # end",
        # a name followed by '{' on a later line is a record literal, not a variable
        "x <- incr c\n  set k Message # c\n  { \"hi\", x }",
        "x <- incr c\n  set k x # c\n  { 1 }",
        "x <- incr c\n  set k x # c\n  get k",
        "set k x # c\n  {",
        # floats the lexer refuses or splits
        "set k 1.5e3e",
        "set k 1.5e",
        "set k 1.5E+",
        "set k 5.",
        "set k 5.x",
        "set k 1" + "0" * 400 + ".0",
        # ints at and beyond the int64 bounds
        "set k -0",
        "set k 007",
        "set k 9223372036854775807",
        "set k -9223372036854775807",
        "set k -9223372036854775808",
        "set k 9223372036854775808",
        "set k -9223372036854775809",
        "set k 12345678901234567890",
        "set k " + "0" * 5000 + "1",
        # keys that are reserved words
        "set program 1  get set  sinter record true  hset hash list false  incr declare",
        # reserved and repeated binders
        "set <- incr k",
        "program <- incr k",
        "true <- incr k",
        "x <- incr a  x <- incr b",
        "x <- incr a  y <- incr b  x <- incr c",
        # true, false and a name that starts like them
        "set a true  set b false  set c truex  set d falsex",
        "set k true{1}",
        "set k Message{true, false}",
        # a comma or a brace inside a text argument of a record literal
        'lpush q Message{"a,b", 1}  lpush q Message{"}", 2}  lpush q Message{"{", 3}',
        'lpush q Message{"\\"}\\\\", 4}',
        # a nested record literal, and malformed ones
        "set k Message{Message{1}, 2}",
        "set k Message{}",
        "set k Message{1,}",
        "set k Message{1 2}",
        "set k Message{1",
        'set k 5 {1}  set k "a"{1}',
        "set k Message{9223372036854775808}",
        # declare between plain commands
        "set a 1  declare b : string<int>  get b  x <- declare c : list<int>  llen c",
        # malformed text after a plain command
        "set k 1 @",
        'set k 1 "open',
        "set k 1 }}",
        "ping ping <",
        # one program in each benchmark shape
        "set k1 -5  set k2 7  incr k1  get k2",
        "declare counter : string<int>\n  declare queue : list<Message>\n  i1 <- incr counter\n"
        '  lpush queue Message{ "abc", i1 }\n  hset h f1 7919\n  rpop queue',
        "sadd s1 1  sadd s1 2  sadd s2 2  sinter s1 s2",
    ],
)
def test_the_statement_path_parses_like_the_reference(body):
    _assert_parses_like_the_reference(_QUEUE_RECORD + "program {\n  " + body + "\n}\n")


def test_the_token_path_reads_only_the_declares_and_the_end_of_the_quick_start_queue(monkeypatch):
    read = []
    command = parser._Parser.command
    monkeypatch.setattr(parser._Parser, "command", lambda p, binders: read.append(p.tok[1]) or command(p, binders))
    program = parse_program(_queue_program(1000))
    assert len(program.body) == 4001
    assert program.body[-1].opcode == "rpop"
    # the program's one declare; the closing brace ends the statement path's last batch
    assert read == ["declare"]


def test_a_parse_compiles_the_statement_tails_of_the_opcodes_it_meets(monkeypatch):
    monkeypatch.setattr(parser, "_STATEMENTS", {})
    parse_program("program {\n  set a 1\n  get a\n  declare b : string<int>\n  set b 2\n}\n")
    assert sorted(parser._STATEMENTS) == ["get", "set"]

