"""Canonical encodings, strict decoding, and the round-trip law."""

from __future__ import annotations

import copy
import math
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from redtype.codec import DecodeError, RecordValue, TypedValue, decode, encode, int_value, int_values, value_decoder, value_encoder
from redtype.fuzz import RECORD_POOL
from redtype.syntax import BOOL, FLOAT, INT, TEXT, RecordDecl, RecordRef

MESSAGE = RecordDecl("Message", (("body", TEXT), ("id", INT)))
POINT = RecordDecl("Point", (("x", FLOAT), ("y", FLOAT)))
RECORDS = {"Message": MESSAGE, "Point": POINT}
MSG_REF = RecordRef("Message")


# ---------------------------------------------------------------------------
# golden bytes


@pytest.mark.parametrize(
    "value, expected",
    [
        (0, b"0"),
        (1992, b"1992"),
        (-7, b"-7"),
        (2**63 - 1, b"9223372036854775807"),
        (-(2**63), b"-9223372036854775808"),
    ],
)
def test_int_golden(value, expected):
    assert encode(TypedValue(INT, value)) == expected
    assert decode(expected, INT) == TypedValue(INT, value)


@pytest.mark.parametrize(
    "value, expected",
    [
        (1.5, b"1.5"),
        (-0.25, b"-0.25"),
        (3.0, b"3.0"),
        (1e22, b"1e+22"),
        (5e-324, b"5e-324"),
        (0.1, b"0.1"),
    ],
)
def test_float_golden(value, expected):
    assert encode(TypedValue(FLOAT, value)) == expected
    assert decode(expected, FLOAT) == TypedValue(FLOAT, value)


def test_bool_golden():
    assert encode(TypedValue(BOOL, True)) == b"true"
    assert encode(TypedValue(BOOL, False)) == b"false"
    assert decode(b"true", BOOL).value is True
    assert decode(b"false", BOOL).value is False


def test_text_golden():
    assert encode(TypedValue(TEXT, "banacorn")) == b"banacorn"
    assert encode(TypedValue(TEXT, "é日")) == "é日".encode("utf-8")
    assert decode(b"banacorn", TEXT).value == "banacorn"
    assert decode(b"", TEXT).value == ""


def test_record_golden():
    v = TypedValue(MSG_REF, RecordValue("Message", ("hello", 1)))
    assert encode(v, RECORDS) == b'{"body":"hello","id":1}'
    assert decode(b'{"body":"hello","id":1}', MSG_REF, RECORDS) == v


def test_record_with_unicode_stays_unescaped():
    v = TypedValue(MSG_REF, RecordValue("Message", ("héllo", 2)))
    assert encode(v, RECORDS) == '{"body":"héllo","id":2}'.encode("utf-8")


# ---------------------------------------------------------------------------
# strict image: every non-canonical spelling is rejected


@pytest.mark.parametrize(
    "data",
    [b"007", b"-0", b"+5", b" 1", b"1 ", b"1_0", b"0x10", b"", b"\xff", b"1.0"],
)
def test_int_rejects_non_canonical(data):
    with pytest.raises(DecodeError):
        decode(data, INT)


@pytest.mark.parametrize(
    "data",
    [b"1.50", b"01.5", b"+1.5", b"1,5", b"inf", b"-inf", b"nan", b"1e22", b"", b"3", b"1E5"],
)
def test_float_rejects_non_canonical(data):
    # b"3" round-trips as int but floats always carry '.' or exponent;
    # b"1e22" is spelled b"1e+22" by repr; b"1E5" has the wrong case.
    with pytest.raises(DecodeError):
        decode(data, FLOAT)


@pytest.mark.parametrize("data", [b"True", b"FALSE", b"1", b"0", b"", b"yes"])
def test_bool_rejects_anything_else(data):
    with pytest.raises(DecodeError):
        decode(data, BOOL)


def test_text_rejects_invalid_utf8():
    with pytest.raises(DecodeError):
        decode(b"\xff\xfe", TEXT)


@pytest.mark.parametrize(
    "data",
    [
        b"{}",
        b"[1,2]",
        b"null",
        b"not json",
        b'{"id":1,"body":"hello"}',  # field order
        b'{"body":"hello"}',  # missing field
        b'{"body":"hello","id":1,"x":2}',  # extra field
        b'{"body":"hello","id":"1"}',  # wrong field type
        b'{"body":"hello","id":true}',  # bool is not an int
        b'{"body":"hello","id":1.0}',  # float is not an int
        b'{"body": "hello","id":1}',  # whitespace
        b'{"body":"h\\u00e9llo","id":1}',  # escaped non-ASCII
        b'{"body":"hello","id":1}extra',
        b'{"body":"\\ud800","id":1}',  # escaped lone surrogate
        b'{"body":"\\u0041","id":1}',  # escaped ASCII "A"
        b'{"body":"hello","id":' + b"1" * 5000 + b"}",  # more digits than int() reads
        b'{"body":"hel\nlo","id":1}',  # a raw newline
    ],
)
def test_record_rejects_non_canonical(data):
    with pytest.raises(DecodeError):
        decode(data, MSG_REF, RECORDS)


def test_record_rejects_nonfinite_float_field():
    with pytest.raises(DecodeError):
        decode(b'{"x":Infinity,"y":1.0}', RecordRef("Point"), RECORDS)


def test_deeply_nested_json_is_an_error_not_a_crash():
    data = b"[" * 100000 + b"]" * 100000
    with pytest.raises(DecodeError):
        decode(data, MSG_REF, RECORDS)


def test_unknown_record_is_a_key_error():
    with pytest.raises(KeyError):
        encode(TypedValue(RecordRef("Nope"), RecordValue("Nope", ())), RECORDS)
    with pytest.raises(KeyError):
        decode(b"{}", RecordRef("Nope"), RECORDS)


def test_decode_error_truncates_long_payloads():
    err = DecodeError("int", b"x" * 200)
    assert "..." in str(err)
    assert len(str(err)) < 160


@pytest.mark.parametrize(
    "data, base, message",
    [(b"007", INT, "cannot decode b'007' as int"), (b"1.50", FLOAT, "cannot decode b'1.50' as float (not canonical)")],
)
def test_a_decode_error_survives_copy_and_pickle(data, base, message):
    with pytest.raises(DecodeError) as exc:
        decode(data, base)
    err = exc.value
    assert str(err) == message
    for clone in (copy.copy(err), copy.deepcopy(err), pickle.loads(pickle.dumps(err))):
        assert type(clone) is DecodeError
        assert str(clone) == message
        assert (clone.base_name, clone.data) == (err.base_name, err.data)


# ---------------------------------------------------------------------------
# round-trip law


@given(st.integers())
def test_round_trip_int(n):
    assert decode(encode(TypedValue(INT, n)), INT).value == n


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_round_trip_float(f):
    out = decode(encode(TypedValue(FLOAT, f)), FLOAT).value
    assert out == f and math.copysign(1, out) == math.copysign(1, f)


@given(st.text())
def test_round_trip_text(s):
    assert decode(encode(TypedValue(TEXT, s)), TEXT).value == s


@given(st.text(max_size=20), st.integers(-(10**15), 10**15))
def test_round_trip_record(body, n):
    v = TypedValue(MSG_REF, RecordValue("Message", (body, n)))
    assert decode(encode(v, RECORDS), MSG_REF, RECORDS) == v


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_round_trip_point_record(x, y):
    v = TypedValue(RecordRef("Point"), RecordValue("Point", (x, y)))
    assert decode(encode(v, RECORDS), RecordRef("Point"), RECORDS) == v


# Field values over each base's awkward corners: text over all of Unicode
# but surrogates, with the characters JSON must escape or may leave alone
# drawn often; ints beyond int64; float extremes; both bools.
_CHARS = st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600'),
    st.characters(max_codepoint=0x1F),
    st.characters(exclude_categories=("Cs",)),
)
_FIELD_VALUES = {
    TEXT: st.text(_CHARS),
    INT: st.one_of(st.integers(), st.integers(min_value=2**63), st.integers(max_value=-(2**63) - 1)),
    FLOAT: st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308]),
    ),
    BOOL: st.booleans(),
}


@given(
    st.sampled_from((MESSAGE, *RECORD_POOL)).flatmap(
        lambda decl: st.tuples(st.just(decl), st.tuples(*(_FIELD_VALUES[base] for _, base in decl.fields)))
    )
)
def test_record_bytes_equal_the_json_dumps_reference(decl_values):
    decl, values = decl_values
    base, records = RecordRef(decl.name), {decl.name: decl}
    v = TypedValue(base, RecordValue(decl.name, values))
    data = encode(v, records)
    assert data == oracles.record_bytes(decl, values)
    assert decode(data, base, records) == v


def test_injectivity_within_a_base_type():
    rng = random.Random(7)
    seen: dict[bytes, int] = {}
    for _ in range(5000):
        n = rng.randint(-(2**70), 2**70)
        b = encode(TypedValue(INT, n))
        assert seen.setdefault(b, n) == n


# ---------------------------------------------------------------------------
# per-declaration coders


POOL = {decl.name: decl for decl in RECORD_POOL}


@pytest.mark.parametrize(
    "name, value",
    [
        ("Pair", RecordValue("Pair", ("x",))),  # short: one field of two
        ("Pair", RecordValue("Pair", ("x", 1, 2))),  # long
        ("Pair", RecordValue("Pair", (1, 2))),  # an int where the text goes
        ("Pair", RecordValue("Pair", ("x", True))),  # a bool is not an int
        ("Pair", RecordValue("Point", ("x", 1))),  # another record's name
        ("Pair", ("x", 1)),  # no record value at all
        ("Point", RecordValue("Point", (math.inf, 1.0))),
        ("Point", RecordValue("Point", (1.0, math.nan))),
        ("Pair", RecordValue("Pair", ("\udfff", 1))),  # a lone surrogate, which UTF-8 cannot spell
    ],
)
def test_a_record_value_unfit_for_its_declaration_is_refused(name, value):
    with pytest.raises(ValueError, match=f"is not a value of record '{name}'"):
        encode(TypedValue(RecordRef(name), value), POOL)


def test_an_unfit_record_value_is_refused_under_python_o():
    # The check must not be an assert, which -O strips.
    probe = """
from redtype.codec import RecordValue, TypedValue, encode
from redtype.fuzz import RECORD_POOL
from redtype.syntax import RecordRef
print(__debug__)
for payload in (("x",), (1, 2)):
    try:
        encode(TypedValue(RecordRef("Pair"), RecordValue("Pair", payload)), {"Pair": RECORD_POOL[0]})
    except ValueError as err:
        print(err)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-B", "-O", "-c", probe], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "False",
        "RecordValue(name='Pair', values=('x',)) is not a value of record 'Pair'",
        "RecordValue(name='Pair', values=(1, 2)) is not a value of record 'Pair'",
    ]


@pytest.mark.parametrize(
    "base, value, shown",
    [
        (FLOAT, math.inf, "inf"),
        (FLOAT, math.nan, "nan"),
        (INT, True, "True"),
        (BOOL, 1, "1"),
        (TEXT, 5, "5"),
        (TEXT, "\ud800", "'\\ud800'"),
    ],
    ids=["inf", "nan", "bool-as-int", "int-as-bool", "int-as-text", "lone-surrogate-as-text"],
)
def test_a_scalar_value_outside_the_decoders_image_is_refused(base, value, shown):
    with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not a value of {base.name}$"):
        encode(TypedValue(base, value))


def test_ints_are_bounded_by_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert decode(b"9" * limit, INT).value == 10**limit - 1
    with pytest.raises(ValueError):
        encode(TypedValue(INT, 10**limit))
    with pytest.raises(DecodeError):
        decode(b"1" + b"0" * limit, INT)


def _outcome(read, items):
    try:
        return read(items)
    except DecodeError as err:
        return "DecodeError", err.base_name, err.data, str(err)


_canonical_int_st = st.integers().map(b"%d".__mod__)
# Spellings int() reads but int_value refuses, and lengths at and past the digit limit.
_int_items_st = _canonical_int_st | st.sampled_from(
    [b"007", b"+5", b" 5", b"5 ", b"1_0", b"-0", b"", b"x", b"1" * 5000, b"9" * 4300]
)


@given(st.lists(_canonical_int_st, max_size=20) | st.lists(_int_items_st, max_size=20))
def test_int_values_reads_a_list_as_int_value_reads_each_item(items):
    items = tuple(items)  # as MultiBulk holds them
    assert _outcome(int_values, items) == _outcome(lambda xs: list(map(int_value, xs)), items)


def test_coders_are_built_once_per_declaration():
    ref, fields = RecordRef("Pair"), POOL["Pair"].fields
    assert value_decoder(ref, POOL) is value_decoder(ref, {"Pair": RecordDecl("Pair", fields)})
    assert value_encoder(ref, POOL) is value_encoder(ref, {"Pair": RecordDecl("Pair", fields)})


# Replacements for one field's JSON token: spellings JSON allows but the
# codec does not, and spellings JSON does not allow at all.
_ODD_TOKENS = (
    '"\\u0041"', '"\\ud800"', '"a\\u00e9"', '"\\/"', '"\x01"', '"a\nb"', '"\t"', '"\\n"',
    "-0", "007", "1E5", "1e5", "1.0e+16", "1e+16", "-0.0", "0.0", "1.50", "1.", ".5",
    "NaN", "Infinity", "-Infinity", "1e999", "1" * 5000, "-" + "9" * 5000,
    "true", "false", "True", "null", "1", "1.0", '"x"', "[]", "{}", '"',
)
_BLANKS = (" ", "\n", "\t", "\r", "\x0b", "\u00a0")
_ESCAPES = ("\\u0041", "\\ud800", '\\"', "\\\\")


@st.composite
def record_payloads(draw):
    """A declaration of the fuzz pool and a payload for it: canonical, or perturbed."""
    decl = draw(st.sampled_from(RECORD_POOL))
    values = draw(st.tuples(*(_FIELD_VALUES[base] for _, base in decl.fields)))
    # The canonical key:value pair of each field, by the reference encoder.
    pairs = [
        oracles.record_bytes(RecordDecl(decl.name, (field,)), (value,)).decode("utf-8")[1:-1]
        for field, value in zip(decl.fields, values)
    ]
    how = draw(st.sampled_from(("same", "blank", "shuffle", "repeat", "drop", "token", "escape")))
    if how == "shuffle":
        pairs = draw(st.permutations(pairs))
    elif how == "repeat":
        pairs = pairs + [draw(st.sampled_from(pairs))]
    elif how == "drop":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif how == "token":
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = f'"{decl.fields[i][0]}":' + draw(st.sampled_from(_ODD_TOKENS))
    text = "{" + ",".join(pairs) + "}"
    if how in ("blank", "escape"):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_BLANKS if how == "blank" else _ESCAPES)) + text[at:]
    return decl, text.encode("utf-8")


@settings(max_examples=1000)
@given(record_payloads())
def test_the_record_reader_agrees_with_the_json_reader(decl_data):
    decl, data = decl_data
    read = value_decoder(RecordRef(decl.name), {decl.name: decl})
    try:
        expected = oracles.record_value(decl, data)
    except DecodeError as err:
        with pytest.raises(DecodeError) as got:
            read(data)
        assert (str(got.value), got.value.reason) == (str(err), err.reason)
    else:
        value = read(data)
        assert repr(value) == repr(expected)  # repr tells 1 from 1.0 and from True, and -0.0 from 0.0
        assert data == oracles.record_bytes(decl, value.values)
