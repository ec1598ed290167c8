import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest

import redtype
from redtype.checker import INT_RESULT, CheckOk, ListResult, MaybeResult, ScalarResult, check_program
from redtype.codec import RecordValue, TypedValue, decode
from redtype.fuzz import generate_program
from redtype.parser import parse_program, parse_type_tag
from redtype.resp import ReplyDecoder, encode_reply
from redtype.store import BulkReply, ErrReply, IntReply, MemoryStore, MultiBulk, SimpleStatus
from redtype.syntax import (
    COMMAND_SHAPES,
    OPCODES,
    BoolLit,
    Command,
    FloatLit,
    HashOf,
    IntLit,
    ListOf,
    Program,
    RecordDecl,
    RecordLit,
    RecordRef,
    Scalar,
    SetOf,
    Span,
    TextLit,
    Var,
    hash_of,
)
from redtype.syntax import INT, SCALARS, TEXT, Node, StringOf
from redtype.typedict import Found


def test_command_shapes_cover_all_opcodes():
    assert OPCODES == set(COMMAND_SHAPES)
    assert len(COMMAND_SHAPES) == 15
    # Commands with a hash field take exactly one key.
    for op, (n_keys, has_field, n_values, takes_tag) in COMMAND_SHAPES.items():
        if has_field:
            assert n_keys == 1
        if takes_tag:
            assert op == "declare"
    assert COMMAND_SHAPES["sinter"] == (2, False, 0, False)
    assert COMMAND_SHAPES["hset"] == (1, True, 1, False)
    assert COMMAND_SHAPES["ping"] == (0, False, 0, False)


def test_span_is_ignored_by_command_equality():
    a = Command("incr", keys=("c",), span=Span(1, 1))
    b = Command("incr", keys=("c",), span=Span(9, 4))
    assert a == b and hash(a) == hash(b)
    assert a != Command("incr", keys=("d",), span=Span(1, 1))


def test_hash_of_builds_ordered_fields():
    tag = hash_of(("a", StringOf(INT)), ("b", StringOf(INT)))
    assert [f for f, _ in tag.fields] == ["a", "b"]


# One sample of each node class, built twice so equal nodes are distinct objects.
# A tag or result over a scalar base is one shared node, so those classes are
# sampled over a record base; test_shared_nodes covers the scalar bases.
_MESSAGE = RecordRef("Message")
NODES = {
    "IntLit": lambda: IntLit(1),
    "FloatLit": lambda: FloatLit(1.0),
    "BoolLit": lambda: BoolLit(True),
    "TextLit": lambda: TextLit("x"),
    "Var": lambda: Var("x"),
    "RecordLit": lambda: RecordLit("Message", (TextLit("hi"), IntLit(1))),
    "Span": lambda: Span(3, 4),
    "Command": lambda: Command("set", ("k",), (IntLit(1),), binder="v", span=Span(2, 3)),
    "Scalar": lambda: Scalar("int"),
    "RecordRef": lambda: RecordRef("Message"),
    "StringOf": lambda: StringOf(_MESSAGE),
    "ListOf": lambda: ListOf(_MESSAGE),
    "SetOf": lambda: SetOf(_MESSAGE),
    "HashOf": lambda: hash_of(("a", StringOf(INT)), ("b", StringOf(TEXT))),
    "RecordDecl": lambda: RecordDecl("Message", (("body", TEXT), ("id", INT))),
    "Program": lambda: Program((RecordDecl("Message", (("id", INT),)),), (Command("ping"),)),
    "ScalarResult": lambda: ScalarResult("integer", INT),
    "MaybeResult": lambda: MaybeResult(_MESSAGE),
    "ListResult": lambda: ListResult(_MESSAGE),
    "SimpleStatus": lambda: SimpleStatus("OK"),
    "IntReply": lambda: IntReply(1),
    "BulkReply": lambda: BulkReply(b"1"),
    "MultiBulk": lambda: MultiBulk((b"a", b"b")),
    "ErrReply": lambda: ErrReply("ERR x"),
    "TypedValue": lambda: TypedValue(INT, 1),
    "RecordValue": lambda: RecordValue("Message", ("hi", 1)),
    "Found": lambda: Found(StringOf(INT)),
}


_SAME_COMMAND = Command("set", ("k",), (IntLit(1),))
_SAME_NAN = FloatLit(float("nan"))  # equal to itself, as a tuple holding nan is


@pytest.mark.parametrize(
    "a, b",
    [
        (IntLit(1), BoolLit(True)),
        (IntLit(1), FloatLit(1.0)),
        (IntLit(0), BoolLit(False)),
        (Var("x"), TextLit("x")),
        (RecordLit("x", ()), Var("x")),
        (StringOf(INT), ListOf(INT)),
        (Scalar("int"), RecordRef("int")),
        (MaybeResult(INT), ListResult(INT)),
        (IntReply(1), BulkReply(b"1")),
        # a node equals itself
        (INT, INT),
        (_SAME_COMMAND, _SAME_COMMAND),
        (_SAME_NAN, _SAME_NAN),
    ],
)
def test_node_equality_is_class_exact(a, b):
    same = a is b
    assert (a == b) is same and (b == a) is same
    assert (a != b) is not same and (b != a) is not same


@pytest.mark.parametrize("name", NODES)
def test_a_node_never_equals_a_bare_tuple(name):
    node = NODES[name]()
    fields = tuple(getattr(node, f) for f in node.__match_args__)
    assert node != fields and fields != node


@pytest.mark.parametrize("name", NODES)
def test_node_hash_agrees_with_equality(name):
    a, b = NODES[name](), NODES[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NODES)
def test_nodes_are_immutable(name):
    node = NODES[name]()
    first = node.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(node, first, getattr(node, first))
    with pytest.raises(AttributeError):
        node.extra = 1


@pytest.mark.parametrize("name", NODES)
def test_nodes_have_no_instance_dict(name):
    node = NODES[name]()
    assert not hasattr(node, "__dict__")


def test_value_reprs_name_class_and_fields():
    assert repr(StringOf(INT)) == "StringOf(base=Scalar(name='int'))"
    assert repr(INT_RESULT) == "ScalarResult(name='integer', binds=Scalar(name='int'))"
    assert repr(HashOf((("a", StringOf(INT)),))) == "HashOf(fields=(('a', StringOf(base=Scalar(name='int'))),))"


def test_no_class_is_a_frozen_dataclass():
    # Immutable values are Nodes; dataclasses are kept for mutable records.
    frozen = []
    for info in pkgutil.iter_modules(redtype.__path__):
        module = importlib.import_module(f"redtype.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen:
                frozen.append(f"{info.name}.{name}")
    assert frozen == []


# ---------------------------------------------------------------------------
# shared and fast-built nodes: identity is a fast path, never a semantics

_SHARED = (StringOf, ListOf, SetOf, MaybeResult, ListResult)


@pytest.mark.parametrize("cls", _SHARED, ids=lambda c: c.__name__)
@pytest.mark.parametrize("base", SCALARS, ids=lambda b: b.name)
def test_a_scalar_based_tag_or_result_built_twice_is_one_node(cls, base):
    node = cls(base)
    assert type(node) is cls and node.base is base
    assert cls(base) is node and cls(base=base) is node and cls(Scalar(base.name)) is node
    assert copy.copy(node) is node and pickle.loads(pickle.dumps(node)) is node


def test_callers_get_the_shared_nodes():
    assert parse_type_tag("list<int>") is ListOf(INT)
    program = parse_program("program { declare s : set<text>  set k 1  get k  sinter s s }")
    report = check_program(program)
    assert isinstance(report, CheckOk)
    assert [tag for _, tag in report.final] == [SetOf(TEXT), StringOf(INT)]
    assert all(a is b for (_, a), b in zip(report.final, [SetOf(TEXT), StringOf(INT)]))
    assert report.results[2] is MaybeResult(INT) and report.results[3] is ListResult(TEXT)


@pytest.mark.parametrize("cls", _SHARED, ids=lambda c: c.__name__)
def test_a_record_based_tag_or_result_is_built_anew_and_compared_by_fields(cls):
    a, b = cls(RecordRef("Message")), cls(RecordRef("Message"))
    assert a is not b and type(a) is cls
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1 and repr(a) == repr(b)
    assert a != cls(RecordRef("Other")) and a != cls(TEXT)


def test_hash_tags_are_never_shared():
    a, b = hash_of(("f", StringOf(INT))), hash_of(("f", StringOf(INT)))
    assert a is not b and a == b and hash(a) == hash(b)


def _same_node(built, by_class):
    assert type(built) is type(by_class)
    assert built == by_class and by_class == built
    assert hash(built) == hash(by_class)
    assert repr(built) == repr(by_class)


def _rebuilt(value):
    """``value`` built again field by field through each node class's constructor."""
    if isinstance(value, Node):
        return type(value)(*map(_rebuilt, value))
    if isinstance(value, tuple):
        return tuple(map(_rebuilt, value))
    return value


_STORE_TRANSCRIPT = [
    (["PING"], SimpleStatus("PONG")),
    (["SET", "k", "v"], SimpleStatus("OK")),
    (["GET", "k"], BulkReply(b"v")),
    (["GET", "nope"], BulkReply(None)),
    (["SETNX", "k", "w"], IntReply(0)),
    (["SETNX", "n", "41"], IntReply(1)),
    (["INCR", "n"], IntReply(42)),
    (["INCR", "k"], ErrReply("ERR value is not an integer or out of range")),
    (["INCRBYFLOAT", "f", "1.5"], BulkReply(b"1.5")),
    (["LPUSH", "q", "a"], IntReply(1)),
    (["LPUSH", "q", "b"], IntReply(2)),
    (["LLEN", "q"], IntReply(2)),
    (["LLEN", "nope"], IntReply(0)),
    (["RPOP", "q"], BulkReply(b"a")),
    (["RPOP", "nope"], BulkReply(None)),
    (["SADD", "s", "x"], IntReply(1)),
    (["SADD", "s", "x"], IntReply(0)),
    (["SINTER", "s", "s"], MultiBulk((b"x",))),
    (["HSET", "h", "f", "1"], IntReply(1)),
    (["HSET", "h", "f", "2"], IntReply(0)),
    (["HGET", "h", "f"], BulkReply(b"2")),
    (["HGET", "h", "g"], BulkReply(None)),
    (["DEL", "h"], IntReply(1)),
    (["DEL", "h"], IntReply(0)),
    (["GET", "q"], ErrReply("WRONGTYPE Operation against a key holding the wrong kind of value")),
    (["get", "k"], BulkReply(b"v")),
    (["NOPE"], ErrReply("ERR unknown command 'NOPE'")),
    (["get"], ErrReply("ERR wrong number of arguments for 'get' command")),
]


def test_replies_are_as_built_by_their_classes():
    store = MemoryStore()
    for argv, want in _STORE_TRANSCRIPT:
        reply = store.execute([a.encode() for a in argv])
        _same_node(reply, want)
        decoder = ReplyDecoder()
        decoder.feed(encode_reply(reply))
        _same_node(decoder.poll(), want)


def test_decoded_values_are_as_built_by_their_class():
    _same_node(decode(b"1", INT), TypedValue(INT, 1))
    _same_node(decode(b"hi", TEXT), TypedValue(TEXT, "hi"))


def test_generated_nodes_are_as_built_by_their_classes():
    rng = random.Random(3)
    for _ in range(100):
        program = generate_program(rng)
        _same_node(program, _rebuilt(program))
        for cmd in program.body:
            _same_node(cmd, _rebuilt(cmd))
            _same_node(cmd.span, _rebuilt(cmd.span))
            for arg in cmd.args:
                _same_node(arg, _rebuilt(arg))
