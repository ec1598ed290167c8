import dataclasses
import importlib
import pkgutil

import pytest

import redtype
from redtype.checker import INT_RESULT, ListResult, MaybeResult, ScalarResult
from redtype.codec import RecordValue, TypedValue
from redtype.store import BulkReply, ErrReply, IntReply, MultiBulk, SimpleStatus
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
from redtype.syntax import INT, TEXT, StringOf
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
    "StringOf": lambda: StringOf(INT),
    "ListOf": lambda: ListOf(INT),
    "SetOf": lambda: SetOf(TEXT),
    "HashOf": lambda: hash_of(("a", StringOf(INT)), ("b", StringOf(TEXT))),
    "RecordDecl": lambda: RecordDecl("Message", (("body", TEXT), ("id", INT))),
    "Program": lambda: Program((RecordDecl("Message", (("id", INT),)),), (Command("ping"),)),
    "ScalarResult": lambda: ScalarResult("integer", INT),
    "MaybeResult": lambda: MaybeResult(INT),
    "ListResult": lambda: ListResult(TEXT),
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
