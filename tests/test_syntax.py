import pytest

from redtype.syntax import (
    COMMAND_SHAPES,
    OPCODES,
    BoolLit,
    Command,
    FloatLit,
    IntLit,
    RecordLit,
    Span,
    TextLit,
    Var,
    expr_free_vars,
    hash_of,
)
from redtype.syntax import INT, StringOf


def test_free_vars_of_literals_is_empty():
    assert expr_free_vars(IntLit(3)) == set()
    assert expr_free_vars(TextLit("x")) == set()


def test_free_vars_of_var():
    assert expr_free_vars(Var("i")) == {"i"}


def test_free_vars_of_record_literal():
    e = RecordLit("Message", (TextLit("hello"), Var("i")))
    assert expr_free_vars(e) == {"i"}
    nested = RecordLit("Outer", (Var("a"), RecordLit("Inner", (Var("b"),))))
    assert expr_free_vars(nested) == {"a", "b"}


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
}


@pytest.mark.parametrize(
    "a, b",
    [
        (IntLit(1), BoolLit(True)),
        (IntLit(1), FloatLit(1.0)),
        (IntLit(0), BoolLit(False)),
        (Var("x"), TextLit("x")),
        (RecordLit("x", ()), Var("x")),
    ],
)
def test_node_equality_is_class_exact(a, b):
    assert a != b and b != a
    assert not a == b


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
