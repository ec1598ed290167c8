"""Differential fuzzing: checker verdicts vs. simulator behavior.

Programs are built forward against the evolving symbolic dictionary.  Each
step draws random commands (an opcode, keys the dictionary mostly already
tracks, arguments mostly of their base type, now and then a malformed
one) and lets the checker classify each draw, until it gives the verdict
the step asked for.  20% of steps ask for a rejected command, which ends
the program; such programs must be rejected.  Accepted programs run on a
fresh in-memory store, and any runtime WRONGTYPE or integer/float parse
error is a soundness violation of the checker (in strict mode, decode
failures are violations too), as is a reply that does not fit the result
type the checker gave.  A violation is shrunk by command removal before
being reported.

Generation is driven entirely by one seeded Random, so equal configs
give byte-identical statistics and programs.  The tests pin the programs
of several seeds by digest, so the generator may get faster only while it
calls the same public Random methods with the same arguments in the same
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import checker
from .backend import MemoryBackend, RunError, run_program
from .checker import CheckError, ResultType, check_program
from .resp import ProtocolError
from .store import MemoryStore, NOT_FLOAT_MSG, NOT_INT_MSG
from .syntax import (
    BOOL,
    COMMAND_SHAPES,
    FLOAT,
    INT,
    SCALARS,
    TEXT,
    BaseType,
    BoolLit,
    Command,
    Expr,
    FloatLit,
    HashOf,
    IntLit,
    ListOf,
    Node,
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
    new_node,
)

ILL_TYPED_RATE = 0.2

RECORD_POOL: tuple[RecordDecl, ...] = (
    RecordDecl("Pair", (("left", TEXT), ("right", INT))),
    RecordDecl("Point", (("x", FLOAT), ("y", FLOAT))),
    RecordDecl("Flag", (("label", TEXT), ("armed", BOOL))),
)

_RECORDS = {r.name: r for r in RECORD_POOL}  # read only
_KEYS = ("alpha", "beta", "gamma", "delta", "some-key", "cache_0")
_FIELDS = ("f0", "f1", "f2")
_TEXT_ALPHABET = "abdeghjkmpqsuwyz 0159_-#é日\"\\\n\t"


class _ConfigFields(NamedTuple):
    iterations: int
    seed: int
    max_len: int = 20
    strict: bool = False


class FuzzConfig(Node, _ConfigFields):
    __slots__ = ()


@dataclass
class FuzzStats:
    iterations: int = 0
    accepted: int = 0
    rejected: int = 0
    wrongtype: int = 0
    parse_errors: int = 0
    decode_failures: int = 0
    other_errors: int = 0

    def lines(self) -> list[str]:
        return [
            f"iterations: {self.iterations}",
            f"accepted: {self.accepted}",
            f"rejected: {self.rejected}",
            f"runtime WRONGTYPE errors: {self.wrongtype}",
            f"runtime parse errors: {self.parse_errors}",
            f"decode failures: {self.decode_failures}",
            f"other errors: {self.other_errors}",
        ]


class _ResultFields(NamedTuple):
    stats: FuzzStats
    counterexample: Program | None = None
    failure: str | None = None


class FuzzResult(Node, _ResultFields):
    __slots__ = ()


# ---------------------------------------------------------------------------
# program generation


# Each step draws commands until the checker gives the verdict asked
# for; after this many draws it keeps the last, so a checker that accepts
# or rejects everything cannot hang generation.
_DRAW_CAP = 64

_SHAPES = tuple(COMMAND_SHAPES.items())
# draw spells out the layouts there are: at most two keys and one value
assert all(n_keys <= 2 and n_values <= 1 for n_keys, _, n_values, _ in COMMAND_SHAPES.values())
# the tags whose base an argument mostly takes
_ELEMENT_TAGS = (StringOf, ListOf, SetOf)

# Arguments no dictionary makes well typed: an unbound name, an undeclared
# record, a record of the wrong arity and one with a wrongly typed field.
_MALFORMED: tuple[Expr, ...] = (
    Var("nope"),
    RecordLit("Ghost", (IntLit(1),)),
    RecordLit("Pair", (IntLit(1),)),
    RecordLit("Pair", (IntLit(0), IntLit(0))),
)

# The pool's records as bases, one shared node each, in RECORD_POOL's order,
# and each record's field bases in order.
_POOL_BASES = tuple(new_node(RecordRef, (r.name,)) for r in RECORD_POOL)
_FIELD_BASES = {r.name: tuple(fb for _, fb in r.fields) for r in RECORD_POOL}

# A scalar base's literal maker.  A table lookup, not a chain of ``base ==``
# tests, each of which runs Node.__eq__.
_LITERALS: dict[BaseType, Callable[[random.Random], Expr]] = {
    INT: lambda rng: new_node(IntLit, (rng.randint(-(10**9), 10**9),)),
    FLOAT: lambda rng: new_node(FloatLit, (round(rng.uniform(-1e6, 1e6), rng.randint(0, 6)),)),
    BOOL: lambda rng: new_node(BoolLit, (rng.random() < 0.5,)),
    TEXT: lambda rng: new_node(TextLit, ("".join(rng.choices(_TEXT_ALPHABET, k=rng.randint(0, 8))),)),
}


class _Generator:
    def __init__(self, rng: random.Random, strict: bool):
        self.rng = rng
        self.strict = strict
        self.records = _RECORDS
        # the checker's dictionary before the next step
        self.xs: dict[str, TypeTag] = {}
        self.env: dict[str, ResultType] = {}
        # The binders so far, in binding order, as Vars: those usable in an
        # expression by their base type, the rest among the malformed arguments.
        self.binders: dict[BaseType, list[Var]] = {}
        self.malformed: list[Expr] = list(_MALFORMED)
        self.steps = 0

    def bind(self, name: str, rt: ResultType) -> None:
        self.env[name] = rt
        var = new_node(Var, (name,))
        if rt.binds is None:
            self.malformed.append(var)
        else:
            self.binders.setdefault(rt.binds, []).append(var)

    # ---- small pieces ----

    def any_base(self) -> BaseType:
        return self.rng.choice(_POOL_BASES if self.rng.random() < 0.25 else SCALARS)

    def value(self, base: BaseType) -> Expr:
        """Expression of the given base type: a usable binder or a literal."""
        rng = self.rng
        if rng.random() < 0.3:
            usable = self.binders.get(base)
            if usable:
                return rng.choice(usable)
        make = _LITERALS.get(base)
        if make is not None:
            return make(rng)
        assert isinstance(base, RecordRef)
        return new_node(RecordLit, (base.name, tuple(map(self.value, _FIELD_BASES[base.name]))))

    def random_tag(self) -> TypeTag:
        kind = self.rng.choices((StringOf, ListOf, SetOf, HashOf), cum_weights=(4, 7, 10, 12))[0]
        if kind is HashOf:
            names = self.rng.sample(_FIELDS, self.rng.randint(1, 2))
            return HashOf(tuple((f, StringOf(self.any_base())) for f in names))
        # string<int> keys keep incr in play
        if kind is StringOf and self.rng.random() < 0.4:
            return StringOf(INT)
        return kind(self.any_base())

    def arg(self, tag: TypeTag | None) -> Expr:
        """An argument, mostly of ``tag``'s base type; now and then a malformed one."""
        rng = self.rng
        if rng.random() < 0.05:
            # a malformed argument, or a binder whose result type cannot
            # appear in an expression
            return rng.choice(self.malformed)
        if isinstance(tag, _ELEMENT_TAGS) and rng.random() < 0.6:
            return self.value(tag.base)
        return self.value(self.any_base())

    def draw(self, d: dict[str, TypeTag], tracked: list[str], span: Span) -> Command:
        """A random command laid out as COMMAND_SHAPES says, aimed at the keys in ``d``, listed in ``tracked``."""
        rng = self.rng
        op, (n_keys, has_field, n_values, takes_tag) = rng.choice(_SHAPES)
        keys: tuple[str, ...] = ()
        tag = None
        if n_keys:
            # keys mostly among those the dictionary tracks
            k = rng.choice(tracked if tracked and rng.random() < 0.75 else _KEYS)
            keys = (k,)
            if n_keys == 2:  # sinter, on one key twice half the time
                k2 = rng.choice(tracked if tracked and rng.random() < 0.75 else _KEYS)
                keys = (k, k) if rng.random() < 0.5 else (k, k2)
            tag = d.get(k)
        field = None
        if has_field:
            # mostly a field the hash tracks
            if isinstance(tag, HashOf):
                if tag.fields and rng.random() < 0.75:
                    field, tag = rng.choice(tag.fields)
                else:
                    field = rng.choice(_FIELDS)
                    tag = dict(tag.fields).get(field)
            else:
                field = rng.choice(_FIELDS)
        # the fields in Command's order, drawn in that order
        return new_node(Command, (
            op,
            keys,
            (self.arg(tag),) if n_values else (),
            field,
            self.random_tag() if takes_tag else None,
            f"v{self.steps}" if rng.random() < 0.4 else None,
            span,
        ))

    def step(self, ill_typed: bool) -> tuple[Command, tuple[dict[str, TypeTag], ResultType] | None]:
        """Draw until the checker rejects (``ill_typed``) or accepts a command.

        Returns the command with the dictionary after it and its result type, or with
        None if it was rejected; ``.xs`` is left as is.  After at most _DRAW_CAP draws
        the last is kept, whatever its verdict.  The checker is reached through the
        module so that a wrapped ``checker._step`` is what classifies the draws.
        """
        self.steps += 1
        span = new_node(Span, (self.steps + 1, 3))
        draw, classify = self.draw, checker._step
        xs, env, records, strict = self.xs, self.env, self.records, self.strict
        after = dict(xs)
        tracked = list(after)
        for _ in range(_DRAW_CAP):
            cmd = draw(after, tracked, span)
            try:
                accepted = after, classify(after, env, records, cmd, strict)
            except CheckError:
                accepted = None
            if (accepted is None) == ill_typed:
                break
            if accepted is not None:  # the checker changed ``after``; a rejected draw leaves it as it was
                after = dict(xs)
        return cmd, accepted


def generate_program(
    rng: random.Random,
    max_len: int = 20,
    strict: bool = False,
    ill_typed_rate: float = ILL_TYPED_RATE,
) -> Program:
    gen = _Generator(rng, strict)
    body: list[Command] = []
    for _ in range(rng.randint(1, max_len)):
        cmd, accepted = gen.step(rng.random() < ill_typed_rate)
        body.append(cmd)
        if accepted is None:
            break
        gen.xs, rt = accepted
        if cmd.binder is not None:
            gen.bind(cmd.binder, rt)
    return new_node(Program, (RECORD_POOL, tuple(body)))


# ---------------------------------------------------------------------------
# differential loop


def classify(outcome: RunError) -> str:
    msg = outcome.message
    if msg.startswith("WRONGTYPE"):
        return "wrongtype"
    if msg.startswith(NOT_INT_MSG) or msg.startswith(NOT_FLOAT_MSG):
        return "parse"
    if msg.startswith("DECODE"):
        return "decode"
    return "other"


_GATING = {
    False: ("wrongtype", "parse", "unfit"),
    True: ("wrongtype", "parse", "decode", "unfit"),
}


def _trial(program: Program, strict: bool) -> tuple[str, str]:
    """Check from ``[]`` and run on a fresh store if accepted: (kind, error message).

    The kind is "rejected", "ok", classify's bucket, or "unfit" when a reply
    or an argument does not fit the types the checker gave; the message is
    "" unless the run failed."""
    report = check_program(program, [], strict)
    if isinstance(report, CheckError):
        return "rejected", ""
    try:
        outcome = run_program(program, report, MemoryBackend(MemoryStore()))
    except (ProtocolError, CheckError) as err:
        return "unfit", str(err)
    if isinstance(outcome, RunError):
        return classify(outcome), outcome.message
    return "ok", ""


def shrink(program: Program, still_failing: Callable[[Program], bool]) -> Program:
    """Greedy command removal; keeps a candidate while it still fails."""
    body = list(program.body)
    improved = True
    while improved:
        improved = False
        for i in range(len(body)):
            candidate = Program(program.records, tuple(body[:i] + body[i + 1 :]))
            if still_failing(candidate):
                body = list(candidate.body)
                improved = True
                break
    return Program(program.records, tuple(body))


def run_fuzz(config: FuzzConfig) -> FuzzResult:
    rng = random.Random(config.seed)
    stats = FuzzStats()
    for _ in range(config.iterations):
        stats.iterations += 1
        program = generate_program(rng, config.max_len, config.strict)
        kind, message = _trial(program, config.strict)
        if kind == "rejected":
            stats.rejected += 1
            continue
        stats.accepted += 1
        if kind == "wrongtype":
            stats.wrongtype += 1
        elif kind == "parse":
            stats.parse_errors += 1
        elif kind == "decode":
            stats.decode_failures += 1
        elif kind != "ok":
            stats.other_errors += 1
        if kind in _GATING[config.strict]:
            small = shrink(program, lambda p: _trial(p, config.strict)[0] in _GATING[config.strict])
            return FuzzResult(stats, small, message)
    return FuzzResult(stats)
