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
give byte-identical statistics and programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

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
)

ILL_TYPED_RATE = 0.2

RECORD_POOL: tuple[RecordDecl, ...] = (
    RecordDecl("Pair", (("left", TEXT), ("right", INT))),
    RecordDecl("Point", (("x", FLOAT), ("y", FLOAT))),
    RecordDecl("Flag", (("label", TEXT), ("armed", BOOL))),
)

_KEYS = ("alpha", "beta", "gamma", "delta", "some-key", "cache_0")
_FIELDS = ("f0", "f1", "f2")
_TEXT_ALPHABET = "abdeghjkmpqsuwyz 0159_-#é日\"\\\n\t"


@dataclass
class FuzzConfig:
    iterations: int
    seed: int
    max_len: int = 20
    strict: bool = False


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


@dataclass
class FuzzResult:
    stats: FuzzStats
    counterexample: Program | None = None
    failure: str | None = None


# ---------------------------------------------------------------------------
# program generation


# Each step draws commands until the checker gives the verdict asked
# for; after this many draws it keeps the last, so a checker that accepts
# or rejects everything cannot hang generation.
_DRAW_CAP = 64

_OPCODES = tuple(COMMAND_SHAPES)

# Arguments no dictionary makes well typed: an unbound name, an undeclared
# record, a record of the wrong arity and one with a wrongly typed field.
_MALFORMED: tuple[Expr, ...] = (
    Var("nope"),
    RecordLit("Ghost", (IntLit(1),)),
    RecordLit("Pair", (IntLit(1),)),
    RecordLit("Pair", (IntLit(0), IntLit(0))),
)


class _Generator:
    def __init__(self, rng: random.Random, strict: bool):
        self.rng = rng
        self.strict = strict
        self.records = {r.name: r for r in RECORD_POOL}
        # the checker's dictionary before the next step
        self.xs: dict[str, TypeTag] = {}
        self.env: dict[str, ResultType] = {}
        self.steps = 0
        # the last accepted draw's dictionary after it, and its result type
        self.accepted: tuple[dict[str, TypeTag], ResultType] | None = None

    # ---- small pieces ----

    def any_base(self) -> BaseType:
        if self.rng.random() < 0.25:
            return RecordRef(self.rng.choice(RECORD_POOL).name)
        return self.rng.choice(SCALARS)

    def value(self, base: BaseType) -> Expr:
        """Expression of the given base type: a usable binder or a literal."""
        rng = self.rng
        if rng.random() < 0.3:
            names = [n for n, rt in self.env.items() if rt.binds == base]
            if names:
                return Var(rng.choice(names))
        if base == INT:
            return IntLit(rng.randint(-(10**9), 10**9))
        if base == FLOAT:
            return FloatLit(round(rng.uniform(-1e6, 1e6), rng.randint(0, 6)))
        if base == BOOL:
            return BoolLit(rng.random() < 0.5)
        if base == TEXT:
            return TextLit("".join(rng.choices(_TEXT_ALPHABET, k=rng.randint(0, 8))))
        assert isinstance(base, RecordRef)
        decl = self.records[base.name]
        return RecordLit(base.name, tuple(self.value(fb) for _, fb in decl.fields))

    def random_tag(self) -> TypeTag:
        kind = self.rng.choices((StringOf, ListOf, SetOf, HashOf), weights=(4, 3, 3, 2))[0]
        if kind is HashOf:
            names = self.rng.sample(_FIELDS, self.rng.randint(1, 2))
            return HashOf(tuple((f, StringOf(self.any_base())) for f in names))
        # string<int> keys keep incr in play
        if kind is StringOf and self.rng.random() < 0.4:
            return StringOf(INT)
        return kind(self.any_base())

    def key(self, d: dict[str, TypeTag]) -> str:
        if d and self.rng.random() < 0.75:
            return self.rng.choice(list(d))
        return self.rng.choice(_KEYS)

    def field(self, tag: TypeTag | None) -> str:
        if isinstance(tag, HashOf) and tag.fields and self.rng.random() < 0.75:
            return self.rng.choice(tag.fields)[0]
        return self.rng.choice(_FIELDS)

    def arg(self, tag: TypeTag | None) -> Expr:
        """An argument, mostly of ``tag``'s base type; now and then a malformed one."""
        rng = self.rng
        if rng.random() < 0.05:
            # a malformed argument, or a binder whose result type cannot
            # appear in an expression
            unusable = [Var(n) for n, rt in self.env.items() if rt.binds is None]
            return rng.choice(_MALFORMED + tuple(unusable))
        if isinstance(tag, StringOf | ListOf | SetOf) and rng.random() < 0.6:
            return self.value(tag.base)
        return self.value(self.any_base())

    def draw(self, d: dict[str, TypeTag], span: Span) -> Command:
        """A random command laid out as COMMAND_SHAPES says, aimed at the keys in ``d``."""
        rng = self.rng
        op = rng.choice(_OPCODES)
        n_keys, has_field, n_values, takes_tag = COMMAND_SHAPES[op]
        keys = [self.key(d) for _ in range(n_keys)]
        if n_keys > 1 and rng.random() < 0.5:
            keys[1] = keys[0]
        tag = d.get(keys[0]) if keys else None
        field = self.field(tag) if has_field else None
        if field is not None and isinstance(tag, HashOf):
            tag = dict(tag.fields).get(field)
        return Command(
            op,
            tuple(keys),
            tuple([self.arg(tag) for _ in range(n_values)]),
            field,
            self.random_tag() if takes_tag else None,
            f"v{self.steps}" if rng.random() < 0.4 else None,
            span,
        )

    def step(self, ill_typed: bool) -> tuple[Command, bool]:
        """Draw until the checker rejects (``ill_typed``) or accepts a command.

        Returns (command, rejected); ``.xs`` is left as is.  After at most
        _DRAW_CAP draws the last is kept, whatever its verdict.  The checker
        is reached through the module so that a wrapped ``checker._step`` is
        what classifies the draws.
        """
        self.steps += 1
        span = Span(self.steps + 1, 3)
        for _ in range(_DRAW_CAP):
            after = dict(self.xs)
            cmd = self.draw(after, span)
            try:
                self.accepted = after, checker._step(after, self.env, self.records, cmd, self.strict)
                rejected = False
            except CheckError:
                rejected = True
            if rejected == ill_typed:
                break
        return cmd, rejected


def generate_program(
    rng: random.Random,
    max_len: int = 20,
    strict: bool = False,
    ill_typed_rate: float = ILL_TYPED_RATE,
) -> Program:
    gen = _Generator(rng, strict)
    body: list[Command] = []
    for _ in range(rng.randint(1, max_len)):
        cmd, rejected = gen.step(rng.random() < ill_typed_rate)
        body.append(cmd)
        if rejected:
            break
        assert gen.accepted is not None
        gen.xs, rt = gen.accepted
        if cmd.binder is not None:
            gen.env[cmd.binder] = rt
    return Program(RECORD_POOL, tuple(body))


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
