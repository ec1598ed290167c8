"""Differential fuzzing: checker verdicts vs. simulator behavior.

Programs are built forward against the evolving symbolic dictionary, so
every step knows which commands are currently well-typed; 20% of steps
deliberately violate a precondition instead (those programs must be
rejected).  Accepted programs run on a fresh in-memory store, and any
runtime WRONGTYPE or integer/float parse error is a soundness violation
of the checker (in strict mode, decode failures are violations too).
A violation is shrunk by command removal before being reported.

Generation is driven entirely by one seeded Random, so equal configs
give byte-identical statistics and programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from .backend import MemoryBackend, RunError, run_program
from .checker import (
    _SCALAR_BASES,
    CheckError,
    MaybeResult,
    ResultType,
    check_command,
    check_program,
)
from .store import MemoryStore, NOT_FLOAT_MSG, NOT_INT_MSG
from .syntax import (
    BOOL,
    FLOAT,
    INT,
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
from .typedict import TypeDict, dict_member

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
        ]


@dataclass
class FuzzResult:
    stats: FuzzStats
    counterexample: Program | None = None
    failure: str | None = None


# ---------------------------------------------------------------------------
# program generation


# A step's candidates are plain data, (opcode, keys, value, field), and only
# the drawn one is built into a Command.  ``value`` is None (no argument), a
# base type (a literal or binder of it), _ANY (of a random base type), or a
# fixed ill-typed Expr.
_ANY = object()
_Candidate = tuple[str, tuple[str, ...], object, "str | None"]

# Well-typed on a pool key that is not tracked yet.
_ON_FREE_KEY = (("setnx", _ANY), ("declare", None), ("lpush", _ANY), ("llen", None), ("sadd", _ANY))


class _Generator:
    def __init__(self, rng: random.Random, strict: bool):
        self.rng = rng
        self.strict = strict
        self.records = {r.name: r for r in RECORD_POOL}
        self.xs: TypeDict = []
        self.env: dict[str, ResultType] = {}
        self.binder_count = 0

    # ---- small pieces ----

    def any_base(self) -> BaseType:
        if self.rng.random() < 0.25:
            return RecordRef(self.rng.choice(RECORD_POOL).name)
        return self.rng.choice((INT, FLOAT, BOOL, TEXT))

    def value(self, base: BaseType) -> Expr:
        """Expression of the given base type: a usable binder or a literal."""
        rng = self.rng
        if rng.random() < 0.3:
            names = [n for n, rt in self.env.items() if _SCALAR_BASES.get(type(rt)) == base]
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

    def missing_key(self) -> str:
        n = 1
        while dict_member(self.xs, f"missing-{n}"):
            n += 1
        return f"missing-{n}"

    def build(self, candidate: _Candidate, binder: str | None) -> Command:
        op, keys, value, field = candidate
        if op == "declare":
            return Command(op, keys=keys, declared=self.random_tag(), binder=binder)
        if value is _ANY:
            value = self.any_base()
        if isinstance(value, BaseType):
            value = self.value(value)
        args = () if value is None else (value,)
        return Command(op, keys=keys, args=args, field_name=field, binder=binder)

    # ---- well-typed steps ----

    def good_candidates(self, kinds: dict[type, TypeDict]) -> list[_Candidate]:
        rng = self.rng
        key = (rng.choice(_KEYS),)
        out: list[_Candidate] = [("ping", (), None, None), ("set", key, _ANY, None), ("del", key, None, None)]

        free = [k for k in _KEYS if not dict_member(self.xs, k)]
        if free:
            k = rng.choice(free)
            out += [(op, (k,), value, None) for op, value in _ON_FREE_KEY]
            out.append(("hset", (k,), _ANY, rng.choice(_FIELDS)))

        strings = kinds[StringOf]
        if strings:
            k, tag = rng.choice(strings)
            out += [("setnx", (k,), tag.base, None), ("get", (k,), None, None)]
        counters = [k for k, tag in strings if tag.base == INT]
        if counters:
            out.append(("incr", (rng.choice(counters),), None, None))
        floats = [k for k, tag in strings if tag.base == FLOAT]
        if floats:
            out.append(("incrbyfloat", (rng.choice(floats),), FLOAT, None))

        for op, group in (("lpush", kinds[ListOf]), ("sadd", kinds[SetOf])):
            if group:
                k, tag = rng.choice(group)
                # default mode may push other element types: reading them back
                # is a counted decode failure, not a violation
                elem = tag.base if self.strict or rng.random() < 0.7 else _ANY
                out.append((op, (k,), elem, None))
                if op == "lpush":
                    out += [("llen", (k,), None, None), ("rpop", (rng.choice(group)[0],), None, None)]
        by_base: dict[BaseType, list[str]] = {}
        for k, tag in kinds[SetOf]:
            by_base.setdefault(tag.base, []).append(k)
        if by_base:
            ks = rng.choice(list(by_base.values()))
            out.append(("sinter", (rng.choice(ks), rng.choice(ks)), None, None))

        if kinds[HashOf]:
            k, tag = rng.choice(kinds[HashOf])
            out.append(("hset", (k,), _ANY, rng.choice(_FIELDS)))
            if tag.fields:
                out.append(("hget", (k,), None, rng.choice(tag.fields)[0]))
        return out

    # ---- deliberately ill-typed steps ----

    def bad_candidates(self, kinds: dict[type, TypeDict]) -> list[_Candidate]:
        rng = self.rng
        missing = (self.missing_key(),)
        key = (rng.choice(_KEYS),)
        out: list[_Candidate] = [
            ("incr", missing, None, None),
            ("get", missing, None, None),
            ("rpop", missing, None, None),
            ("set", key, Var("nope"), None),
            ("set", key, RecordLit("Ghost", (IntLit(1),)), None),
            ("set", key, RecordLit("Pair", (IntLit(1),)), None),
            ("set", key, RecordLit("Pair", (IntLit(0), IntLit(0))), None),
            ("incrbyfloat", key, IntLit(1), None),
        ]

        if self.xs:
            k, tag = rng.choice(self.xs)
            out.append(("declare", (k,), None, None))
            if tag != StringOf(INT):
                out.append(("incr", (k,), None, None))
            if not isinstance(tag, ListOf):
                out += [("lpush", (k,), _ANY, None), ("llen", (k,), None, None), ("rpop", (k,), None, None)]
            if not isinstance(tag, SetOf):
                out += [("sadd", (k,), _ANY, None), ("sinter", (k, k), None, None)]
            if not isinstance(tag, HashOf):
                out += [("hset", (k,), IntLit(7), rng.choice(_FIELDS)), ("hget", (k,), None, rng.choice(_FIELDS))]
            if not isinstance(tag, StringOf):
                out += [("get", (k,), None, None), ("setnx", (k,), _ANY, None)]

        if kinds[HashOf]:
            k, tag = rng.choice(kinds[HashOf])
            unknown = [f for f in _FIELDS if f not in dict(tag.fields)]
            if unknown:
                out.append(("hget", (k,), None, rng.choice(unknown)))

        maybe_binders = [n for n, rt in self.env.items() if isinstance(rt, MaybeResult)]
        if maybe_binders:
            out.append(("set", key, Var(rng.choice(maybe_binders)), None))

        if self.strict and kinds[ListOf]:
            k, tag = rng.choice(kinds[ListOf])
            out.append(("lpush", (k,), IntLit(7) if tag.base != INT else TextLit("7"), None))
        return out

    def step(self, ill_typed: bool) -> tuple[Command, bool]:
        """Produce the next command; returns (command, was_ill_typed)."""
        kinds: dict[type, TypeDict] = {StringOf: [], ListOf: [], SetOf: [], HashOf: []}
        for entry in self.xs:
            kinds[type(entry[1])].append(entry)
        pool = self.bad_candidates(kinds) if ill_typed else self.good_candidates(kinds)
        candidate = self.rng.choice(pool)
        binder = None
        if not ill_typed and self.rng.random() < 0.4:
            self.binder_count += 1
            binder = f"v{self.binder_count}"
        return self.build(candidate, binder), ill_typed


def generate_program(
    rng: random.Random,
    max_len: int = 20,
    strict: bool = False,
    ill_typed_rate: float = ILL_TYPED_RATE,
) -> Program:
    gen = _Generator(rng, strict)
    length = rng.randint(1, max_len)
    body: list[Command] = []
    for i in range(length):
        cmd, was_bad = gen.step(rng.random() < ill_typed_rate)
        cmd = replace(cmd, span=Span(i + 2, 3))
        body.append(cmd)
        if was_bad:
            break
        gen.xs, rt = check_command(gen.xs, gen.env, gen.records, cmd, strict)
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
    False: ("wrongtype", "parse"),
    True: ("wrongtype", "parse", "decode"),
}


def _trial(program: Program, strict: bool) -> tuple[str, str]:
    """Check from ``[]`` and run on a fresh store if accepted: (kind, error message).

    The kind is "rejected", "ok" or classify's bucket; the message is "" unless the run failed."""
    report = check_program(program, [], strict)
    if isinstance(report, CheckError):
        return "rejected", ""
    outcome = run_program(program, report, MemoryBackend(MemoryStore()))
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
        elif kind == "other":
            stats.other_errors += 1
        if kind in _GATING[config.strict]:
            small = shrink(program, lambda p: _trial(p, config.strict)[0] in _GATING[config.strict])
            return FuzzResult(stats, small, message)
    return FuzzResult(stats)
