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
    BoolResult,
    CheckError,
    FloatResult,
    IntResult,
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

_SCALARS: tuple[BaseType, ...] = (INT, FLOAT, BOOL, TEXT)


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


class _Generator:
    def __init__(self, rng: random.Random, strict: bool):
        self.rng = rng
        self.strict = strict
        self.records = {r.name: r for r in RECORD_POOL}
        self.xs: TypeDict = []
        self.env: dict[str, ResultType] = {}
        self.binder_count = 0
        self.missing_count = 0

    # ---- small pieces ----

    def any_base(self) -> BaseType:
        if self.rng.random() < 0.25:
            return RecordRef(self.rng.choice(RECORD_POOL).name)
        return self.rng.choice(_SCALARS)

    def literal(self, base: BaseType) -> Expr:
        rng = self.rng
        if base == INT:
            return IntLit(rng.randint(-(10**9), 10**9))
        if base == FLOAT:
            return FloatLit(round(rng.uniform(-1e6, 1e6), rng.randint(0, 6)))
        if base == BOOL:
            return BoolLit(rng.random() < 0.5)
        if base == TEXT:
            n = rng.randint(0, 8)
            return TextLit("".join(rng.choice(_TEXT_ALPHABET) for _ in range(n)))
        assert isinstance(base, RecordRef)
        decl = self.records[base.name]
        return RecordLit(base.name, tuple(self.value(fb) for _, fb in decl.fields))

    def value(self, base: BaseType) -> Expr:
        """Expression of the given base type: literal or a usable binder."""
        wanted = {INT: IntResult, FLOAT: FloatResult, BOOL: BoolResult}.get(base)
        if wanted is not None and self.rng.random() < 0.3:
            names = [n for n, rt in self.env.items() if isinstance(rt, wanted)]
            if names:
                return Var(self.rng.choice(names))
        return self.literal(base)

    def random_tag(self) -> TypeTag:
        kind = self.rng.choices(("string", "list", "set", "hash"), weights=(4, 3, 3, 2))[0]
        if kind == "string":
            # string<int> keys keep incr in play
            base = INT if self.rng.random() < 0.4 else self.any_base()
            return StringOf(base)
        if kind == "list":
            return ListOf(self.any_base())
        if kind == "set":
            return SetOf(self.any_base())
        n = self.rng.randint(1, 2)
        fields = tuple(
            (f, StringOf(self.any_base())) for f in self.rng.sample(_FIELDS, n)
        )
        return HashOf(fields)

    def tracked(self, want=None) -> list[tuple[str, TypeTag]]:
        if want is None:
            return list(self.xs)
        return [(k, t) for k, t in self.xs if want(t)]

    def untracked_pool_key(self) -> str | None:
        free = [k for k in _KEYS if not dict_member(self.xs, k)]
        return self.rng.choice(free) if free else None

    def missing_key(self) -> str:
        while True:
            self.missing_count += 1
            k = f"missing-{self.missing_count}"
            if not dict_member(self.xs, k):
                return k

    def write(self, op: str, k: str, base: BaseType) -> Command:
        return Command(op, keys=(k,), args=(self.value(base),))

    def write_any(self, op: str, k: str) -> Command:
        """``op k v`` with a value of a random base type."""
        return Command(op, keys=(k,), args=(self.value(self.any_base()),))

    def hset_any(self, k: str) -> Command:
        return Command("hset", keys=(k,), args=(self.value(self.any_base()),), field_name=self.rng.choice(_FIELDS))

    # ---- well-typed steps ----

    def good_candidates(self) -> list[Command]:
        rng = self.rng
        out: list[Command] = []
        out.append(Command("ping"))

        out.append(self.write_any("set", rng.choice(_KEYS)))

        free = self.untracked_pool_key()
        if free is not None:
            out.append(self.write_any("setnx", free))
            out.append(Command("declare", keys=(free,), declared=self.random_tag()))
        strings = self.tracked(lambda t: isinstance(t, StringOf))
        if strings:
            k, tag = rng.choice(strings)
            out.append(self.write("setnx", k, tag.base))
            out.append(Command("get", keys=(k,)))

        out.append(Command("del", keys=(rng.choice(_KEYS),)))

        counters = self.tracked(lambda t: t == StringOf(INT))
        if counters:
            out.append(Command("incr", keys=(rng.choice(counters)[0],)))
        floats = self.tracked(lambda t: t == StringOf(FLOAT))
        if floats:
            out.append(self.write("incrbyfloat", rng.choice(floats)[0], FLOAT))

        lists = self.tracked(lambda t: isinstance(t, ListOf))
        if lists:
            k, tag = rng.choice(lists)
            elem = tag.base if self.strict or rng.random() < 0.7 else self.any_base()
            out.append(self.write("lpush", k, elem))
            out.append(Command("llen", keys=(k,)))
            out.append(Command("rpop", keys=(rng.choice(lists)[0],)))
        if free is not None:
            out.append(self.write_any("lpush", free))
            out.append(Command("llen", keys=(free,)))

        sets = self.tracked(lambda t: isinstance(t, SetOf))
        if sets:
            k, tag = rng.choice(sets)
            elem = tag.base if self.strict or rng.random() < 0.7 else self.any_base()
            out.append(self.write("sadd", k, elem))
        if free is not None:
            out.append(self.write_any("sadd", free))
        by_base: dict[str, list[str]] = {}
        for k, tag in sets:
            by_base.setdefault(repr(tag.base), []).append(k)
        pairs = [ks for ks in by_base.values()]
        if pairs:
            ks = rng.choice(pairs)
            out.append(Command("sinter", keys=(rng.choice(ks), rng.choice(ks))))

        hashes = self.tracked(lambda t: isinstance(t, HashOf))
        if hashes:
            k, tag = rng.choice(hashes)
            out.append(self.hset_any(k))
            if tag.fields:
                fname, _ = rng.choice(tag.fields)
                out.append(Command("hget", keys=(k,), field_name=fname))
        if free is not None:
            out.append(self.hset_any(free))
        return out

    # ---- deliberately ill-typed steps ----

    def bad_candidates(self) -> list[Command]:
        rng = self.rng
        out: list[Command] = []

        out.append(Command("incr", keys=(self.missing_key(),)))
        out.append(Command("get", keys=(self.missing_key(),)))
        out.append(Command("rpop", keys=(self.missing_key(),)))
        out.append(Command("set", keys=(rng.choice(_KEYS),), args=(Var(f"nope{self.missing_count}"),)))
        out.append(Command("set", keys=(rng.choice(_KEYS),), args=(RecordLit("Ghost", (IntLit(1),)),)))
        out.append(Command("set", keys=(rng.choice(_KEYS),), args=(RecordLit("Pair", (IntLit(1),)),)))
        out.append(
            Command("set", keys=(rng.choice(_KEYS),), args=(RecordLit("Pair", (IntLit(0), IntLit(0))),))
        )
        out.append(Command("incrbyfloat", keys=(rng.choice(_KEYS),), args=(IntLit(1),)))

        tracked = self.tracked()
        if tracked:
            k, tag = rng.choice(tracked)
            out.append(Command("declare", keys=(k,), declared=self.random_tag()))
            if not isinstance(tag, StringOf) or tag.base != INT:
                out.append(Command("incr", keys=(k,)))
            if not isinstance(tag, ListOf):
                out.append(self.write_any("lpush", k))
                out.append(Command("llen", keys=(k,)))
                out.append(Command("rpop", keys=(k,)))
            if not isinstance(tag, SetOf):
                out.append(self.write_any("sadd", k))
                out.append(Command("sinter", keys=(k, k)))
            if not isinstance(tag, HashOf):
                out.append(
                    Command("hset", keys=(k,), args=(IntLit(7),), field_name=rng.choice(_FIELDS))
                )
                out.append(Command("hget", keys=(k,), field_name=rng.choice(_FIELDS)))
            if not isinstance(tag, StringOf):
                out.append(Command("get", keys=(k,)))
                out.append(self.write_any("setnx", k))

        hashes = self.tracked(lambda t: isinstance(t, HashOf))
        if hashes:
            k, tag = rng.choice(hashes)
            known = {f for f, _ in tag.fields}
            unknown = [f for f in _FIELDS if f not in known]
            if unknown:
                out.append(Command("hget", keys=(k,), field_name=rng.choice(unknown)))

        maybe_binders = [n for n, rt in self.env.items() if isinstance(rt, MaybeResult)]
        if maybe_binders:
            out.append(
                Command("set", keys=(rng.choice(_KEYS),), args=(Var(rng.choice(maybe_binders)),))
            )

        if self.strict:
            lists = self.tracked(lambda t: isinstance(t, ListOf))
            if lists:
                k, tag = rng.choice(lists)
                other = INT if tag.base != INT else TEXT
                out.append(Command("lpush", keys=(k,), args=(self.literal(other),)))
        return out

    def step(self, ill_typed: bool) -> tuple[Command, bool]:
        """Produce the next command; returns (command, was_ill_typed)."""
        pool = self.bad_candidates() if ill_typed else self.good_candidates()
        cmd = self.rng.choice(pool)
        if not ill_typed and self.rng.random() < 0.4:
            self.binder_count += 1
            cmd = replace(cmd, binder=f"v{self.binder_count}")
        return cmd, ill_typed


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
        xs, rt = check_command(gen.xs, gen.env, gen.records, cmd, strict)
        gen.xs = xs
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


def _violation_kind(program: Program, strict: bool) -> str | None:
    """Re-runs the program; the soundness predicate used by the shrinker."""
    report = check_program(program, [], strict)
    if isinstance(report, CheckError):
        return None
    outcome = run_program(program, report, MemoryBackend(MemoryStore()))
    if isinstance(outcome, RunError) and classify(outcome) in _GATING[strict]:
        return classify(outcome)
    return None


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
        report = check_program(program, [], config.strict)
        if isinstance(report, CheckError):
            stats.rejected += 1
            continue
        stats.accepted += 1
        outcome = run_program(program, report, MemoryBackend(MemoryStore()))
        if isinstance(outcome, RunError):
            kind = classify(outcome)
            if kind == "wrongtype":
                stats.wrongtype += 1
            elif kind == "parse":
                stats.parse_errors += 1
            elif kind == "decode":
                stats.decode_failures += 1
            else:
                stats.other_errors += 1
            if kind in _GATING[config.strict]:
                small = shrink(
                    program, lambda p: _violation_kind(p, config.strict) is not None
                )
                return FuzzResult(stats, small, outcome.message)
    return FuzzResult(stats)
