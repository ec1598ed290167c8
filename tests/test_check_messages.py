"""Golden checker messages: the exact text of every rejection the checker emits.

The constraint IDs are pinned elsewhere; this pins the full
``str(CheckError)`` (span, constraint, opcode, detail), because the
human report and the ``--json`` message field both print it verbatim.
One program per message template, so every branch of every rule shows.
"""

from __future__ import annotations

import pytest

from redtype.checker import CheckError, check_program
from redtype.parser import parse_program

MESSAGE = "record Message { body: text, id: int }\n"

CASES = [
    # (source body lines, strict, expected str(CheckError))
    (
        ["x <- get k"],
        False,
        "3:8: GetStuck: get: key 'k' is not in the dictionary",
    ),
    (
        ["declare k : string<int>", "declare k : list<int>"],
        False,
        "4:3: NotMember-violated: declare: key 'k' is already tracked as string<int>",
    ),
    (
        ["declare k : list<Ghost>"],
        False,
        "3:3: UnknownRecord: declare: no record named 'Ghost' is declared",
    ),
    (
        ["declare k : hash<f: string<int>, g: string<Ghost>>"],
        False,
        "3:3: UnknownRecord: declare: no record named 'Ghost' is declared",
    ),
    (
        ["set k Ghost{1}"],
        False,
        "3:3: UnknownRecord: set: no record named 'Ghost' is declared",
    ),
    (
        ["set k nope"],
        False,
        "3:3: UnknownVariable: set: no binder named 'nope' in scope",
    ),
    (
        ["set k Message{\"hi\"}"],
        False,
        "3:3: ArityMismatch: set: record 'Message' has 2 fields but 1 arguments were given",
    ),
    (
        ["set k Message{1, 2}"],
        False,
        "3:3: ElementTypeMismatch: set: field 'body' of record 'Message' takes text, got int",
    ),
    (
        ["set k 1", "v <- get k", "set j v"],
        False,
        "5:3: ElementTypeMismatch: set: binder 'v' has result type maybe<int>, "
        "which cannot appear in an expression",
    ),
    (
        ["lpush k 1", "setnx k 1"],
        False,
        "4:3: GetEquality-failed: setnx: key 'k' is tracked as list<int>, but setnx may write a "
        "string<int> if the key is unset",
    ),
    (
        ["set k 1", "setnx k \"one\""],
        False,
        "4:3: GetEquality-failed: setnx: key 'k' is tracked as string<int>, but setnx may write a "
        "string<text> if the key is unset",
    ),
    (
        ["sadd k 1", "get k"],
        False,
        "4:3: GetEquality-failed: get: key 'k' holds set<int>, not a string",
    ),
    (
        ["set k 1.5", "incr k"],
        False,
        "4:3: GetEquality-failed: incr: key 'k' holds string<float>, not string<int>",
    ),
    (
        ["incr k"],
        False,
        "3:3: GetStuck: incr: key 'k' is not in the dictionary",
    ),
    (
        ["set k 1.5", "incrbyfloat k 1"],
        False,
        "4:3: ElementTypeMismatch: incrbyfloat: incrbyfloat takes a float increment, got int",
    ),
    (
        ["set k 1", "incrbyfloat k 1.0"],
        False,
        "4:3: GetEquality-failed: incrbyfloat: key 'k' holds string<int>, not string<float>",
    ),
    (
        ["set k true", "lpush k 1"],
        False,
        "4:3: ListOrNX-violated: lpush: key 'k' holds string<bool>, not a list",
    ),
    (
        ["hset k f 1", "llen k"],
        False,
        "4:3: ListOrNX-violated: llen: key 'k' holds hash<f: string<int>>, not a list",
    ),
    (
        ["lpush k 1", "lpush k \"x\""],
        True,
        "4:3: ElementTypeMismatch: lpush: key 'k' holds list<int>; cannot push text elements in strict mode",
    ),
    (
        ["set k 1", "rpop k"],
        False,
        "4:3: GetEquality-failed: rpop: key 'k' holds string<int>, not a list",
    ),
    (
        [
            "declare counter : string<int>",
            "declare queue   : list<Message>",
            "i <- incr counter",
            "sadd queue \"oops\"",
        ],
        False,
        "6:3: SetOrNX-violated: sadd: key 'queue' holds list<Message>, not a set",
    ),
    (
        ["sadd k 1", "sadd k Message{\"hi\", 2}"],
        True,
        "4:3: ElementTypeMismatch: sadd: key 'k' holds set<int>; cannot add Message elements in strict mode",
    ),
    (
        ["sadd a 1", "lpush b 1", "sinter a b"],
        False,
        "5:3: GetEquality-failed: sinter: key 'b' holds list<int>, not a set",
    ),
    (
        ["sadd a 1", "sadd b 1.5", "sinter a b"],
        False,
        "5:3: GetEquality-failed: sinter: keys 'a' and 'b' hold set<int> and set<float>; "
        "sinter needs equal element types",
    ),
    (
        ["sadd a 1", "sinter a b"],
        False,
        "4:3: GetStuck: sinter: key 'b' is not in the dictionary",
    ),
    (
        ["set k 1", "hset k f 1"],
        False,
        "4:3: HashOrNX-violated: hset: key 'k' holds string<int>, not a hash",
    ),
    (
        ["hset k f 1", "hget k g"],
        False,
        "4:3: GetStuck: hget: no hash field 'g' is tracked under key 'k'",
    ),
    (
        ["set k 1", "hget k f"],
        False,
        "4:3: GetStuck: hget: no hash field 'f' is tracked under key 'k'",
    ),
]


@pytest.mark.parametrize("body, strict, expected", CASES, ids=[c[2].split(": ")[1] for c in CASES])
def test_rejection_message_is_exact(body, strict, expected):
    source = MESSAGE + "program {\n" + "".join(f"  {line}\n" for line in body) + "}\n"
    report = check_program(parse_program(source), strict=strict)
    assert isinstance(report, CheckError)
    assert str(report) == expected


def test_every_firing_constraint_has_a_golden_message():
    fired = {c[2].split(": ")[1] for c in CASES}
    assert fired == {
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
