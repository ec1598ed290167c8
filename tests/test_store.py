"""Simulator semantics: transcript replay, error texts, corner cases."""

from __future__ import annotations

from redtype.store import (
    NOT_FLOAT_MSG,
    NOT_INT_MSG,
    OVERFLOW_MSG,
    WRONGTYPE_MSG,
    BulkReply,
    ErrReply,
    IntReply,
    MemoryStore,
    MultiBulk,
    SimpleStatus,
)


def run_all(commands):
    """Replay a list of argv lists on a fresh store; returns the replies."""
    store = MemoryStore()
    return [store.execute(argv) for argv in commands]


# ---------------------------------------------------------------------------
# transcript replay (multi-member SADD arrives as consecutive single adds
# whose integer replies sum to the original transcript's totals)


def test_transcript_set_intersection():
    replies = run_all(
        [
            [b"SADD", b"some-set", b"a"],
            [b"SADD", b"some-set", b"b"],
            [b"SADD", b"some-set", b"c"],
            [b"SADD", b"another-set", b"a"],
            [b"SADD", b"another-set", b"b"],
            [b"SINTER", b"some-set", b"another-set"],
        ]
    )
    assert sum(r.value for r in replies[:3]) == 3
    assert sum(r.value for r in replies[3:5]) == 2
    assert replies[5] == MultiBulk((b"a", b"b"))


def test_transcript_sadd_on_string_is_wrongtype():
    replies = run_all(
        [
            [b"SET", b"some-string", b"foo"],
            [b"SADD", b"some-string", b"bar"],
        ]
    )
    assert replies[0] == SimpleStatus("OK")
    assert replies[1] == ErrReply(
        "WRONGTYPE Operation against a key holding the wrong kind of value"
    )


def test_transcript_list_lengths():
    replies = run_all(
        [
            [b"LPUSH", b"some-list", b"bar"],
            [b"LLEN", b"some-list"],
            [b"SET", b"some-string", b"foo"],
            [b"LLEN", b"some-string"],
            [b"LLEN", b"nonexistent"],
        ]
    )
    assert replies == [
        IntReply(1),
        IntReply(1),
        SimpleStatus("OK"),
        ErrReply(WRONGTYPE_MSG),
        IntReply(0),
    ]


def test_transcript_user_hash():
    replies = run_all(
        [
            [b"HSET", b"user", b"name", b"banacorn"],
            [b"HSET", b"user", b"birthyear", b"1992"],
            [b"HSET", b"user", b"verified", b"1"],
            [b"HGET", b"user", b"name"],
            [b"HGET", b"user", b"birthyear"],
        ]
    )
    assert replies == [
        IntReply(1),
        IntReply(1),
        IntReply(1),
        BulkReply(b"banacorn"),
        BulkReply(b"1992"),
    ]


# ---------------------------------------------------------------------------
# per-command semantics


def test_ping():
    assert run_all([[b"PING"]]) == [SimpleStatus("PONG")]


def test_set_overwrites_any_prior_type():
    replies = run_all(
        [
            [b"LPUSH", b"k", b"x"],
            [b"SET", b"k", b"v"],
            [b"GET", b"k"],
        ]
    )
    assert replies[1:] == [SimpleStatus("OK"), BulkReply(b"v")]


def test_setnx_only_writes_when_absent():
    replies = run_all(
        [
            [b"SETNX", b"k", b"first"],
            [b"SETNX", b"k", b"second"],
            [b"GET", b"k"],
        ]
    )
    assert replies == [IntReply(1), IntReply(0), BulkReply(b"first")]


def test_setnx_respects_existing_non_string():
    replies = run_all([[b"LPUSH", b"k", b"x"], [b"SETNX", b"k", b"v"], [b"LLEN", b"k"]])
    assert replies[1:] == [IntReply(0), IntReply(1)]


def test_get_absent_is_nil_and_wrongtype_on_containers():
    replies = run_all([[b"GET", b"nope"], [b"SADD", b"s", b"x"], [b"GET", b"s"]])
    assert replies[0] == BulkReply(None)
    assert replies[2] == ErrReply(WRONGTYPE_MSG)


def test_del_replies_presence():
    replies = run_all([[b"SET", b"k", b"v"], [b"DEL", b"k"], [b"DEL", b"k"]])
    assert replies[1:] == [IntReply(1), IntReply(0)]


def test_incr_from_absent_starts_at_zero():
    replies = run_all([[b"INCR", b"c"], [b"INCR", b"c"], [b"GET", b"c"]])
    assert replies == [IntReply(1), IntReply(2), BulkReply(b"2")]


def test_incr_parses_stored_value_strictly():
    for stored in (b"abc", b"1.5", b"007", b" 1", b"+1", b"-0", b""):
        replies = run_all([[b"SET", b"c", stored], [b"INCR", b"c"]])
        assert replies[1] == ErrReply(NOT_INT_MSG), stored


def test_incr_handles_negatives_and_wide_values():
    replies = run_all([[b"SET", b"c", b"-3"], [b"INCR", b"c"], [b"INCR", b"c"]])
    assert replies[1:] == [IntReply(-2), IntReply(-1)]
    big = str(2**63 - 2).encode()
    replies = run_all([[b"SET", b"c", big], [b"INCR", b"c"]])
    assert replies[1] == IntReply(2**63 - 1)


def test_incr_rejects_stored_values_outside_int64():
    for stored in (2**63, -(2**63) - 1, 10**30):
        replies = run_all([[b"SET", b"c", str(stored).encode()], [b"INCR", b"c"], [b"GET", b"c"]])
        assert replies[1:] == [ErrReply(NOT_INT_MSG), BulkReply(str(stored).encode())], stored
    replies = run_all([[b"SET", b"c", str(-(2**63)).encode()], [b"INCR", b"c"]])
    assert replies[1] == IntReply(-(2**63) + 1)


def test_incr_at_int64_max_overflows_and_keeps_the_value():
    top = str(2**63 - 1).encode()
    replies = run_all([[b"SET", b"c", top], [b"INCR", b"c"], [b"GET", b"c"]])
    assert replies[1:] == [ErrReply(OVERFLOW_MSG), BulkReply(top)]


def test_incr_wrongtype_on_container():
    replies = run_all([[b"SADD", b"c", b"x"], [b"INCR", b"c"]])
    assert replies[1] == ErrReply(WRONGTYPE_MSG)


def test_incrbyfloat_checks_the_key_type_before_the_increment():
    replies = run_all([[b"LPUSH", b"k", b"x"], [b"INCRBYFLOAT", b"k", b"abc"]])
    assert replies[1] == ErrReply(WRONGTYPE_MSG)


def test_incrbyfloat_reply_is_the_stored_encoding():
    replies = run_all(
        [
            [b"INCRBYFLOAT", b"x", b"2.5"],
            [b"INCRBYFLOAT", b"x", b"0.5"],
            [b"GET", b"x"],
        ]
    )
    assert replies[0] == BulkReply(b"2.5")
    assert replies[1] == BulkReply(b"3.0")
    assert replies[2] == BulkReply(b"3.0")


def test_incrbyfloat_numeric_tolerance():
    replies = run_all([[b"INCRBYFLOAT", b"x", b"0.1"], [b"INCRBYFLOAT", b"x", b"0.2"]])
    assert isinstance(replies[1], BulkReply)
    assert abs(float(replies[1].data) - 0.3) < 1e-9


def test_incrbyfloat_rejects_bad_increment_and_bad_stored():
    replies = run_all([[b"INCRBYFLOAT", b"x", b"abc"]])
    assert replies[0] == ErrReply(NOT_FLOAT_MSG)
    replies = run_all([[b"SET", b"x", b"pear"], [b"INCRBYFLOAT", b"x", b"1.0"]])
    assert replies[1] == ErrReply(NOT_FLOAT_MSG)
    # Scientific notation and bare integers are acceptable float spellings.
    replies = run_all([[b"SET", b"x", b"2"], [b"INCRBYFLOAT", b"x", b"1e1"]])
    assert replies[1] == BulkReply(b"12.0")


def test_incrbyfloat_overflow_to_infinity_is_an_error():
    huge = repr(1.7e308).encode()
    replies = run_all([[b"SET", b"x", huge], [b"INCRBYFLOAT", b"x", huge]])
    assert replies[1] == ErrReply("ERR increment would produce NaN or Infinity")


def test_lpush_prepends():
    store = MemoryStore()
    store.execute([b"LPUSH", b"l", b"a"])
    store.execute([b"LPUSH", b"l", b"b"])
    assert store.snapshot() == [{"key": "l", "type": "list", "value": ["b", "a"]}]


def test_rpop_pops_rightmost_and_deletes_empty():
    replies = run_all(
        [
            [b"LPUSH", b"l", b"a"],
            [b"LPUSH", b"l", b"b"],
            [b"RPOP", b"l"],
            [b"RPOP", b"l"],
            [b"LLEN", b"l"],
            [b"RPOP", b"l"],
        ]
    )
    assert replies[2] == BulkReply(b"a")
    assert replies[3] == BulkReply(b"b")
    assert replies[4] == IntReply(0)  # emptied key was deleted
    assert replies[5] == BulkReply(None)


def test_rpop_wrongtype():
    replies = run_all([[b"SET", b"k", b"v"], [b"RPOP", b"k"]])
    assert replies[1] == ErrReply(WRONGTYPE_MSG)


def test_sadd_counts_only_new_members():
    replies = run_all(
        [[b"SADD", b"s", b"a"], [b"SADD", b"s", b"a"], [b"SADD", b"s", b"b"]]
    )
    assert [r.value for r in replies] == [1, 0, 1]


def test_sinter_sorts_bytewise_and_treats_absent_as_empty():
    replies = run_all(
        [
            [b"SADD", b"s", b"b"],
            [b"SADD", b"s", b"a"],
            [b"SADD", b"s", b"10"],
            [b"SADD", b"t", b"a"],
            [b"SADD", b"t", b"10"],
            [b"SADD", b"t", b"zz"],
            [b"SINTER", b"s", b"t"],
            [b"SINTER", b"s", b"missing"],
            [b"SINTER", b"missing", b"missing2"],
        ]
    )
    assert replies[6] == MultiBulk((b"10", b"a"))
    assert replies[7] == MultiBulk(())
    assert replies[8] == MultiBulk(())


def test_sinter_wrongtype_if_either_side_is_not_a_set():
    replies = run_all([[b"SET", b"k", b"v"], [b"SADD", b"s", b"a"], [b"SINTER", b"s", b"k"]])
    assert replies[2] == ErrReply(WRONGTYPE_MSG)


def test_hset_reply_distinguishes_create_from_overwrite():
    replies = run_all(
        [
            [b"HSET", b"h", b"f", b"1"],
            [b"HSET", b"h", b"f", b"2"],
            [b"HSET", b"h", b"g", b"3"],
            [b"HGET", b"h", b"f"],
        ]
    )
    assert [r.value for r in replies[:3]] == [1, 0, 1]
    assert replies[3] == BulkReply(b"2")


def test_hget_nil_cases_and_wrongtype():
    replies = run_all(
        [
            [b"HGET", b"missing", b"f"],
            [b"HSET", b"h", b"f", b"1"],
            [b"HGET", b"h", b"g"],
            [b"SET", b"k", b"v"],
            [b"HGET", b"k", b"f"],
        ]
    )
    assert replies[0] == BulkReply(None)
    assert replies[2] == BulkReply(None)
    assert replies[4] == ErrReply(WRONGTYPE_MSG)


def test_unknown_command_and_arity_errors():
    replies = run_all([[b"BOGUS"], [b"GET"], [b"SET", b"k"], []])
    assert replies[0] == ErrReply("ERR unknown command 'BOGUS'")
    assert replies[1] == ErrReply("ERR wrong number of arguments for 'get' command")
    assert replies[2] == ErrReply("ERR wrong number of arguments for 'set' command")
    assert isinstance(replies[3], ErrReply)


def test_command_names_are_case_insensitive():
    replies = run_all([[b"set", b"k", b"v"], [b"Get", b"k"]])
    assert replies == [SimpleStatus("OK"), BulkReply(b"v")]


# ---------------------------------------------------------------------------
# reset, snapshot


def test_reset_empties_the_store():
    store = MemoryStore()
    store.execute([b"SET", b"k", b"v"])
    store.reset()
    assert store.snapshot() == []


def test_snapshot_is_sorted_and_typed():
    store = MemoryStore()
    store.execute([b"SET", b"zz", b"1"])
    store.execute([b"LPUSH", b"ll", b"b"])
    store.execute([b"LPUSH", b"ll", b"a"])
    store.execute([b"SADD", b"ss", b"y"])
    store.execute([b"SADD", b"ss", b"x"])
    store.execute([b"HSET", b"hh", b"g", b"2"])
    store.execute([b"HSET", b"hh", b"f", b"1"])
    assert store.snapshot() == [
        {"key": "hh", "type": "hash", "value": {"f": "1", "g": "2"}},
        {"key": "ll", "type": "list", "value": ["a", "b"]},
        {"key": "ss", "type": "set", "value": ["x", "y"]},
        {"key": "zz", "type": "string", "value": "1"},
    ]


def test_snapshot_ordering_is_insertion_independent():
    a, b = MemoryStore(), MemoryStore()
    a.execute([b"SET", b"x", b"1"])
    a.execute([b"SET", b"y", b"2"])
    b.execute([b"SET", b"y", b"2"])
    b.execute([b"SET", b"x", b"1"])
    assert a.snapshot() == b.snapshot()


def test_snapshot_taken_earlier_is_unchanged_by_later_commands():
    store = MemoryStore()
    store.execute([b"SADD", b"s", b"a"])
    store.execute([b"LPUSH", b"l", b"x"])
    store.execute([b"LPUSH", b"l", b"y"])
    store.execute([b"HSET", b"h", b"f", b"1"])
    store.execute([b"SET", b"k", b"1"])
    before = store.snapshot()
    store.execute([b"SADD", b"s", b"b"])
    store.execute([b"LPUSH", b"l", b"z"])
    store.execute([b"RPOP", b"l"])
    store.execute([b"HSET", b"h", b"g", b"2"])
    store.execute([b"INCR", b"k"])
    assert before == [
        {"key": "h", "type": "hash", "value": {"f": "1"}},
        {"key": "k", "type": "string", "value": "1"},
        {"key": "l", "type": "list", "value": ["y", "x"]},
        {"key": "s", "type": "set", "value": ["a"]},
    ]
    assert store.snapshot()[2] == {"key": "l", "type": "list", "value": ["z", "y"]}


def test_keys_fields_values_and_members_that_are_not_utf8():
    cafe, k, h, f, s = b"caf\xc3\xa9", b"\xff\x00k", b"h\xe9", b"f\xff", b"\xfe"
    store = MemoryStore()
    replies = [
        store.execute(argv)
        for argv in (
            [b"SET", k, cafe],
            [b"GET", k],
            [b"SETNX", k, s],
            [b"SETNX", cafe, b"7"],
            [b"INCR", cafe],
            [b"HSET", h, f, s],
            [b"HSET", h, f, cafe],
            [b"HSET", h, b"f", k],
            [b"HGET", h, f],
            [b"HGET", h, b"f\xfe"],
            [b"SADD", s, k],
            [b"SADD", s, cafe],
            [b"SADD", b"t", cafe],
            [b"SINTER", s, b"t"],
            [b"SINTER", s, s],
            [b"LPUSH", f, h],
            [b"LPUSH", f, s],
            [b"RPOP", f],
            [b"LLEN", f],
            [b"LPUSH", k, s],
            [b"INCRBYFLOAT", h, b"1.5"],
            [b"DEL", b"t"],
            [b"DEL", b"\xff\x00"],
        )
    ]
    assert replies == [
        SimpleStatus("OK"),
        BulkReply(cafe),
        IntReply(0),
        IntReply(1),
        IntReply(8),
        IntReply(1),
        IntReply(0),
        IntReply(1),
        BulkReply(cafe),
        BulkReply(None),
        IntReply(1),
        IntReply(1),
        IntReply(1),
        MultiBulk((cafe,)),
        MultiBulk((cafe, k)),
        IntReply(1),
        IntReply(2),
        BulkReply(h),
        IntReply(1),
        ErrReply(WRONGTYPE_MSG),
        ErrReply(WRONGTYPE_MSG),
        IntReply(1),
        IntReply(0),
    ]
    # Each stored byte reads as one latin-1 character, and keys, fields and
    # members sort bytewise.
    assert store.snapshot() == [
        {"key": "cafÃ©", "type": "string", "value": "8"},
        {"key": "fÿ", "type": "list", "value": ["þ"]},
        {"key": "hé", "type": "hash", "value": {"f": "ÿ\x00k", "fÿ": "cafÃ©"}},
        {"key": "þ", "type": "set", "value": ["cafÃ©", "ÿ\x00k"]},
        {"key": "ÿ\x00k", "type": "string", "value": "cafÃ©"},
    ]
