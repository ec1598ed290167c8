"""Wire framing: golden bytes both directions, stream splitting, errors."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from redtype.resp import ProtocolError, ReplyDecoder, encode_command, encode_reply
from redtype.resp import MAX_ARRAY_LEN, MAX_BULK_LEN, MAX_LINE_LEN
from redtype.store import (
    BulkReply,
    ErrReply,
    IntReply,
    MultiBulk,
    SimpleStatus,
)

# Golden command encodings, one per supported opcode.
COMMAND_GOLDEN = [
    ([b"PING"], b"*1\r\n$4\r\nPING\r\n"),
    ([b"SET", b"k", b"v"], b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"),
    ([b"SETNX", b"k", b"v"], b"*3\r\n$5\r\nSETNX\r\n$1\r\nk\r\n$1\r\nv\r\n"),
    ([b"GET", b"key"], b"*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n"),
    ([b"DEL", b"key"], b"*2\r\n$3\r\nDEL\r\n$3\r\nkey\r\n"),
    ([b"INCR", b"c"], b"*2\r\n$4\r\nINCR\r\n$1\r\nc\r\n"),
    ([b"INCRBYFLOAT", b"x", b"1.5"], b"*3\r\n$11\r\nINCRBYFLOAT\r\n$1\r\nx\r\n$3\r\n1.5\r\n"),
    ([b"LPUSH", b"q", b"item"], b"*3\r\n$5\r\nLPUSH\r\n$1\r\nq\r\n$4\r\nitem\r\n"),
    ([b"LLEN", b"q"], b"*2\r\n$4\r\nLLEN\r\n$1\r\nq\r\n"),
    ([b"RPOP", b"q"], b"*2\r\n$4\r\nRPOP\r\n$1\r\nq\r\n"),
    ([b"SADD", b"s", b"m"], b"*3\r\n$4\r\nSADD\r\n$1\r\ns\r\n$1\r\nm\r\n"),
    ([b"SINTER", b"s", b"t"], b"*3\r\n$6\r\nSINTER\r\n$1\r\ns\r\n$1\r\nt\r\n"),
    ([b"HSET", b"h", b"f", b"v"], b"*4\r\n$4\r\nHSET\r\n$1\r\nh\r\n$1\r\nf\r\n$1\r\nv\r\n"),
    ([b"HGET", b"h", b"f"], b"*3\r\n$4\r\nHGET\r\n$1\r\nh\r\n$1\r\nf\r\n"),
]


@pytest.mark.parametrize("argv, wire", COMMAND_GOLDEN, ids=lambda x: x[0] if isinstance(x, list) else None)
def test_command_encoding_golden(argv, wire):
    assert encode_command(argv) == wire


def test_command_encoding_keeps_binary_payloads():
    assert (
        encode_command([b"SET", b"k", b"a\r\nb\x00"])
        == b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\na\r\nb\x00\r\n"
    )


# Golden reply decodings, one per reply class.
REPLY_GOLDEN = [
    (b"+OK\r\n", SimpleStatus("OK")),
    (b"+PONG\r\n", SimpleStatus("PONG")),
    (b"-WRONGTYPE Operation against a key holding the wrong kind of value\r\n",
     ErrReply("WRONGTYPE Operation against a key holding the wrong kind of value")),
    (b":0\r\n", IntReply(0)),
    (b":-7\r\n", IntReply(-7)),
    (b":9223372036854775807\r\n", IntReply(9223372036854775807)),
    (b"$5\r\nhello\r\n", BulkReply(b"hello")),
    (b"$0\r\n\r\n", BulkReply(b"")),
    (b"$-1\r\n", BulkReply(None)),
    (b"$6\r\na\r\nb\x00c\r\n", BulkReply(b"a\r\nb\x00c")),
    (b"*0\r\n", MultiBulk(())),
    (b"*2\r\n$1\r\na\r\n$1\r\nb\r\n", MultiBulk((b"a", b"b"))),
]


@pytest.mark.parametrize("wire, reply", REPLY_GOLDEN)
def test_reply_decoding_golden(wire, reply):
    d = ReplyDecoder()
    d.feed(wire)
    assert d.poll() == reply
    assert d.pending == 0
    assert d.poll() is None


@pytest.mark.parametrize("wire, reply", REPLY_GOLDEN)
def test_reply_decoding_one_byte_at_a_time(wire, reply):
    d = ReplyDecoder()
    for i, b in enumerate(wire):
        before = d.poll()
        assert before is None, f"complete reply after {i} bytes"
        d.feed(bytes([b]))
    assert d.poll() == reply


@pytest.mark.parametrize("wire, reply", REPLY_GOLDEN)
def test_encode_reply_inverts_decoding(wire, reply):
    assert encode_reply(reply) == wire


def test_two_replies_in_one_segment():
    d = ReplyDecoder()
    d.feed(b":1\r\n:2\r\n")
    assert d.poll() == IntReply(1)
    assert d.poll() == IntReply(2)
    assert d.poll() is None


def test_reply_split_mid_crlf():
    d = ReplyDecoder()
    d.feed(b":42\r")
    assert d.poll() is None
    d.feed(b"\n")
    assert d.poll() == IntReply(42)


def test_bulk_payload_containing_crlf_is_not_misparsed():
    d = ReplyDecoder()
    d.feed(b"$4\r\n\r\n\r\n\r\n")
    assert d.poll() == BulkReply(b"\r\n\r\n")


@pytest.mark.parametrize(
    "wire",
    [
        b"?x\r\n",  # unknown marker
        b":abc\r\n",  # malformed integer
        b"$x\r\n",  # malformed bulk length
        b"$-2\r\n",  # negative non-nil length
        b"*-1\r\n",  # nil arrays unsupported
        b"*1\r\n:1\r\n",  # array of non-bulk
        b"*1\r\n$-1\r\n",  # array containing nil bulk
        b"$2\r\nabcd",  # bulk not CRLF-terminated
    ],
)
def test_protocol_errors(wire):
    d = ReplyDecoder()
    d.feed(wire)
    with pytest.raises(ProtocolError):
        d.poll()


def test_incomplete_array_waits_for_more():
    d = ReplyDecoder()
    d.feed(b"*2\r\n$1\r\na\r\n")
    assert d.poll() is None
    d.feed(b"$1\r\nb\r\n")
    assert d.poll() == MultiBulk((b"a", b"b"))


replies_st = st.one_of(
    st.text(alphabet=st.characters(codec="latin-1", exclude_characters="\r\n"), max_size=30).map(SimpleStatus),
    st.text(alphabet=st.characters(codec="latin-1", exclude_characters="\r\n"), max_size=30).map(ErrReply),
    st.integers(-(2**63), 2**63 - 1).map(IntReply),
    st.one_of(st.none(), st.binary(max_size=40)).map(BulkReply),
    st.lists(st.binary(max_size=10), max_size=5).map(lambda xs: MultiBulk(tuple(xs))),
)


@given(st.lists(replies_st, min_size=1, max_size=5), st.randoms())
def test_round_trip_replies_with_random_segmentation(replies, rng):
    wire = b"".join(encode_reply(r) for r in replies)
    d = ReplyDecoder()
    out = []
    i = 0
    while i < len(wire):
        step = rng.randint(1, 7)
        d.feed(wire[i : i + step])
        i += step
        while (r := d.poll()) is not None:
            out.append(r)
    assert out == replies
    assert d.pending == 0


# ---------------------------------------------------------------------------
# bounded decoding of hostile replies


def test_nested_arrays_are_rejected_without_recursing():
    d = ReplyDecoder()
    d.feed(b"*1\r\n" * 5000)
    with pytest.raises(ProtocolError, match="not a bulk string"):
        d.poll()


def test_bulk_length_is_capped_at_proto_max_bulk_len():
    d = ReplyDecoder()
    d.feed(b"$%d\r\n" % MAX_BULK_LEN)
    assert d.poll() is None  # at the cap: waits for the payload
    d = ReplyDecoder()
    d.feed(b"$%d\r\n" % (MAX_BULK_LEN + 1))
    with pytest.raises(ProtocolError, match="exceeds"):
        d.poll()


def test_array_length_is_capped():
    d = ReplyDecoder()
    d.feed(b"*%d\r\n" % MAX_ARRAY_LEN)
    assert d.poll() is None
    d = ReplyDecoder()
    d.feed(b"*%d\r\n" % (MAX_ARRAY_LEN + 1))
    with pytest.raises(ProtocolError, match="exceeds"):
        d.poll()


def test_header_line_is_capped_at_proto_inline_max_size():
    d = ReplyDecoder()
    d.feed(b"+")
    chunk = b"a" * 4096
    with pytest.raises(ProtocolError, match="longer than"):
        for _ in range(256):  # 1 MiB in 4 KiB chunks, never terminated
            d.feed(chunk)
            assert d.poll() is None
    assert d.pending < MAX_LINE_LEN + 2 * len(chunk)  # stopped soon after the cap
    d = ReplyDecoder()
    d.feed(b"-" + b"e" * 1024 + b"\r\n" + b"+" + b"s" * MAX_LINE_LEN + b"\r\n")
    assert d.poll() == ErrReply("e" * 1024)
    assert d.poll() == SimpleStatus("s" * MAX_LINE_LEN)  # at the cap: still decodes
