"""Wire framing: golden bytes both directions, stream splitting, errors."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, strategies as st

import oracles
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


# ---------------------------------------------------------------------------
# the partial-array cursor


def _decode_in_chunks(wire: bytes, size: int) -> list:
    d = ReplyDecoder()
    out = []
    for i in range(0, len(wire), size):
        d.feed(wire[i : i + size])
        while (r := d.poll()) is not None:
            out.append(r)
    assert d.pending == 0
    return out


def test_cursor_resets_between_replies_at_every_split():
    replies = [MultiBulk((b"a", b"", b"c\r\n")), MultiBulk((b"dd",)), SimpleStatus("OK")]
    wire = b"".join(encode_reply(r) for r in replies)
    for cut in range(len(wire) + 1):
        d = ReplyDecoder()
        out = []
        for part in (wire[:cut], wire[cut:]):
            d.feed(part)
            while (r := d.poll()) is not None:
                out.append(r)
        assert out == replies, cut
        assert d.pending == 0


def test_large_array_in_4k_chunks_equals_one_shot_decode():
    wire = encode_reply(MultiBulk(tuple(b"member-%d" % i for i in range(4000))))
    assert _decode_in_chunks(wire, 4096) == _decode_in_chunks(wire, len(wire))


def test_non_bulk_element_in_a_later_chunk_is_still_rejected():
    d = ReplyDecoder()
    d.feed(b"*3\r\n$1\r\na\r\n")
    assert d.poll() is None
    d.feed(b":5\r\n$1\r\nb\r\n")
    with pytest.raises(ProtocolError, match="not a bulk string"):
        d.poll()
    d = ReplyDecoder()
    d.feed(b"*2\r\n$1\r\na\r\n")
    assert d.poll() is None
    d.feed(b"$-1\r\n")
    with pytest.raises(ProtocolError, match="not a bulk string"):
        d.poll()


def test_each_array_item_is_parsed_once(monkeypatch):
    calls = 0
    parse = ReplyDecoder._parse

    def counted(self):
        nonlocal calls
        calls += 1
        return parse(self)

    monkeypatch.setattr(ReplyDecoder, "_parse", counted)
    items = 4000
    wire = encode_reply(MultiBulk(tuple(b"%d" % i for i in range(items))))
    chunks = -(-len(wire) // 4096)
    assert len(_decode_in_chunks(wire, 4096)[0].items) == items
    # Each poll parses its complete items once and fails at most once on
    # the incomplete one; re-parsing from the start would cost items**2.
    assert calls <= items + chunks + 2


# ---------------------------------------------------------------------------
# agreement with the reference decoder


_bulk_items_st = st.one_of(
    st.binary(max_size=12),
    st.sampled_from([b"", b"\r\n", b"a\r\nb", b"\r", b"\n", b"$1\r\n"]),
)
# Array elements the decoder must reject: nil, other reply kinds, a
# nested array, a length above the cap and a missing CRLF terminator.
_bad_elements_st = st.sampled_from(
    [
        b"$-1\r\n",
        b":5\r\n",
        b"+OK\r\n",
        b"-ERR x\r\n",
        b"*1\r\n",
        b"$-2\r\n",
        b"$x\r\n",
        b"$%d\r\n" % (MAX_BULK_LEN + 1),
        b"$%d\r\n" % (2 * MAX_BULK_LEN),
        b"$3\r\nabcXY",
        b"$0\r\n\n",
    ]
)
_LONG_HEADER = b"$" + b"9" * (MAX_LINE_LEN + 100)  # never terminated


@st.composite
def _array_frames(draw) -> bytes:
    elements = [encode_reply(BulkReply(x)) for x in draw(st.lists(_bulk_items_st, max_size=8))]
    if draw(st.booleans()):
        elements.insert(draw(st.integers(0, len(elements))), draw(_bad_elements_st))
    return b"*%d\r\n" % len(elements) + b"".join(elements)


_frames_st = st.one_of(
    replies_st.map(encode_reply),
    _array_frames(),
    _bad_elements_st,  # some of them are well-formed as whole replies
    st.sampled_from([b"*-1\r\n", b"*%d\r\n" % (MAX_ARRAY_LEN + 1), b":abc\r\n", b"?x\r\n"]),
)


def _events(decoder, chunks: list[bytes]) -> list:
    """Each reply polled after each chunk, with the bytes still pending, up to the first ProtocolError."""
    out: list = []
    for chunk in chunks:
        decoder.feed(chunk)
        try:
            while (r := decoder.poll()) is not None:
                out.append((r, decoder.pending))
        except ProtocolError as err:
            return out + [("ProtocolError", str(err))]
        out.append(("wait", decoder.pending))
    return out


@given(st.lists(_frames_st, min_size=1, max_size=6), st.booleans(), st.data())
def test_decoder_agrees_with_the_reference_at_random_splits(frames, long_header, data):
    wire = b"".join(frames)
    if long_header:
        # An element header longer than MAX_LINE_LEN, fed as a socket would.
        wire += b"*2\r\n$1\r\na\r\n" + _LONG_HEADER
        chunks = [wire[i : i + 4096] for i in range(0, len(wire), 4096)]
    else:
        cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=12)))
        chunks = [wire[i:j] for i, j in zip([0, *cuts], [*cuts, len(wire)])]
    assert _events(ReplyDecoder(), chunks) == _events(oracles.ReplyDecoder(), chunks)


def test_array_items_are_read_in_bounded_work(monkeypatch):
    # Counts header integer reads, which every array item goes through;
    # the _parse count above stays flat however the items are read.
    calls = 0
    read = ReplyDecoder._int

    def counted(self, at):
        nonlocal calls
        calls += 1
        return read(self, at)

    monkeypatch.setattr(ReplyDecoder, "_int", counted)
    items = 4000
    wire = encode_reply(MultiBulk(tuple(b"%d" % i for i in range(items))))
    chunks = -(-len(wire) // 4096)
    assert len(_decode_in_chunks(wire, 4096)[0].items) == items
    # Each poll reads its complete items once and stops at most once at
    # the incomplete one; re-reading from the array's start would cost
    # about items * chunks / 2.
    assert calls <= items + chunks + 2



def _timed_in_chunks(wire: bytes, size: int) -> tuple[list, float]:
    t0 = time.perf_counter()
    out = _decode_in_chunks(wire, size)
    return out, time.perf_counter() - t0


@pytest.mark.parametrize(
    "items",
    [
        # A first item that spans 2,048 chunks: re-scanning the buffer at each poll costs its size squared.
        (b"x" * (8 << 20), b"a\r\nb" * 100_000, b"tail"),
        # Every item holds CRLF, so no item can be read by splitting on CRLF alone.
        tuple(b"a\r\nb%d" % i for i in range(40_000)),
    ],
    ids=["huge-first-item", "crlf-in-every-item"],
)
def test_array_decoding_in_4k_chunks_is_linear(items):
    wire = encode_reply(MultiBulk(items))
    out, seconds = _timed_in_chunks(wire, 4096)
    assert out == _decode_in_chunks(wire, len(wire)) == [MultiBulk(items)]
    assert seconds < 1.0  # about 0.03-0.09 s on a 2-vCPU host; quadratic variants take many seconds


def test_many_small_arrays_in_one_feed_decode_in_bounded_work():
    # 50,000 replies buffered at once: a poll that copies or scans the
    # bytes past its own reply costs their total size squared.
    replies = [MultiBulk((b"a", b"bb", b"%d" % i)) for i in range(50_000)]
    out, seconds = _timed_in_chunks(b"".join(map(encode_reply, replies)), 1 << 30)
    assert out == replies
    assert seconds < 2.0  # about 0.45 s on a 2-vCPU host


def test_non_canonical_headers_inside_an_array_decode_at_every_split():
    wire = b"*4\r\n$1\r\na\r\n$-0\r\n\r\n$01\r\nb\r\n$3\r\nc\r\n\r\n"
    for size in range(1, len(wire) + 1):
        assert _decode_in_chunks(wire, size) == [MultiBulk((b"a", b"", b"b", b"c\r\n"))], size
    assert _events(oracles.ReplyDecoder(), [wire]) == [(MultiBulk((b"a", b"", b"b", b"c\r\n")), 0), ("wait", 0)]


# Array elements for the agreement test below: canonical bulk strings,
# strings that hold CR, LF or CRLF, and valid headers that are not the
# canonical spelling of their length.
_array_elements_st = st.one_of(
    st.binary(max_size=6).map(lambda x: encode_reply(BulkReply(x))),
    st.sampled_from([b"\r\n", b"a\r\nb", b"\r", b"\n", b"x\r", b"\ny"]).map(lambda x: encode_reply(BulkReply(x))),
    st.sampled_from([b"$01\r\nb\r\n", b"$00\r\n\r\n", b"$-0\r\n\r\n", b"$003\r\na\r\n\r\n"]),
)


@given(st.lists(_array_elements_st, min_size=2, max_size=64), st.none() | _bad_elements_st, st.data())
def test_long_arrays_agree_with_the_reference_at_random_splits(elements, bad, data):
    if bad is not None:  # one element the decoder rejects, anywhere in the array
        elements.insert(data.draw(st.integers(0, len(elements))), bad)
    wire = b"*%d\r\n" % len(elements) + b"".join(elements) + b"+OK\r\n"
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=12)))
    chunks = [wire[i:j] for i, j in zip([0, *cuts], [*cuts, len(wire)])]
    assert _events(ReplyDecoder(), chunks) == _events(oracles.ReplyDecoder(), chunks)


# ---------------------------------------------------------------------------
# header integers: an optional '-' and 1-19 ASCII digits, in int64


@pytest.mark.parametrize(
    "wire",
    [
        b":1_0\r\n",
        b": 7 \r\n",
        b":+5\r\n",
        b":7 \r\n",
        b":-\r\n",
        b":\r\n",
        b":" + b"9" * 30 + b"\r\n",
        b":9223372036854775808\r\n",
        b":-9223372036854775809\r\n",
        b":\xd9\xa5\r\n",  # UTF-8 of an Arabic-Indic digit, which int() reads in a str
        b"$ 3\r\nabc\r\n",
        b"$+3\r\nabc\r\n",
        b"$3 \r\nabc\r\n",
        b"$0_3\r\nabc\r\n",
        b"$9223372036854775808\r\n",
        b"* 1\r\n$1\r\na\r\n",
        b"*1_0\r\n",
        b"*1\r\n$ 1\r\na\r\n",
        b"*2\r\n$1\r\na\r\n$+1\r\nb\r\n",
    ],
)
def test_header_integers_are_strict(wire):
    d = ReplyDecoder()
    d.feed(wire)
    with pytest.raises(ProtocolError, match="malformed integer line"):
        d.poll()


@pytest.mark.parametrize(
    "wire, reply",
    [
        (b":-9223372036854775808\r\n", IntReply(-(2**63))),
        (b":-0\r\n", IntReply(0)),
        (b":007\r\n", IntReply(7)),
        (b"$0003\r\nabc\r\n", BulkReply(b"abc")),
        (b"*01\r\n$1\r\na\r\n", MultiBulk((b"a",))),
    ],
)
def test_header_integers_at_the_edges_still_decode(wire, reply):
    d = ReplyDecoder()
    d.feed(wire)
    assert d.poll() == reply


def test_malformed_header_line_is_quoted_clipped():
    d = ReplyDecoder()
    d.feed(b":" + b"x" * 10_000 + b"\r\n")
    with pytest.raises(ProtocolError) as err:
        d.poll()
    assert str(err.value) == f"malformed integer line {b'x' * 64 + b'...'!r}"
