"""RESP2 framing: command encoding and incremental reply decoding.

Commands go out as arrays of bulk strings.  Replies come back as one of
the five RESP2 kinds; arrays are only expected to contain bulk strings
(that is all the supported commands ever return).  The decoder is
incremental so a reply split across arbitrary TCP segment boundaries,
down to one byte at a time, decodes identically, and a large array fed
in chunks resumes where the last chunk ended instead of being re-parsed.
"""

from __future__ import annotations

import re
from typing import Sequence

from .codec import quote
from .store import BulkReply, ErrReply, IntReply, MultiBulk, Reply, SimpleStatus
from .syntax import INT64_MAX, INT64_MIN, new_node

CRLF = b"\r\n"

# Largest bulk string accepted, as Redis's proto-max-bulk-len default.
MAX_BULK_LEN = 512 * 1024 * 1024
# Largest array accepted, as hiredis's default reader limit.
MAX_ARRAY_LEN = 2**32 - 1
# Longest header line (status, error, integer or length) accepted, as
# Redis's PROTO_INLINE_MAX_SIZE; it also bounds each poll's CRLF search.
MAX_LINE_LEN = 64 * 1024

_BULK = ord("$")
_INT_LINE = re.compile(rb"(-?[0-9]{1,19})\r\n")


class ProtocolError(Exception):
    """Malformed or unsupported wire data; the connection is unusable."""


def encode_command(argv: Sequence[bytes]) -> bytes:
    """*<n> followed by one $-framed bulk string per argument."""
    return b"*%d\r\n" % len(argv) + b"".join([b"$%d\r\n%b\r\n" % (len(a), a) for a in argv])


def encode_reply(reply: Reply) -> bytes:
    if isinstance(reply, SimpleStatus):
        return b"+" + reply.text.encode("latin-1") + CRLF
    if isinstance(reply, ErrReply):
        return b"-" + reply.message.encode("latin-1") + CRLF
    if isinstance(reply, IntReply):
        return b":%d\r\n" % reply.value
    if isinstance(reply, BulkReply):
        if reply.data is None:
            return b"$-1\r\n"
        return b"$%d\r\n" % len(reply.data) + reply.data + CRLF
    assert isinstance(reply, MultiBulk)
    # An array of bulk strings is framed exactly as a command is.
    return encode_command(reply.items)


class ReplyDecoder:
    """Feed bytes in, poll complete replies out.

    poll() returns None while the buffered data is still a prefix of a
    reply; it consumes exactly one reply's bytes otherwise.  Each byte
    is read a bounded number of times: a partial array resumes from a
    cursor (the items so far and how many are still due), each poll
    reads all the buffered items in one loop, and the bytes it read
    leave the buffer once, at its end.  Once a poll has read one whole
    array item, it splits the bytes after it once on CRLF and takes the
    leading items whose header is the canonical spelling of their
    length in bulk; the item-by-item walk reads the rest.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._items: list[bytes] | None = None  # the array being decoded
        self._due = 0

    def feed(self, data: bytes) -> None:
        self._buf += data

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet parsed."""
        return len(self._buf)

    def poll(self) -> Reply | None:
        at = 0  # bytes read so far; they leave the buffer on the way out
        try:
            if self._items is None:
                head = self._parse()
                if head is None:
                    return None
                reply, at = head
                if reply is not None:
                    return reply
            at, self._due = self._bulks(at, self._due, self._items)
            if self._due:
                return None
            items, self._items = self._items, None
            return new_node(MultiBulk, (tuple(items),))
        finally:
            del self._buf[:at]

    def _parse(self) -> tuple[Reply | None, int] | None:
        """The reply at the buffer's head and the bytes it takes.

        None if it has not all arrived.  An array header opens the
        cursor instead, with no reply.
        """
        buf = self._buf
        if not buf:
            return None
        if buf[0] == _BULK:
            out: list[bytes | None] = []
            at, _ = self._bulks(0, 1, out)
            return (new_node(BulkReply, (out[0],)), at) if out else None
        marker = buf[:1]
        if marker in (b":", b"*"):
            head = self._int(1)
            if head is None:
                return None
            n, at = head
            if marker == b":":
                return new_node(IntReply, (n,)), at
            if n < 0:
                raise ProtocolError(f"unsupported array length {n}")
            if n > MAX_ARRAY_LEN:
                raise ProtocolError(f"array length {n} exceeds {MAX_ARRAY_LEN}")
            self._items, self._due = [], n
            return None, at
        end = self._line_end(1)
        if end == -1:
            return None
        text = buf[1:end].decode("latin-1")
        if marker == b"+":
            return new_node(SimpleStatus, (text,)), end + 2
        if marker == b"-":
            return new_node(ErrReply, (text,)), end + 2
        raise ProtocolError(f"unknown reply marker {bytes(marker)!r}")

    def _bulks(self, at: int, due: int, out: list) -> tuple[int, int]:
        """Read up to ``due`` bulk strings from ``at`` onto ``out``.

        Stops early where the buffer runs short.  Returns the offset just
        past the last string read and how many are still due.  A nil is
        read as None, and only as a whole reply, never inside an array.
        """
        buf = self._buf
        size = len(buf)
        split = True  # this poll has not split yet
        while due and at < size:
            # Checked before reading on, so nested arrays cannot recurse.
            if buf[at] != _BULK:
                raise ProtocolError("array element is not a bulk string")
            head = self._int(at + 1)
            if head is None:
                break
            n, start = head
            if n < -1:
                raise ProtocolError(f"negative bulk length {n}")
            if n > MAX_BULK_LEN:
                raise ProtocolError(f"bulk length {n} exceeds {MAX_BULK_LEN}")
            if n == -1:
                if self._items is not None:
                    raise ProtocolError("array element is not a bulk string")
                out.append(None)
            else:
                end = start + n
                if end + 2 > size:
                    break
                if not buf.startswith(CRLF, end):
                    raise ProtocolError("bulk string not terminated by CRLF")
                out.append(bytes(buf[start:end]))
                start = end + 2
            at = start
            due -= 1
            if split and due > 1:
                # The rest in bulk: one split on CRLF, of at most 64 bytes per due item (so bytes past
                # the array cost no more than it, and no piece exceeds MAX_BULK_LEN).  A (header, data)
                # pair whose header is b"$%d" % len(data) is exactly the item the walk would read.
                split = False
                pieces = bytes(buf[at : at + min(64 * due, MAX_BULK_LEN)]).split(CRLF, 2 * due)
                k = (len(pieces) - 1) // 2  # the pairs whose data ends in CRLF
                if not k or pieces[0] != b"$%d" % len(pieces[1]):
                    continue  # the walk reads on
                heads, data = pieces[0 : 2 * k : 2], pieces[1 : 2 * k : 2]
                canonical = list(map(b"$%d".__mod__, map(len, data)))
                if heads != canonical:
                    k = list(map(bytes.__eq__, heads, canonical)).index(False)
                    del data[k:]
                out += data
                at += sum(map(len, pieces[: 2 * k])) + 4 * k
                due -= k
        return at, due

    def _line_end(self, at: int) -> int:
        """Offset of the CRLF ending the header line that starts at ``at``; -1 until it arrives."""
        end = self._buf.find(CRLF, at, at + MAX_LINE_LEN + 2)
        # A CR at the very end might be half a terminator.
        if end == -1 and len(self._buf) - at > MAX_LINE_LEN + 1:
            raise ProtocolError(f"reply line longer than {MAX_LINE_LEN} bytes")
        return end

    def _int(self, at: int) -> tuple[int, int] | None:
        """The header integer whose line starts at ``at``, and the offset past its CRLF.

        The line must be an optional '-' and 1-19 ASCII digits, in int64.
        None until the line has arrived.
        """
        head = _INT_LINE.match(self._buf, at)
        if head and INT64_MIN <= (n := int(head[1])) <= INT64_MAX:
            return n, head.end()
        end = self._line_end(at)  # incomplete, too long or malformed: this tells which
        if end == -1:
            return None
        raise ProtocolError(f"malformed integer line {quote(bytes(self._buf[at:end]))}")
