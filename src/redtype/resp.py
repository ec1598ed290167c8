"""RESP2 framing: command encoding and incremental reply decoding.

Commands go out as arrays of bulk strings.  Replies come back as one of
the five RESP2 kinds; arrays are only expected to contain bulk strings
(that is all the supported commands ever return).  The decoder is
incremental so a reply split across arbitrary TCP segment boundaries,
down to one byte at a time, decodes identically.
"""

from __future__ import annotations

from typing import Sequence

from .store import BulkReply, ErrReply, IntReply, MultiBulk, Reply, SimpleStatus

CRLF = b"\r\n"

# Largest bulk string accepted, as Redis's proto-max-bulk-len default.
MAX_BULK_LEN = 512 * 1024 * 1024
# Largest array accepted, as hiredis's default reader limit.
MAX_ARRAY_LEN = 2**32 - 1
# Longest header line (status, error, integer or length) accepted, as
# Redis's PROTO_INLINE_MAX_SIZE; it also bounds each poll's CRLF search.
MAX_LINE_LEN = 64 * 1024


class ProtocolError(Exception):
    """Malformed or unsupported wire data; the connection is unusable."""


class _NeedMore(Exception):
    pass


def encode_command(argv: Sequence[bytes]) -> bytes:
    """*<n> followed by one $-framed bulk string per argument."""
    out = bytearray(b"*%d\r\n" % len(argv))
    for arg in argv:
        out += b"$%d\r\n" % len(arg)
        out += arg
        out += CRLF
    return bytes(out)


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
    reply; it consumes exactly one reply's bytes otherwise.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet consumed by a completed reply."""
        return len(self._buf)

    def poll(self) -> Reply | None:
        try:
            reply, used = self._parse(0)
        except _NeedMore:
            return None
        del self._buf[:used]
        return reply

    # returns (reply, bytes consumed from offset's reply)
    def _parse(self, at: int) -> tuple[Reply, int]:
        if at >= len(self._buf):
            raise _NeedMore
        marker = self._buf[at : at + 1]
        line, after = self._line(at + 1)
        if marker == b"+":
            return SimpleStatus(line.decode("latin-1")), after
        if marker == b"-":
            return ErrReply(line.decode("latin-1")), after
        if marker == b":":
            return IntReply(self._int(line)), after
        if marker == b"$":
            n = self._int(line)
            if n == -1:
                return BulkReply(None), after
            if n < 0:
                raise ProtocolError(f"negative bulk length {n}")
            if n > MAX_BULK_LEN:
                raise ProtocolError(f"bulk length {n} exceeds {MAX_BULK_LEN}")
            end = after + n
            if end + 2 > len(self._buf):
                raise _NeedMore
            if self._buf[end : end + 2] != CRLF:
                raise ProtocolError("bulk string not terminated by CRLF")
            return BulkReply(bytes(self._buf[after:end])), end + 2
        if marker == b"*":
            n = self._int(line)
            if n < 0:
                raise ProtocolError(f"unsupported array length {n}")
            if n > MAX_ARRAY_LEN:
                raise ProtocolError(f"array length {n} exceeds {MAX_ARRAY_LEN}")
            items: list[bytes] = []
            cursor = after
            for _ in range(n):
                # Checked before descending, so nested arrays cannot recurse.
                if self._buf[cursor : cursor + 1] not in (b"$", b""):
                    raise ProtocolError("array element is not a bulk string")
                element, cursor = self._parse(cursor)
                if element.data is None:
                    raise ProtocolError("array element is not a bulk string")
                items.append(element.data)
            return MultiBulk(tuple(items)), cursor
        raise ProtocolError(f"unknown reply marker {bytes(marker)!r}")

    def _line(self, at: int) -> tuple[bytes, int]:
        end = self._buf.find(CRLF, at, at + MAX_LINE_LEN + 2)
        if end == -1:
            if len(self._buf) - at > MAX_LINE_LEN + 1:
                raise ProtocolError(f"reply line longer than {MAX_LINE_LEN} bytes")
            # A CR at the very end might be half a terminator.
            raise _NeedMore
        return bytes(self._buf[at:end]), end + 2

    @staticmethod
    def _int(line: bytes) -> int:
        try:
            return int(line)
        except ValueError:
            raise ProtocolError(f"malformed integer line {line!r}") from None
