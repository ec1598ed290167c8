"""Loopback RESP2 server backed by redtype's MemoryStore, run as a child process.

Usage: python3 bench/server.py SRC_DIR

It listens on 127.0.0.1 on a free port and prints that port as the first
line of stdout.  Client connections speak RESP2: each request is an array
of bulk strings, executed on one MemoryStore and answered in order.
Stdin is an out-of-band control channel, one line per request and one
line of reply each:

  reset 0|1  empty the store; 1 also times every MemoryStore.execute
             call until the next reset  -> "ok"
  stats      JSON list of those execute durations, in seconds
  reference  run reference.py's workload here -> its wall time, in seconds

End of stdin stops the server, so it never outlives the benchmark that
started it.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
from time import perf_counter


def take_command(buf: bytearray) -> tuple[list[bytes], int] | None:
    """One complete `*n $len data ...` request at the start of buf, or None.

    The server parses requests itself rather than with redtype's
    ReplyDecoder, so that decoder's cost is measured on the client only.
    """
    end = buf.find(b"\r\n")
    if end == -1:
        return None
    if buf[:1] != b"*":
        raise ValueError(f"expected a RESP array, got {bytes(buf[:16])!r}")
    argv: list[bytes] = []
    at = end + 2
    for _ in range(int(buf[1:end])):
        end = buf.find(b"\r\n", at)
        if end == -1:
            return None
        if buf[at : at + 1] != b"$":
            raise ValueError("expected a bulk string")
        start = end + 2
        stop = start + int(buf[at + 1 : end])
        if stop + 2 > len(buf):
            return None
        argv.append(bytes(buf[start:stop]))
        at = stop + 2
    return argv, at


def serve(src: str) -> None:
    sys.path.insert(0, src)
    from redtype.resp import encode_reply
    from redtype.store import MemoryStore

    import reference  # from this file's directory

    store = MemoryStore()
    timing = False
    durations: list[float] = []
    control_in, control_out = sys.stdin.buffer, sys.stdout
    sel = selectors.DefaultSelector()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        sel.register(listener, selectors.EVENT_READ)
        sel.register(control_in, selectors.EVENT_READ)
        buffers: dict[socket.socket, bytearray] = {}
        print(listener.getsockname()[1], file=control_out, flush=True)
        while True:
            for key, _ in sel.select():
                if key.fileobj is listener:
                    conn, _ = listener.accept()
                    sel.register(conn, selectors.EVENT_READ)
                    buffers[conn] = bytearray()
                elif key.fileobj is control_in:
                    words = control_in.readline().split()
                    if not words:
                        return
                    if words[0] == b"reset":
                        store.reset()
                        timing = words[1:] == [b"1"]
                        durations = []
                        print("ok", file=control_out, flush=True)
                    elif words[0] == b"stats":
                        print(json.dumps(durations), file=control_out, flush=True)
                    elif words[0] == b"reference":
                        print(reference.seconds(), file=control_out, flush=True)
                    else:
                        raise ValueError(f"unknown control request {words!r}")
                else:
                    conn = key.fileobj
                    buf = buffers[conn]
                    try:
                        data = conn.recv(65536)
                    except ConnectionError:
                        data = b""
                    if not data:
                        sel.unregister(conn)
                        conn.close()
                        del buffers[conn]
                        continue
                    buf += data
                    while (taken := take_command(buf)) is not None:
                        argv, used = taken
                        del buf[:used]
                        if timing:
                            t0 = perf_counter()
                            reply = store.execute(argv)
                            durations.append(perf_counter() - t0)
                        else:
                            reply = store.execute(argv)
                        conn.sendall(encode_reply(reply))


if __name__ == "__main__":
    serve(sys.argv[1])
