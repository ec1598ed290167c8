"""The command line surface: exit codes, report formats, flags."""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

import pytest

from redtype import checker
from redtype.checker import STATUS
from redtype.cli import main
from redtype.resp import ReplyDecoder, encode_reply
from redtype.store import BulkReply

QUEUE_SOURCE = """\
record Message { body: text, id: int }
program {
  declare counter : string<int>
  declare queue   : list<Message>
  i <- incr counter
  lpush queue Message{ "hello", i }
  j <- incr counter
  lpush queue Message{ "world", j }
  rpop queue
}
"""


@pytest.fixture
def queue_file(tmp_path):
    f = tmp_path / "queue.rt"
    f.write_text(QUEUE_SOURCE)
    return str(f)


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


# ---------------------------------------------------------------------------
# check


def test_check_ok_human_output(queue_file, capsys):
    assert main(["check", queue_file]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "counter : string<int>" in out
    assert "queue : list<Message>" in out
    assert "result: maybe<Message>" in out


def test_check_ok_json(queue_file, capsys):
    assert main(["check", "--json", queue_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "status": "ok",
        "final_dict": [
            {"key": "counter", "tag": "string<int>"},
            {"key": "queue", "tag": "list<Message>"},
        ],
        "result_type": "maybe<Message>",
    }


def test_check_type_error_exit_and_json(tmp_path, capsys):
    f = write(tmp_path, "bad.rt", 'program {\n  set s "foo"\n  sadd s "bar"\n}\n')
    assert main(["check", f]) == 1
    assert "SetOrNX-violated" in capsys.readouterr().err
    assert main(["check", "--json", f]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["line"] == 3 and report["col"] == 3
    assert report["constraint"] == "SetOrNX-violated"
    assert "sadd" in report["message"]


@pytest.mark.parametrize(
    "body",
    [
        "set {long} 1  sadd {long} 2",
        "hset h f 1  x <- hget h {long}",
        "hset h {long} 1  incr h",
        "set j {long}",
    ],
)
def test_check_errors_quote_long_names_clipped(tmp_path, capsys, body):
    long = "K" * 200_000
    f = write(tmp_path, "long.rt", "program { " + body.format(long=long) + " }")
    assert main(["check", f]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024 and "KKK..." in err
    assert main(["check", "--json", f]) == 1
    out = capsys.readouterr().out
    assert len(out.encode()) < 1024 and "KKK..." in json.loads(out)["message"]


def test_check_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "broken.rt", "program {")
    assert main(["check", f]) == 2
    err = capsys.readouterr().err
    assert "expected" in err
    # parse failures stay plain text even with --json
    assert main(["check", "--json", f]) == 2


def test_check_huge_int_literal_exit_2(tmp_path, capsys):
    f = write(tmp_path, "huge.rt", "program { set k " + "7" * 5000 + " }")
    assert main(["check", f]) == 2
    err = capsys.readouterr().err
    assert "literal out of range" in err
    assert "Traceback" not in err


def test_check_int_literal_with_thousands_of_leading_zeros_exit_0(tmp_path):
    f = write(tmp_path, "zeros.rt", "program { set k " + "0" * 5000 + "1  incr k }")
    assert main(["check", f]) == 0


def test_check_missing_file_exit_3(capsys):
    assert main(["check", "/no/such/file.rt"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_check_empty_file_exit_2(tmp_path):
    assert main(["check", write(tmp_path, "empty.rt", "")]) == 2


def test_check_strict_flag_tightens(tmp_path):
    f = write(tmp_path, "retype.rt", 'program { lpush q "x"  lpush q 5 }')
    assert main(["check", f]) == 0
    assert main(["check", "--strict", f]) == 1


# ---------------------------------------------------------------------------
# --assume


def test_assume_seeds_the_initial_dictionary(tmp_path, capsys):
    program = write(tmp_path, "p.rt", "program { n <- incr c }")
    assume = write(tmp_path, "init.json", json.dumps([{"key": "c", "tag": "string<int>"}]))
    assert main(["check", program]) == 1
    capsys.readouterr()
    assert main(["check", "--assume", assume, program]) == 0


def test_assume_round_trips_from_check_json(tmp_path, capsys, queue_file):
    # the final_dict of one check seeds the next
    main(["check", "--json", queue_file])
    final = json.loads(capsys.readouterr().out)["final_dict"]
    assume = write(tmp_path, "next.json", json.dumps(final))
    followup = write(
        tmp_path,
        "next.rt",
        "record Message { body: text, id: int }\nprogram { rpop queue }",
    )
    assert main(["check", "--assume", assume, followup]) == 0
    out = capsys.readouterr().out
    assert "maybe<Message>" in out


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        '{"key": "c"}',
        '[{"key": "c"}]',
        '[{"key": "c", "tag": "string<unknownrec>"}]',
        '[{"key": "c", "tag": "bogus<int>"}]',
        '[{"key": 3, "tag": "string<int>"}]',
    ],
)
def test_assume_rejects_malformed_files(tmp_path, payload, capsys):
    program = write(tmp_path, "p.rt", "program { ping }")
    assume = write(tmp_path, "bad.json", payload)
    assert main(["check", "--assume", assume, program]) == 2
    assert capsys.readouterr().err


def test_assume_missing_file_is_io_error(tmp_path):
    program = write(tmp_path, "p.rt", "program { ping }")
    assert main(["check", "--assume", "/no/such.json", program]) == 3


# ---------------------------------------------------------------------------
# run


def test_run_queue_program(queue_file, capsys):
    assert main(["run", queue_file]) == 0
    out = capsys.readouterr().out
    assert out == 'just Message{body: "hello", id: 1}\n'


def test_run_rejects_before_executing(tmp_path, capsys):
    f = write(tmp_path, "bad.rt", 'program { set s "foo"  sadd s "bar" }')
    assert main(["run", f]) == 1
    assert "SetOrNX-violated" in capsys.readouterr().err


def test_run_scalar_and_status_outputs(tmp_path, capsys):
    assert main(["run", write(tmp_path, "a.rt", "program { ping }")]) == 0
    assert capsys.readouterr().out == "PONG\n"
    assert main(["run", write(tmp_path, "b.rt", "program { set k 5 }")]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert main(["run", write(tmp_path, "c.rt", "program { llen q }")]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["run", write(tmp_path, "d.rt", "program { declare k : string<int> }")]) == 0
    assert capsys.readouterr().out == "unit\n"
    assert main(["run", write(tmp_path, "e.rt", 'program { setnx k "v" }')]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["run", write(tmp_path, "f.rt", "program { declare x : string<float>  incrbyfloat x 1.5 }")]) == 0
    assert capsys.readouterr().out == "1.5\n"
    assert main(["run", write(tmp_path, "g.rt", "program { declare k : string<int>  get k }")]) == 0
    assert capsys.readouterr().out == "nil\n"
    assert main(["run", write(tmp_path, "h.rt", 'program { sadd s "b"  sadd s "a"  sinter s s }')]) == 0
    assert capsys.readouterr().out == '["a", "b"]\n'


def test_run_runtime_error_exit_4(tmp_path, capsys):
    source = 'program {\n  lpush q "pear"\n  lpush q 5\n  rpop q\n}'
    f = write(tmp_path, "decode.rt", source)
    assert main(["run", f]) == 4
    err = capsys.readouterr().err
    assert err.startswith("runtime error at 4:3: DECODE")


def test_run_int64_overflow_is_a_runtime_error_exit_4(tmp_path, capsys):
    # README, "Where the guarantee ends": the checker tracks types, not value ranges.
    f = write(tmp_path, "overflow.rt", "program {\n  set k 9223372036854775807\n  incr k\n}")
    assert main(["run", f]) == 4
    assert capsys.readouterr().err == "runtime error at 3:3: ERR increment or decrement would overflow\n"


def test_run_dump_store(tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program { set k 5  lpush q 1 }")
    assert main(["run", "--dump-store", f]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1"  # lpush reply: new length
    snapshot = json.loads(out[1])
    assert snapshot == [
        {"key": "k", "type": "string", "value": "5"},
        {"key": "q", "type": "list", "value": ["1"]},
    ]


def test_run_dump_store_needs_mem_backend(tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program { ping }")
    assert main(["run", "--dump-store", "--backend", "resp", f]) == 2


def test_run_dump_store_on_resp_is_refused_before_the_program_is_checked(tmp_path, capsys):
    f = write(tmp_path, "ill.rt", "program { set k 1  lpush k 2 }")
    assert main(["run", "--dump-store", "--backend", "resp", f]) == 2
    assert capsys.readouterr().err == "redtype: --dump-store needs the mem backend\n"


def test_run_dump_store_on_resp_is_refused_before_the_program_is_read(tmp_path, capsys):
    assert main(["run", "--dump-store", "--backend", "resp", str(tmp_path / "missing.rt")]) == 2
    assert capsys.readouterr().err == "redtype: --dump-store needs the mem backend\n"


def test_run_resp_backend_against_loopback(resp_server, tmp_path, capsys):
    host, port, store = resp_server
    store.reset()
    f = write(tmp_path, "p.rt", "program { set k 5  n <- incr k  get k }")
    assert main(["run", "--backend", "resp", "--addr", f"{host}:{port}", f]) == 0
    assert capsys.readouterr().out == "just 6\n"


def test_run_connection_refused_exit_5(free_port, tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program { ping }")
    code = main(["run", "--backend", "resp", "--addr", f"127.0.0.1:{free_port}", f])
    assert code == 5
    assert "cannot connect" in capsys.readouterr().err


def test_run_bad_address_exit_5(tmp_path):
    f = write(tmp_path, "p.rt", "program { ping }")
    assert main(["run", "--backend", "resp", "--addr", "nonsense", f]) == 5


@pytest.mark.parametrize("port", ["99999", "65536", "0", pytest.param("9" * 5000, id="5000-digits"), "+80", ""])
def test_run_port_outside_1_to_65535_is_a_bad_address(port, tmp_path, capsys):
    # The OS would take 99999 modulo 65536 and connect to port 34463.
    f = write(tmp_path, "p.rt", "program { ping }")
    assert main(["run", "--backend", "resp", "--addr", f"127.0.0.1:{port}", f]) == 5
    assert "bad address" in capsys.readouterr().err


def test_addr_env_port_in_non_ascii_digits_is_a_bad_address(tmp_path, monkeypatch, capsys):
    # str.isdigit and int() read Arabic-Indic digits, as port 12.
    monkeypatch.setenv("EDIS_ADDR", "127.0.0.1:\u0661\u0662")
    f = write(tmp_path, "p.rt", "program { ping }")
    assert main(["run", "--backend", "resp", f]) == 5
    assert "bad address" in capsys.readouterr().err


@pytest.mark.parametrize("host", ["a" * 300, "h\udcffst"], ids=["300-char-label", "byte-0xff"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_host_the_idna_codec_refuses_is_exit_5(host, via, tmp_path, monkeypatch, capfd):
    # The host is encoded before any lookup, so this needs no network.
    # capfd, not capsys: like a process's own stderr, it escapes the
    # surrogate that stands for byte 0xff instead of raising.
    f = write(tmp_path, "p.rt", "program { ping }")
    argv = ["run", "--backend", "resp", f]
    if via == "flag":
        argv[3:3] = ["--addr", f"{host}:6379"]
    else:
        monkeypatch.setenv("EDIS_ADDR", f"{host}:6379")
    assert main(argv) == 5
    assert "cannot connect" in capfd.readouterr().err


def test_addr_env_default(tmp_path, monkeypatch, free_port):
    # EDIS_ADDR supplies the address when --addr is absent
    monkeypatch.setenv("EDIS_ADDR", f"127.0.0.1:{free_port}")
    f = write(tmp_path, "p.rt", "program { ping }")
    assert main(["run", "--backend", "resp", f]) == 5


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_prints_stats_and_exits_zero(capsys):
    assert main(["fuzz", "--iterations", "200", "--seed", "42"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "iterations: 200"
    assert out[1].startswith("accepted: ")
    assert out[2].startswith("rejected: ")
    assert out[3] == "runtime WRONGTYPE errors: 0"
    assert out[4] == "runtime parse errors: 0"
    assert out[5].startswith("decode failures: ")


def test_fuzz_strict_mode(capsys):
    assert main(["fuzz", "--iterations", "200", "--seed", "1", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "decode failures: 0" in out


def test_fuzz_deterministic_output(capsys):
    main(["fuzz", "--iterations", "150", "--seed", "9"])
    first = capsys.readouterr().out
    main(["fuzz", "--iterations", "150", "--seed", "9"])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# hostile input maps to documented exit codes


def test_assume_rejects_duplicate_keys(tmp_path, capsys):
    program = write(tmp_path, "p.rt", "program { del k }")
    entries = [{"key": "k", "tag": "string<int>"}, {"key": "k", "tag": "list<int>"}]
    assume = write(tmp_path, "dup.json", json.dumps(entries))
    assert main(["check", "--assume", assume, program]) == 2
    err = capsys.readouterr().err
    assert "entry 1" in err and "'k'" in err


def test_assume_key_with_a_lone_surrogate_is_exit_2(tmp_path, capsys):
    program = write(tmp_path, "p.rt", "program { ping }")
    assume = write(tmp_path, "a.json", '[{"key": "ok", "tag": "string<int>"}, {"key": "\\ud800", "tag": "string<int>"}]')
    assert main(["check", "--assume", assume, program]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entry 1: the key is not valid UTF-8 text" in captured.err


def test_assume_key_spelled_as_a_surrogate_pair_is_one_code_point(tmp_path, capsys):
    # JSON's "\ud83d\ude00" decodes to U+1F600, which UTF-8 encodes; a lone low surrogate decodes to itself.
    program = write(tmp_path, "p.rt", "program { ping }")
    pair = write(tmp_path, "pair.json", '[{"key": "\\ud83d\\ude00", "tag": "string<int>"}]')
    assert main(["check", "--json", "--assume", pair, program]) == 0
    assert json.loads(capsys.readouterr().out)["final_dict"] == [{"key": "\U0001f600", "tag": "string<int>"}]
    low = write(tmp_path, "low.json", '[{"key": "\\udfff", "tag": "string<int>"}]')
    assert main(["check", "--assume", low, program]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entry 0: the key is not valid UTF-8 text" in captured.err


def test_assume_errors_quote_at_most_40_characters_of_a_name(tmp_path, capsys):
    program = write(tmp_path, "p.rt", "program { ping }")
    for entries, quoted in [
        ([{"key": "k" * 200_000, "tag": "string<int>"}] * 2, f"key '{'k' * 40}...'"),
        ([{"key": "k", "tag": f"list<{'R' * 200_000}>"}], f"unknown record '{'R' * 40}...'"),
    ]:
        assume = write(tmp_path, "long.json", json.dumps(entries))
        assert main(["check", "--assume", assume, program]) == 2
        err = capsys.readouterr().err
        assert quoted in err
        assert len(err) < len(assume) + 120


def test_assume_deeply_nested_json_is_exit_2(tmp_path, capsys):
    program = write(tmp_path, "p.rt", "program { ping }")
    assume = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert main(["check", "--assume", assume, program]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_deeply_nested_record_literal_is_exit_2(tmp_path, capsys):
    f = write(tmp_path, "deep.rt", "program { set k " + "R{" * 2000 + "1" + "}" * 2000 + " }")
    assert main(["check", f]) == 2
    assert "nesting" in capsys.readouterr().err


def test_shallow_record_nesting_is_still_a_type_error(tmp_path, capsys):
    source = 'record Message { body: text, id: int }\nprogram { set k Message{Message{"a", 1}, 2} }'
    f = write(tmp_path, "nested.rt", source)
    assert main(["check", "--json", f]) == 1
    assert json.loads(capsys.readouterr().out)["constraint"] == "ElementTypeMismatch"


def test_run_malformed_server_reply_exit_5(tmp_path, capsys):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(b"*1\r\n" * 5000)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    f = write(tmp_path, "p.rt", "program { ping }")
    try:
        assert main(["run", "--backend", "resp", "--addr", f"127.0.0.1:{port}", f]) == 5
    finally:
        server.join(timeout=5)
        listener.close()
    assert "not a bulk string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["fuzz", "--max-len", "0"],
        ["fuzz", "--max-len", "-4"],
        ["fuzz", "--iterations", "0"],
        ["fuzz", "--iterations", "-5"],
        ["run", "--backend", "resp", "--timeout", "-1"],
        ["run", "--backend", "resp", "--timeout", "0"],
        ["run", "--backend", "resp", "--timeout", "nan"],
        ["run", "--backend", "resp", "--timeout", "inf"],
        ["run", "--backend", "resp", "--timeout", "1e12"],
        ["run", "--backend", "resp", "--timeout", "1e300"],
    ],
)
def test_out_of_range_flags_are_usage_errors(flags, free_port, tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program { ping }")
    argv = flags + ([f, "--addr", f"127.0.0.1:{free_port}"] if flags[0] == "run" else [])
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flags[-2]}: '{flags[-1]}' is not" in capsys.readouterr().err


def test_smallest_valid_flags_are_accepted(free_port, tmp_path, capsys):
    assert main(["fuzz", "--iterations", "20", "--max-len", "1"]) == 0
    f = write(tmp_path, "p.rt", "program { ping }")
    code = main(["run", "--backend", "resp", "--timeout", "0.5", "--addr", f"127.0.0.1:{free_port}", f])
    assert code == 5  # validated, then refused by the closed port
    assert "cannot connect" in capsys.readouterr().err


def test_largest_timeout_is_accepted(free_port, tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program { ping }")
    code = main(["run", "--backend", "resp", "--timeout", "1e9", "--addr", f"127.0.0.1:{free_port}", f])
    assert code == 5  # validated, then refused by the closed port
    assert "cannot connect" in capsys.readouterr().err


def test_run_overlong_server_header_line_exit_5(tmp_path, capsys):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            with contextlib.suppress(OSError):  # the client may hang up mid-send
                conn.sendall(b"+" + b"a" * 70_000)  # over the 64 KiB cap, no CRLF

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    f = write(tmp_path, "p.rt", "program { ping }")
    try:
        assert main(["run", "--backend", "resp", "--addr", f"127.0.0.1:{port}", f]) == 5
    finally:
        server.join(timeout=5)
        listener.close()
    assert "longer than" in capsys.readouterr().err


def test_run_against_a_server_that_never_answers_times_out(tmp_path, capsys):
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    port = listener.getsockname()[1]

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            with contextlib.suppress(OSError):
                while conn.recv(4096):  # read the request and what follows, never answer
                    pass

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    f = write(tmp_path, "p.rt", "program { ping }")
    started = time.monotonic()
    try:
        assert main(["run", "--backend", "resp", "--timeout", "0.3", "--addr", f"127.0.0.1:{port}", f]) == 5
        assert time.monotonic() - started < 3
    finally:
        server.join(timeout=5)
        listener.close()
    assert capsys.readouterr().err == "redtype: connection failed: timed out\n"


# ---------------------------------------------------------------------------
# payloads outside the codec's image, served by a scripted server


@contextlib.contextmanager
def _serving(replies: list[bytes]):
    """The address of a server that answers its n-th request with ``replies[n]``, as raw bytes."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            decoder = ReplyDecoder()
            for reply in replies:
                while decoder.poll() is None:
                    data = conn.recv(4096)
                    if not data:
                        return
                    decoder.feed(data)
                conn.sendall(reply)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        server.join(timeout=5)
        listener.close()


def _shown(data: bytes) -> str:
    """``data`` as a DECODE message quotes it."""
    return repr(data[:64] + (b"..." if len(data) > 64 else b""))


NON_CANONICAL_INTS = [b"007", b"+5", b" 5", b"1_0", b"-0", b"1" * 5000]


@pytest.mark.parametrize("bad", NON_CANONICAL_INTS, ids=["007", "+5", "space", "underscore", "-0", "5000-digits"])
@pytest.mark.parametrize("at", [0, 2000, 3999], ids=["first", "middle", "last"])
def test_sinter_item_outside_the_int_image_is_exit_4(bad, at, tmp_path, capsys):
    items = [encode_reply(BulkReply(b"%d" % (10_000 + i))) for i in range(4000)]
    items[at] = encode_reply(BulkReply(bad))
    source = "program {\n  declare s1 : set<int>\n  declare s2 : set<int>\n  sinter s1 s2\n}"
    f = write(tmp_path, "p.rt", source)
    with _serving([b"*4000\r\n" + b"".join(items)]) as addr:
        assert main(["run", "--backend", "resp", "--addr", addr, f]) == 4
    assert capsys.readouterr().err == f"runtime error at 4:3: DECODE cannot decode {_shown(bad)} as int\n"


def test_get_of_a_non_canonical_int_is_exit_4(tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program {\n  declare k : string<int>\n  get k\n}")
    with _serving([b"$3\r\n007\r\n"]) as addr:
        assert main(["run", "--backend", "resp", "--addr", addr, f]) == 4
    assert capsys.readouterr().err == "runtime error at 3:3: DECODE cannot decode b'007' as int\n"


@pytest.mark.parametrize(
    "payload, reason",
    [
        (b'{"body": "hi","id":1}', "not canonical"),
        (b'{"body":"hi","id":1.0}', "field 'id' has the wrong type"),
        (b'{"id":1,"body":"hi"}', "field names or order mismatch"),
        (b'{"body":"\\u0068i","id":1}', "not canonical"),
        (b'["hi",1]', "not a JSON object"),
        (b'{"body":"\\ud800","id":1}', "not canonical"),  # no UTF-8 text holds a lone surrogate
    ],
)
def test_rpop_of_a_non_canonical_record_is_exit_4(payload, reason, tmp_path, capsys):
    source = QUEUE_SOURCE.split("program")[0] + "program {\n  declare q : list<Message>\n  rpop q\n}"
    f = write(tmp_path, "p.rt", source)
    with _serving([encode_reply(BulkReply(payload))]) as addr:
        assert main(["run", "--backend", "resp", "--addr", addr, f]) == 4
    message = f"DECODE cannot decode {_shown(payload)} as Message ({reason})"
    assert capsys.readouterr().err == f"runtime error at 4:3: {message}\n"


def test_a_server_that_closes_mid_reply_is_exit_5(tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program {\n  declare k : string<int>\n  get k\n}")
    with _serving([b"$5\r\n12"]) as addr:  # the server closes once it has sent this
        assert main(["run", "--backend", "resp", "--addr", addr, f]) == 5
    assert capsys.readouterr().err == "redtype: connection failed: connection closed mid-reply\n"


def test_an_array_answer_to_get_is_exit_5(tmp_path, capsys):
    f = write(tmp_path, "p.rt", "program {\n  declare k : string<int>\n  get k\n}")
    with _serving([b"*2\r\n$1\r\n1\r\n$1\r\n2\r\n"]) as addr:
        assert main(["run", "--backend", "resp", "--addr", addr, f]) == 5
    err = capsys.readouterr().err
    assert err == "redtype: connection failed: reply MultiBulk of 2 items does not fit result type maybe<int>\n"


# ---------------------------------------------------------------------------
# paths no other test runs


def test_fuzz_against_an_unsound_checker_is_exit_6(monkeypatch, capsys):
    monkeypatch.setattr(checker, "_step", lambda xs, env, records, cmd, strict: STATUS)
    assert main(["fuzz", "--iterations", "100", "--seed", "1"]) == 6
    err = capsys.readouterr().err
    assert err.startswith("soundness violation: ")
    assert "\nprogram {\n" in err


def test_a_program_file_that_is_not_utf8_is_exit_3(tmp_path, capsys):
    f = tmp_path / "p.rt"
    f.write_bytes(b"program { set k \"\xff\" }")
    assert main(["check", str(f)]) == 3
    assert capsys.readouterr().err.startswith(f"redtype: cannot read {f}: 'utf-8' codec can't decode byte 0xff")


def test_a_non_numeric_iteration_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", "--iterations", "abc"])
    assert exit_info.value.code == 2
    assert "argument --iterations: 'abc' is not an integer of at least 1" in capsys.readouterr().err
