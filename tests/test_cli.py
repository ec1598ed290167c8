"""The command line surface: exit codes, report formats, flags."""

from __future__ import annotations

import contextlib
import json
import socket
import threading

import pytest

from redtype.cli import main

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


def test_check_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "broken.rt", "program {")
    assert main(["check", f]) == 2
    err = capsys.readouterr().err
    assert "expected" in err
    # parse failures stay plain text even with --json
    assert main(["check", "--json", f]) == 2


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
        ["run", "--backend", "resp", "--timeout", "-1"],
        ["run", "--backend", "resp", "--timeout", "0"],
        ["run", "--backend", "resp", "--timeout", "nan"],
        ["run", "--backend", "resp", "--timeout", "inf"],
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
