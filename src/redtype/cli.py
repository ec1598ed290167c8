"""Command line front end: check, run, fuzz.

Exit codes: 0 success, 1 type error, 2 parse error, 3 I/O error,
4 runtime error reply, 5 connection failure, 6 fuzzer found a
soundness violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import Any, Callable, Mapping

from .backend import Backend, MemoryBackend, RespBackend, RunError, RunValue, run_program
from .checker import (
    STATUS,
    UNIT,
    CheckError,
    CheckOk,
    MaybeResult,
    check_program,
    result_text,
    undeclared_record,
)
from .codec import RecordValue
from .fuzz import FuzzConfig, run_fuzz
from .parser import ParseError, _clip, parse_program, parse_type_tag, print_program, scalar_text, tag_text
from .resp import ProtocolError
from .store import MemoryStore
from .syntax import Program, RecordDecl, record_table
from .typedict import TypeDict

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_RUNTIME_ERROR = 4
EXIT_CONNECT_ERROR = 5
EXIT_UNSOUND = 6

DEFAULT_ADDR = "127.0.0.1:6379"


class _Bail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise _Bail(EXIT_IO_ERROR, f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise _Bail(EXIT_IO_ERROR, f"cannot read {path}: {err}") from None


def _load_program(path: str) -> Program:
    source = _read_file(path)
    try:
        return parse_program(source)
    except ParseError as err:
        raise _Bail(EXIT_PARSE_ERROR, f"{path}:{err}") from None


def _load_assumption(path: str | None, program: Program) -> TypeDict:
    if path is None:
        return []
    raw = _read_file(path)
    try:
        entries = json.loads(raw)
    except (ValueError, RecursionError) as err:
        raise _Bail(EXIT_PARSE_ERROR, f"{path}: not valid JSON: {err}") from None
    if not isinstance(entries, list):
        raise _Bail(EXIT_PARSE_ERROR, f"{path}: expected a JSON array of key/tag objects")
    records = record_table(program)
    seen: dict[str, int] = {}
    out: TypeDict = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("key"), str) and isinstance(entry.get("tag"), str)):
            raise _Bail(EXIT_PARSE_ERROR, f"{path}: entry {i} must be {{\"key\": ..., \"tag\": ...}}")
        key = entry["key"]
        if key in seen:
            raise _Bail(EXIT_PARSE_ERROR, f"{path}: entry {i}: key '{_clip(key)}' is already assumed by entry {seen[key]}")
        seen[key] = i
        try:
            tag = parse_type_tag(entry["tag"])
        except ParseError as err:
            raise _Bail(EXIT_PARSE_ERROR, f"{path}: entry {i}: {err}") from None
        name = undeclared_record(tag, records)
        if name:
            raise _Bail(EXIT_PARSE_ERROR, f"{path}: entry {i}: unknown record '{_clip(name)}'")
        out.append((key, tag))
    return out


def _check_json(report: CheckOk | CheckError) -> dict[str, Any]:
    if isinstance(report, CheckOk):
        return {
            "status": "ok",
            "final_dict": [{"key": k, "tag": tag_text(t)} for k, t in report.final],
            "result_type": result_text(report.result),
        }
    span = report.span
    return {
        "status": "error",
        "line": span.line if span else 0,
        "col": span.col if span else 0,
        "constraint": report.constraint,
        "message": f"{report.opcode}: {report.detail}" if report.opcode else report.detail,
    }


def _value_text(value: Any, records: Mapping[str, RecordDecl]) -> str:
    if value is None:
        return "nil"
    if isinstance(value, (bool, int, float, str)):
        return scalar_text(value)
    if isinstance(value, RecordValue):
        names = [n for n, _ in records[value.name].fields]
        inner = ", ".join(f"{n}: {_value_text(v, records)}" for n, v in zip(names, value.values))
        return f"{value.name}{{{inner}}}"
    assert isinstance(value, list)
    return "[" + ", ".join(_value_text(v, records) for v in value) + "]"


def _outcome_text(outcome: RunValue, records: Mapping[str, RecordDecl]) -> str:
    rt = outcome.result
    if rt == STATUS:
        return outcome.value
    if rt == UNIT:
        return result_text(rt)
    if isinstance(rt, MaybeResult):
        if outcome.value is None:
            return "nil"
        return "just " + _value_text(outcome.value, records)
    return _value_text(outcome.value, records)


# ---------------------------------------------------------------------------
# subcommands


def _load_and_check(args: argparse.Namespace) -> tuple[Program, CheckOk | CheckError]:
    """The program in ``args.file``, checked from ``--assume`` (or ``[]``)."""
    program = _load_program(args.file)
    initial = _load_assumption(args.assume, program)
    return program, check_program(program, initial, strict=args.strict)


def _cmd_check(args: argparse.Namespace) -> int:
    _, report = _load_and_check(args)
    if args.json:
        print(json.dumps(_check_json(report)))
        return EXIT_OK if isinstance(report, CheckOk) else EXIT_TYPE_ERROR
    if isinstance(report, CheckOk):
        print("ok")
        print("final dictionary:")
        for k, t in report.final:
            print(f"  {k} : {tag_text(t)}")
        print(f"result: {result_text(report.result)}")
        return EXIT_OK
    print(f"{args.file}:{report}", file=sys.stderr)
    return EXIT_TYPE_ERROR


def _open_backend(args: argparse.Namespace) -> tuple[Backend, MemoryStore | None]:
    if args.backend == "mem":
        store = MemoryStore()
        return MemoryBackend(store), store
    addr = args.addr or os.environ.get("EDIS_ADDR") or DEFAULT_ADDR
    host, _, port_text = addr.rpartition(":")
    port = int(port_text) if re.fullmatch("[0-9]{1,5}", port_text) else 0
    if not host or not 1 <= port <= 65535:
        raise _Bail(EXIT_CONNECT_ERROR, f"bad address '{addr}', expected HOST:PORT")
    try:
        return RespBackend(host, port, timeout=args.timeout), None
    except OSError as err:
        raise _Bail(EXIT_CONNECT_ERROR, f"cannot connect to {addr}: {err}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    program, report = _load_and_check(args)
    if isinstance(report, CheckError):
        print(f"{args.file}:{report}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    if args.dump_store and args.backend != "mem":
        raise _Bail(EXIT_PARSE_ERROR, "--dump-store needs the mem backend")
    backend, store = _open_backend(args)
    records = record_table(program)
    try:
        outcome = run_program(program, report, backend)
    except (OSError, ProtocolError) as err:
        raise _Bail(EXIT_CONNECT_ERROR, f"connection failed: {err}") from None
    finally:
        if isinstance(backend, RespBackend):
            backend.close()
    code = EXIT_OK
    if isinstance(outcome, RunError):
        print(f"runtime error at {outcome.span.line}:{outcome.span.col}: {outcome.message}", file=sys.stderr)
        code = EXIT_RUNTIME_ERROR
    else:
        print(_outcome_text(outcome, records))
    if args.dump_store and store is not None:
        print(json.dumps(store.snapshot()))
    return code


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(
        iterations=args.iterations,
        seed=args.seed,
        max_len=args.max_len,
        strict=args.strict,
    )
    result = run_fuzz(config)
    for line in result.stats.lines():
        print(line)
    if result.counterexample is not None:
        print(f"soundness violation: {result.failure}", file=sys.stderr)
        print(print_program(result.counterexample), end="", file=sys.stderr)
        return EXIT_UNSOUND
    return EXIT_OK


def _number(convert: Callable[[str], Any], ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """argparse type: ``convert`` the text and require ``ok`` of it, else exit 2 citing ``rule``."""

    def parse(text: str) -> Any:
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"'{text}' is not {rule}")

    return parse


@functools.cache  # built on first use, once per process: main may be called many times
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="redtype", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type-check a program")
    check.add_argument("file")
    check.add_argument("--json", action="store_true", help="emit a JSON report")
    check.add_argument("--assume", metavar="FILE", help="initial dictionary (JSON)")
    check.add_argument("--strict", action="store_true", help="forbid container element retyping")
    check.set_defaults(func=_cmd_check)

    run = sub.add_parser("run", help="check, then execute")
    run.add_argument("file")
    run.add_argument("--backend", choices=("mem", "resp"), default="mem")
    run.add_argument("--addr", help="HOST:PORT for the resp backend (default $EDIS_ADDR)")
    run.add_argument(
        "--timeout",
        type=_number(float, lambda t: math.isfinite(t) and t > 0, "a finite number of seconds above 0"),
        default=5.0,
        help="reply timeout in seconds (finite, > 0)",
    )
    run.add_argument("--assume", metavar="FILE", help="initial dictionary (JSON)")
    run.add_argument("--strict", action="store_true")
    run.add_argument("--dump-store", action="store_true", help="print the final store (mem backend)")
    run.set_defaults(func=_cmd_run)

    fuzz = sub.add_parser("fuzz", help="differential soundness fuzzing")
    fuzz.add_argument(
        "--iterations", type=_number(int, lambda n: n >= 1, "an integer of at least 1"), default=1000, help="at least 1"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--max-len", type=_number(int, lambda n: n >= 1, "an integer of at least 1"), default=20, help="at least 1"
    )
    fuzz.add_argument("--strict", action="store_true")
    fuzz.set_defaults(func=_cmd_fuzz)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Bail as bail:
        print(f"redtype: {bail}", file=sys.stderr)
        return bail.code


if __name__ == "__main__":
    sys.exit(main())
