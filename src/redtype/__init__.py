"""Statically checked Redis-style programs.

The package pairs a small command language with a checker that walks a
program once, tracking the type of every key it touches, and refuses
programs that would hit a WRONGTYPE or value-parse error at runtime.
Accepted programs run against an in-memory store or a real server over
RESP2.
"""

from .backend import MemoryBackend, RespBackend, RunError, RunValue, run_program
from .checker import CheckError, CheckOk, check_command, check_program, result_text
from .codec import DecodeError, RecordValue, TypedValue, decode, encode
from .parser import ParseError, parse_program, parse_type_tag, print_program, tag_text
from .store import MemoryStore
from .syntax import (
    BOOL,
    FLOAT,
    INT,
    TEXT,
    Command,
    HashOf,
    ListOf,
    Program,
    RecordDecl,
    RecordRef,
    SetOf,
    Span,
    StringOf,
)
from .typedict import (
    STUCK,
    Found,
    TypeDict,
    dict_del,
    dict_get,
    dict_member,
    dict_set,
    hash_del,
    hash_get,
    hash_member,
    hash_set,
)

__version__ = "0.1.0"

__all__ = [
    "BOOL",
    "FLOAT",
    "INT",
    "STUCK",
    "TEXT",
    "CheckError",
    "CheckOk",
    "Command",
    "DecodeError",
    "Found",
    "HashOf",
    "ListOf",
    "MemoryBackend",
    "MemoryStore",
    "ParseError",
    "Program",
    "RecordDecl",
    "RecordRef",
    "RecordValue",
    "RespBackend",
    "RunError",
    "RunValue",
    "SetOf",
    "Span",
    "StringOf",
    "TypeDict",
    "TypedValue",
    "check_command",
    "check_program",
    "decode",
    "dict_del",
    "dict_get",
    "dict_member",
    "dict_set",
    "encode",
    "hash_del",
    "hash_get",
    "hash_member",
    "hash_set",
    "parse_program",
    "parse_type_tag",
    "print_program",
    "result_text",
    "run_program",
    "tag_text",
    "__version__",
]
