"""Statically checked Redis-style programs.

The package pairs a small command language with a checker that walks a
program once, tracking the type of every key it touches, and refuses
programs that would hit a WRONGTYPE or value-parse error at runtime.
Accepted programs run against an in-memory store or a real server over
RESP2.
"""

import importlib

# Each exported name by the module that defines it.  A name is imported on
# first access (PEP 562), so ``import redtype.store`` loads only the store
# and what it imports, not the checker, parser, backend and fuzzer too.
_HOMES = {
    "backend": "MemoryBackend RespBackend RunError RunValue run_program",
    "checker": "CheckError CheckOk check_command check_program result_text",
    "codec": "DecodeError RecordValue TypedValue decode encode",
    "parser": "ParseError parse_program parse_type_tag print_program tag_text",
    "store": "MemoryStore",
    "syntax": "BOOL FLOAT INT TEXT Command HashOf ListOf Program RecordDecl RecordRef SetOf Span StringOf",
    "typedict": "STUCK Found TypeDict dict_del dict_get dict_member dict_set hash_del hash_get hash_member hash_set",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

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


def __getattr__(name: str) -> object:
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
