"""Per-layer spans, recorded by wrapping redtype's cross-layer calls.

``Tracer.install`` replaces, on the imported redtype modules, the names
that one layer uses to call into another (for example
``redtype.backend.check_command`` or ``redtype.codec.encode``) with
wrappers that record a span: name, parent span, phase, start, end and a
size (bytes or dictionary entries, depending on the span).  ``remove``
puts the originals back, so untraced repetitions run unwrapped code.
Spans live in flat arrays in memory and are written out once, at the
end of the run.

Calls that a layer makes into itself (``codec.decode`` re-encoding to
check canonicity, ``typedict.hash_get`` looking up a field) are not
separate crossings and are not recorded: such wrappers share a group,
and a call made from inside a span of its own group runs unrecorded.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter
from typing import Any, Callable

PHASES = ("check", "run", "fuzz")
NO_PHASE = -1

_TYPEDICT_OPS = (
    "dict_get", "dict_set", "dict_del", "dict_member",
    "hash_get", "hash_set", "hash_del", "hash_member", "or_nx",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.size = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.phase = NO_PHASE
        self._top = -1
        self._top_group = ""
        self._saved: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_phase(self, phase: str | None) -> None:
        self.phase = NO_PHASE if phase is None else PHASES.index(phase)

    def call(self, nid: int, group: str, size: int, fn: Callable, args: tuple, kwargs: dict) -> tuple[int, Any]:
        """Run fn inside a new span; returns (span index, result)."""
        parent, parent_group = self._top, self._top_group
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(parent)
        self.phase_of.append(self.phase)
        self.size.append(size)
        self.t1.append(0.0)
        self._top, self._top_group = i, group
        self.t0.append(perf_counter())
        try:
            return i, fn(*args, **kwargs)
        finally:
            self.t1[i] = perf_counter()
            self._top, self._top_group = parent, parent_group

    def wrap(
        self, name: str, fn: Callable, size: Callable[[tuple], int] | None = None, group: str | None = None
    ) -> Callable:
        group = group or name
        nid = self.name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.phase == NO_PHASE or self._top_group == group:
                return fn(*args, **kwargs)
            return self.call(nid, group, size(args) if size else 0, fn, args, kwargs)[1]

        return traced

    def _decoder_class(self, base: type) -> type:
        feed = self.wrap("resp.feed", base.feed, lambda a: len(a[1]))
        poll_id, reply_id = self.name_id("resp.poll"), self.name_id("resp.reply")
        tracer = self

        class TracedReplyDecoder(base):  # type: ignore[misc, valid-type]
            def feed(self, data: bytes) -> None:
                feed(self, data)

            def poll(self):  # type: ignore[no-untyped-def]
                if tracer.phase == NO_PHASE:
                    return base.poll(self)
                i, reply = tracer.call(poll_id, "resp", self.pending, base.poll, (self,), {})
                if reply is not None:
                    tracer.name[i] = reply_id
                return reply

        return TracedReplyDecoder

    def install(self, rt: Any) -> None:
        """Wrap the layer crossings of the redtype modules in ``rt``."""
        targets: list[tuple[Any, str, Any]] = [
            (rt.cli, "main", self.wrap("cli.main", rt.cli.main)),
            (rt.cli, "parse_program", self.wrap("parser.parse", rt.cli.parse_program, lambda a: len(a[0].encode("utf-8")))),
            (rt.cli, "check_program", self.wrap("checker.check", rt.cli.check_program)),
            (rt.cli, "run_program", self.wrap("backend.run", rt.cli.run_program)),
            (rt.checker, "check_command", self.wrap("checker.command", rt.checker.check_command)),
            (rt.codec, "encode", self.wrap("codec.encode", rt.codec.encode, group="codec")),
            (rt.codec, "decode", self.wrap("codec.decode", rt.codec.decode, group="codec")),
            (rt.backend, "encode_command", self.wrap("resp.encode", rt.backend.encode_command)),
            (rt.backend, "ReplyDecoder", self._decoder_class(rt.backend.ReplyDecoder)),
            (rt.backend, "check_command", self.wrap("backend.recheck", rt.backend.check_command)),
            (rt.backend.MemoryBackend, "send", self.wrap("backend.send", rt.backend.MemoryBackend.send)),
            (rt.backend.RespBackend, "send", self.wrap("backend.send", rt.backend.RespBackend.send)),
            (rt.store.MemoryStore, "execute", self.wrap("store.exec", rt.store.MemoryStore.execute)),
            (rt.fuzz, "generate_program", self.wrap("fuzz.gen", rt.fuzz.generate_program)),
            (rt.fuzz, "check_program", self.wrap("fuzz.check", rt.fuzz.check_program)),
            (rt.fuzz, "run_program", self.wrap("fuzz.run", rt.fuzz.run_program)),
        ]
        for op in _TYPEDICT_OPS:
            # The dictionary is the first argument, after the predicate for or_nx.
            at = 1 if op == "or_nx" else 0
            fn = getattr(rt.typedict, op)
            targets.append((rt.typedict, op, self.wrap(f"typedict.{op}", fn, lambda a, at=at: len(a[at]), "typedict")))
        for owner, attr, wrapper in targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """All spans as JSON columns, gzip-compressed."""
        doc = {
            "names": self.names,
            "phases": PHASES,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "phase": self.phase_of.tolist(),
            "size": self.size.tolist(),
            "t0": self.t0.tolist(),
            "t1": self.t1.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
