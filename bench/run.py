"""redtype benchmark: end-to-end and per-layer metrics on four seeded workloads.

Usage, from the repository root:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): wide-keys, queue-resp, sinter-resp, fuzz.
The program source is generated from --seed; redtype only ever sees the
generated text.  Load is one client, closed loop: each repetition runs,
one after another, `redtype check` on the accepted program, `redtype
check --json` on its ill-typed twin, `redtype run`, and one `run_fuzz`
pass, all in-process through `redtype.cli.main` and `redtype.fuzz`.  The
RESP workloads run against bench/server.py, a separate process, so the
client and the server do not share one interpreter lock.  Repetitions
continue until --seconds have passed (at least three).  Each timed
operation starts after a full garbage collection, as it would in a fresh
`redtype` process, and is bracketed by the reference workload of
reference.py, which scales its time to a host of fixed speed, so that
other machines' load on shared cores does not show as a change in
redtype.  A timing is the median of those scaled times over repetitions;
the context line also gives the unscaled medians and the host's speed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions, reports the per-layer metrics from the traced
ones and the tracing overhead from the difference, and writes every span
to bench/out/spans-<workload>.json.gz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the machine
context and the number of samples behind every percentile.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import select
import signal
import socket
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, TypeVar

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ("cli", "parser", "checker", "typedict", "codec", "store", "resp", "backend", "fuzz")
SETUPS = 7
MIN_REPS = 3
SERVER_TIMEOUT_S = 10.0
T = TypeVar("T")


class Server:
    """The loopback RESP2 server child process and its control channel."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py"), str(ROOT / "src")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        try:
            self.port = int(self._reply())
            with socket.create_connection(("127.0.0.1", self.port), timeout=SERVER_TIMEOUT_S) as conn:
                conn.sendall(b"*1\r\n$4\r\nPING\r\n")
                if conn.recv(64) != b"+PONG\r\n":
                    raise RuntimeError("server did not answer PING")
        except BaseException:
            self.close()
            raise

    def _reply(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("benchmark server did not reply")
        return line.decode("ascii").strip()

    def request(self, line: str) -> str:
        self.proc.stdin.write(line.encode("ascii") + b"\n")
        self.proc.stdin.flush()
        return self._reply()

    def reset(self, timing: bool) -> None:
        if self.request(f"reset {int(timing)}") != "ok":
            raise RuntimeError("benchmark server did not reset")

    def exec_durations(self) -> list[float]:
        return json.loads(self.request("stats"))

    def reference_s(self) -> float:
        return float(self.request("reference"))

    def close(self) -> None:
        try:
            self.proc.stdin.close()  # end of stdin stops the server
        except OSError:
            pass
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def import_redtype() -> SimpleNamespace:
    """A fresh import of every redtype module, as a new process would do it."""
    for name in [m for m in sys.modules if m == "redtype" or m.startswith("redtype.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"redtype.{m}") for m in MODULES})


@dataclass
class Setup:
    rt: SimpleNamespace
    wl: workloads.Workload
    program: str
    twin: str
    server: Server | None
    seconds: float  # at reference speed
    wall_s: float


def bracketed(op: Callable[[], T], server: Server | None = None) -> tuple[T, float, float]:
    """op's result, its wall time, and that time scaled to reference speed.

    Pass the server when op uses it, so that its host speed counts too.
    """
    probes = [reference.seconds] + ([server.reference_s] if server else [])
    gc.collect()
    refs = [probe() for probe in probes]
    t0 = perf_counter()
    result = op()
    elapsed = perf_counter() - t0
    refs += [probe() for probe in probes]
    return result, elapsed, reference.scaled(elapsed, refs)


def set_up(name: str, seed: int, scale: float) -> Setup:
    def make() -> tuple[SimpleNamespace, workloads.Workload, Server | None]:
        rt = import_redtype()
        wl = workloads.GENERATORS[name](seed, scale)
        program.write_text(wl.source, encoding="utf-8")
        twin.write_text(wl.twin, encoding="utf-8")
        return rt, wl, Server() if wl.backend == "resp" else None

    program, twin = OUT / f"{name}.rt", OUT / f"{name}-twin.rt"
    (rt, wl, server), wall, seconds = bracketed(make)
    return Setup(rt, wl, str(program), str(twin), server, seconds, wall)


@dataclass
class Rep:
    # Timings at reference speed; `wall` holds the same unscaled.
    check_s: float = 0.0
    run_s: float = 0.0
    fuzz_s: float = 0.0
    wall: dict[str, float] = field(default_factory=dict)
    timed_s: float = 0.0  # check_s + run_s + fuzz_s
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    fuzz_iterations: int = 0
    fuzz_accepted: int = 0
    spans: tuple[int, int] = (0, 0)
    server_exec: list[float] | None = None


def cli(rt: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = rt.cli.main(argv)
    return code, out.getvalue()


def run_rep(s: Setup, tracer: Tracer | None) -> Rep:
    """One repetition: check, twin check, run, fuzz; every output verified."""
    rt, wl = s.rt, s.wl
    rep = Rep()
    phase = tracer.set_phase if tracer else (lambda p: None)
    first_span = len(tracer.t0) if tracer else 0

    def attempt(what: str, op):  # type: ignore[no-untyped-def]
        rep.attempted += 1
        try:
            problem = op()
        except Exception as err:  # a traceback from redtype is a failed operation
            problem = f"raised {type(err).__name__}: {err}"
        if problem:
            rep.failures.append(f"{what}: {problem}")

    def check() -> str | None:
        phase("check")
        (code, out), rep.wall["check_s"], rep.check_s = bracketed(lambda: cli(rt, ["check", s.program]))
        phase(None)
        if code != 0 or out != wl.expected_check:
            return f"exit {code}, output {out[:200]!r}"
        return None

    def twin() -> str | None:
        code, out = cli(rt, ["check", "--json", s.twin])
        report = json.loads(out)
        got = (code, report.get("constraint"), report.get("line"))
        want = (1, wl.twin_constraint, wl.twin_line)
        return None if got == want else f"got {got}, want {want}"

    def run() -> str | None:
        argv = ["run", "--backend", wl.backend]
        if s.server:
            s.server.reset(timing=tracer is not None)
            argv += ["--addr", f"127.0.0.1:{s.server.port}"]
        phase("run")
        (code, out), rep.wall["run_s"], rep.run_s = bracketed(lambda: cli(rt, argv + [s.program]), s.server)
        phase(None)
        if s.server and tracer:
            rep.server_exec = s.server.exec_durations()
        if code != 0 or out != wl.expected_run:
            return f"exit {code}, output {out[:200]!r}"
        return None

    def fuzz() -> str | None:
        n = wl.fuzz_iterations
        config = rt.fuzz.FuzzConfig(iterations=n, seed=wl.fuzz_seed, max_len=20)
        phase("fuzz")
        result, rep.wall["fuzz_s"], rep.fuzz_s = bracketed(lambda: rt.fuzz.run_fuzz(config))
        phase(None)
        st = result.stats
        rep.fuzz_iterations, rep.fuzz_accepted = n, st.accepted
        if result.counterexample is not None or st.wrongtype or st.parse_errors:
            return f"soundness violation: {result.failure}"
        if st.iterations != n or st.accepted + st.rejected != n:
            return f"counted {st.iterations} iterations, {st.accepted} accepted, {st.rejected} rejected"
        return None

    try:
        attempt("check", check)
        attempt("twin", twin)
        attempt("run", run)
        attempt("fuzz", fuzz)
    finally:
        phase(None)
    rep.timed_s = rep.check_s + rep.run_s + rep.fuzz_s
    rep.spans = (first_span, len(tracer.t0) if tracer else 0)
    return rep


def measure(s: Setup, seconds: float, trace: bool) -> tuple[list[Rep], list[Rep], Tracer]:
    """Repeat for `seconds`; with trace, alternate untraced and traced repetitions.

    A repetition starts only if one more, as long as the last, still ends
    within `seconds`, once MIN_REPS are done.
    """
    tracer = Tracer()
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append(run_rep(s, None))
        if trace:
            tracer.install(s.rt)
            try:
                traced.append(run_rep(s, tracer))
            finally:
                tracer.remove()
        now = perf_counter()
        if len(plain) >= MIN_REPS and now + (now - began) - start > seconds:
            return plain, traced, tracer


def _median(times: list[float]) -> float:
    # An operation that raised left its timing at 0 and is left out.
    times = [t for t in times if t]
    return statistics.median(times) if times else 0.0


def end_to_end(s: Setup, setups: list[Setup], reps: list[Rep]) -> dict[str, float]:
    run_s, fuzz_s = _median([r.run_s for r in reps]), _median([r.fuzz_s for r in reps])
    return {
        "setup_s": statistics.median(x.seconds for x in setups),
        "check_s": _median([r.check_s for r in reps]),
        "run_cmds_per_s": s.wl.wire_commands / run_s if run_s else 0.0,
        "fuzz_programs_per_s": s.wl.fuzz_iterations / fuzz_s if fuzz_s else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="program size factor, for smoke tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "redtype" / "__init__.py").is_file():
        print(f"bench: no redtype sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the server is still reaped
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    context = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }

    setups: list[Setup] = []
    try:
        for _ in range(SETUPS):
            if setups and setups[-1].server:
                setups[-1].server.close()
            setups.append(set_up(args.workload, args.seed, args.scale))
        s = setups[-1]
        plain, traced, tracer = measure(s, args.seconds, bool(args.trace))
    finally:
        for done in setups:
            if done.server:
                done.server.close()

    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failures = [f for r in reps for f in r.failures]
    for failure in failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    scaled = {"check_s": [r.check_s for r in plain], "run_s": [r.run_s for r in plain], "fuzz_s": [r.fuzz_s for r in plain]}
    context.update(
        setup_s=[x.seconds for x in setups],
        setup_wall_s=[x.wall_s for x in setups],
        wall_medians={k: _median([r.wall.get(k, 0.0) for r in plain]) for k in scaled},
        # How much slower than the reference host this one ran, per operation.
        host_slowdown=_median([r.wall[k] / t for k, ts in scaled.items() for r, t in zip(plain, ts) if t]),
        reps=len(plain),
        traced_reps=len(traced),
        failed_frac=len(failures) / attempted,
    )
    if args.trace:
        values, samples = layers.per_layer(tracer, traced, plain)
        context["samples"] = samples
        tracer.write(str(OUT / f"spans-{args.workload}.json.gz"))
    else:
        values = end_to_end(s, setups, plain)
    # Names and units come from BENCHMARK.json, so the two cannot drift apart.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
