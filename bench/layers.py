"""Per-layer metrics from the spans of the traced repetitions.

Layer metrics of the program path (cli, parser, checker, typedict, codec,
store, resp, backend) come from the spans of the `check` and `run`
phases; fuzz.* come from the `fuzz` phase.  Totals and counts are per
repetition, and the median over repetitions is reported, so they do not
depend on how many repetitions fit in the run.  Percentiles pool the
samples of all traced repetitions; their sample counts are returned
alongside.  A slope is the mean per-call time in the last tenth of one
sequence of calls divided by that of the first tenth: 1.0 is linear.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Any, Sequence

from tracing import PHASES, Tracer

_FUZZ = PHASES.index("fuzz")


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def slope(durations: Sequence[float]) -> float | None:
    tenth = len(durations) // 10
    if tenth < 2:
        return None
    first = sum(durations[:tenth])
    return sum(durations[-tenth:]) / first if first > 0 else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _one_rep(
    tr: Tracer, lo: int, hi: int, server_exec: list[float] | None
) -> tuple[dict[str, float], dict[str, list[float]], dict[str, list[float]]]:
    """Totals for spans [lo, hi) of one repetition, plus raw samples and slopes."""
    names = tr.names
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    children: dict[int, float] = defaultdict(float)
    samples: dict[str, list[float]] = defaultdict(list)
    sequences: dict[tuple[str, int], list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    for i in range(lo, hi):
        d = tr.t1[i] - tr.t0[i]
        if tr.parent[i] >= 0:
            children[tr.parent[i]] += d
    for i in range(lo, hi):
        name = ("fuzz:" if tr.phase_of[i] == _FUZZ else "") + names[tr.name[i]]
        d = tr.t1[i] - tr.t0[i]
        count[name] += 1
        total[name] += d
        size[name] += tr.size[i]
        if name in ("checker.command", "store.exec", "backend.send"):
            samples[name].append(d)
        if name == "checker.command":  # one sequence per check_program call
            sequences[(name, tr.parent[i])].append(d)
        elif name == "store.exec":  # the one `run` of the repetition
            sequences[(name, 0)].append(d)
        if name in ("cli.main", "backend.send"):
            self_time[name] += d - children[i]
    if server_exec is not None:
        samples["store.exec"] = list(server_exec)
        sequences[("store.exec", 0)] = list(server_exec)
        total["store.exec"] = sum(server_exec)

    typedict = [n for n in count if n.startswith("typedict.")]
    td_calls = sum(count[n] for n in typedict)
    decode = ("resp.poll", "resp.reply", "resp.feed")
    values = {
        "parser.parse_s": total["parser.parse"],
        "parser.bytes_per_s": _ratio(size["parser.parse"], total["parser.parse"]),
        "checker.check_s": total["checker.check"],
        "typedict.calls": td_calls,
        "typedict.entries_per_call": _ratio(sum(size[n] for n in typedict), td_calls),
        "typedict.s": sum(total[n] for n in typedict),
        "codec.encode_calls": count["codec.encode"],
        "codec.decode_calls": count["codec.decode"],
        "codec.encode_s": total["codec.encode"],
        "codec.decode_s": total["codec.decode"],
        "store.exec_s": total["store.exec"],
        "resp.encode_s": total["resp.encode"],
        "resp.decode_s": sum(total[n] for n in decode),
        "resp.polls_per_reply": _ratio(count["resp.poll"] + count["resp.reply"], count["resp.reply"]),
        "resp.scanned_per_received": _ratio(size["resp.poll"] + size["resp.reply"], size["resp.feed"]),
        "backend.run_s": total["backend.run"],
        "backend.sends": count["backend.send"],
        "backend.wait_s": self_time["backend.send"],
        "backend.recheck_s": total["backend.recheck"],
        "cli.self_s": self_time["cli.main"],
        "fuzz.gen_s": total["fuzz:fuzz.gen"],
        "fuzz.check_s": total["fuzz:fuzz.check"],
        "fuzz.run_s": total["fuzz:fuzz.run"],
    }
    slopes: dict[str, list[float]] = defaultdict(list)
    for (name, _), seq in sequences.items():
        value = slope(seq)
        if value is not None:
            slopes[name].append(value)
    return values, samples, slopes


def per_layer(tr: Tracer, traced: list[Any], plain: list[Any]) -> tuple[dict[str, float], dict[str, int]]:
    """Metrics by name, and the sample count behind each percentile."""
    per_rep: dict[str, list[float]] = defaultdict(list)
    pooled: dict[str, list[float]] = defaultdict(list)
    slopes: dict[str, list[float]] = defaultdict(list)
    for rep in traced:
        values, samples, rep_slopes = _one_rep(tr, *rep.spans, rep.server_exec)
        for k, v in values.items():
            per_rep[k].append(v)
        for k, v in samples.items():
            pooled[k].extend(v)
        for k, v in rep_slopes.items():
            slopes[k].extend(v)
        per_rep["fuzz.accepted_ratio"].append(_ratio(rep.fuzz_accepted, rep.fuzz_iterations))
    out = {k: statistics.median(v) for k, v in per_rep.items()}
    for k in pooled:
        pooled[k].sort()
    cmd, exe, send = pooled["checker.command"], pooled["store.exec"], pooled["backend.send"]
    out["checker.cmd_us_p50"] = percentile(cmd, 0.50) * 1e6
    out["checker.cmd_us_p99"] = percentile(cmd, 0.99) * 1e6
    out["checker.slope"] = statistics.median(slopes["checker.command"]) if slopes["checker.command"] else 0.0
    out["store.exec_us_p99"] = percentile(exe, 0.99) * 1e6
    out["store.slope"] = statistics.median(slopes["store.exec"]) if slopes["store.exec"] else 0.0
    out["backend.send_us_p50"] = percentile(send, 0.50) * 1e6
    out["backend.send_us_p99"] = percentile(send, 0.99) * 1e6
    timed = statistics.median(r.timed_s for r in traced), statistics.median(r.timed_s for r in plain)
    out["trace.overhead_frac"] = timed[0] / timed[1] - 1
    samples = {
        "checker.cmd_us_p50": len(cmd),
        "checker.cmd_us_p99": len(cmd),
        "store.exec_us_p99": len(exe),
        "backend.send_us_p50": len(send),
        "backend.send_us_p99": len(send),
        "median_over_reps": len(traced),
    }
    return out, samples
