"""Self-tests for the benchmark: python3 -m pytest bench/test_bench.py

They run the benchmark at a tiny scale, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.1", "--scale", "0.02"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_with_its_unit(workload: str, trace: str) -> None:
    out = result(bench("--workload", workload, "--seed", "3", "--trace", trace, *TINY))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 4
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_wrong_expected_output_is_counted_as_failed(monkeypatch, capsys) -> None:
    def corrupted(seed: int, scale: float) -> workloads.Workload:
        wl = workloads.wide_keys(seed, scale)
        wl.expected_run = "just 0\n" if wl.expected_run != "just 0\n" else "1\n"
        wl.twin_line += 1
        return wl

    monkeypatch.setitem(workloads.GENERATORS, "wide-keys", corrupted)
    assert run.main(["--workload", "wide-keys", "--seed", "3", "--trace", "0", *TINY]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    # Of check, twin check, run and fuzz per repetition, twin and run fail.
    assert not out["correct"]
    assert out["failed"] == out["attempted"] // 2


def test_counts_repeat_exactly_for_a_seed() -> None:
    counts = (
        "typedict.calls", "typedict.entries_per_call", "codec.encode_calls", "codec.decode_calls",
        "backend.sends", "resp.scanned_per_received", "fuzz.accepted_ratio",
    )
    runs = [result(bench("--workload", "queue-resp", "--seed", "5", "--trace", "1", *TINY)) for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in runs)
    assert first == second
    assert first["typedict.calls"] > 0 and first["codec.decode_calls"] > 0


def test_workloads_are_a_function_of_the_seed() -> None:
    for generate in workloads.GENERATORS.values():
        assert generate(7, 0.05) == generate(7, 0.05)
        assert generate(7, 0.05).source != generate(8, 0.05).source


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fuzz", "--seed", "1", "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
