"""probes/work_counts.py: its per-layer counts repeat exactly, whatever the hash seed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counts(hash_seed: str) -> list[dict]:
    """The probe's objects at a tiny scale, with this tree counted against itself."""
    argv = [sys.executable, "probes/work_counts.py", "--scale", "0.01", "--iterations", "20", "--against", "src"]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_work_counts_repeat_under_two_hash_seeds():
    first = counts("0")
    assert first == counts("1")
    assert [report["workload"] for report in first] == ["wide-keys", "queue-resp", "sinter-resp", "fuzz"]
    assert set(first[-1]["layers"]) == {"parse", "check", "run", "fuzz.gen", "fuzz.check", "fuzz.trial", "fuzz.loop"}
    for report in first:
        assert all(layer["opcodes"] > 0 and layer["calls"] > 0 for layer in report["layers"].values())
        # The same tree imported twice does the same work, whichever is counted first.
        assert report["against"]["layers"] == report["layers"]
        assert set(report["against"]["opcodes_ratio"].values()) == {1.0}
