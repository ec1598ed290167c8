"""The lines of ``src/redtype`` that a pytest selection never runs.

Usage, from the repository root:

  python3 probes/untested_lines.py [--src src] [-- PYTEST_ARGS...]

Runs pytest in this process under the standard library's ``trace``
(the ``--count --missing`` of ``python -m trace``, threads included) and
lists every executable line of ``src/redtype`` that no test reached,
as ``path:line: source``, file by file, with a count per file last.
Everything after ``--`` goes to pytest; the default selection is
``tests`` minus acceptance criteria 4 and 5, whose exhaustive sweep
and 10k fuzz runs would take most of the time under the tracer.  Under
``trace`` the default selection runs for a few minutes, and a test with
a wall-clock budget may fail; its lines still count as run.  An
exception inside the trace callback (a RecursionError in a deeply
recursive test) unsets the tracer, and every line run after it would
read as untested; if the tracer is gone after some test, the probe
prints that test's node id instead of the report and exits 2.  Needs
pytest, as the suite does; no coverage package.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import trace

DEFAULT_PYTEST_ARGS = [
    "tests",
    "-q",
    "-p",
    "no:cacheprovider",
    "--deselect",
    "tests/test_acceptance.py::test_criterion_4_typedict_matches_oracle_exhaustively",
    "--deselect",
    "tests/test_acceptance.py::test_criterion_5_fuzz_soundness",
]


class _TracerWatch:
    """A pytest plugin that notes the first test after which no tracer is set."""

    def __init__(self) -> None:
        self.lost_after: str | None = None

    def pytest_runtest_logfinish(self, nodeid: str) -> None:
        if self.lost_after is None and sys.gettrace() is None:
            self.lost_after = nodeid


def untested(src: str, pytest_args: list[str]) -> dict[str, list[tuple[int, str]]]:
    """Per file of ``src``/redtype, the (line number, text) of each line the selection never runs."""
    import pytest  # imported before tracing starts, so that only the run is traced

    sys.path.insert(0, src)
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    # trace caches whether to ignore a module by its bare name, so without this the
    # package's __init__ would be skipped like the first ignored __init__ it meets.
    tracer.ignore._ignore["__init__"] = 0  # type: ignore[attr-defined]
    watch = _TracerWatch()
    run = {"pytest": pytest, "args": pytest_args, "plugins": [watch]}
    with contextlib.redirect_stdout(sys.stderr):  # stdout is for the report
        tracer.runctx("status = pytest.main(args, plugins=plugins)", run, run)
    print(f"pytest exit status: {run['status']}", file=sys.stderr)
    if watch.lost_after is not None:
        print(f"tracer lost by the end of {watch.lost_after}: no report")
        sys.exit(2)
    # Some tests import the package afresh under another spelling of its path,
    # so lines are matched by real path; trace's --missing would write one
    # report per spelling under a single module name.
    ran = {(os.path.realpath(filename), n) for filename, n in tracer.results().counts}
    package = os.path.join(src, "redtype")
    out: dict[str, list[tuple[int, str]]] = {}
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        path = os.path.realpath(os.path.join(package, name))
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        # the executable lines, as trace's --missing finds them
        executable = trace._find_executable_linenos(path)  # type: ignore[attr-defined]
        out[name] = [(n, text[n - 1]) for n in sorted(executable) if n > 0 and (path, n) not in ran]
    return out


def main() -> None:
    argv = sys.argv[1:]
    ours, theirs = (argv, DEFAULT_PYTEST_ARGS)
    if "--" in argv:
        ours, theirs = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default="src")
    args = ap.parse_args(ours)
    missing = untested(os.path.abspath(args.src), theirs)
    for name, lines in missing.items():
        for n, text in lines:
            print(f"{args.src}/redtype/{name}:{n}: {text.strip()}")
    for name, lines in missing.items():
        print(f"{len(lines):4d}  {name}")


if __name__ == "__main__":
    main()
