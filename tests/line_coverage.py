"""Print every line of src/microrel/*.py that the test suite never runs.

Run by hand from the root of a checkout; any arguments go to pytest in
place of the default (the whole of tests/):

    python tests/line_coverage.py
    python tests/line_coverage.py tests/test_network.py -k topology

It runs pytest in this process under a ``sys.settrace`` tracer that
records only the lines of ``src/microrel/*.py``.  A module's executable
lines are those that ``co_lines()`` of its compiled code objects name.
It prints each executable line that never ran, with its text, then the
count.  The tracer sees this process only: lines that run only in forked
block workers or in the subprocesses some tests start (the command line's
``__main__`` line, for one) are printed as never run.  Tracing slows the
suite several times over, which can fail its timing gates; a failure does
not change which lines ran.

pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "microrel").glob("*.py"))
sys.path.insert(0, str(TESTS.parent / "src"))


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` name."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    wanted = {str(path) for path in SOURCES}
    traced: dict[str, str | None] = {}  # co_filename -> source path or None
    ran: dict[str, set[int]] = {path: set() for path in wanted}

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            real = os.path.realpath(name)
            traced[name] = real if real in wanted else None
        path = traced[name]
        if path is None:
            return None
        lines = ran[path]

        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line

        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in SOURCES:
        executable = executable_lines(path)
        never = sorted(executable - ran[str(path)])
        total += len(executable)
        missed += len(never)
        text = path.read_text().splitlines()
        for line in never:
            print(f"{path.relative_to(TESTS.parent)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran in this process")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
