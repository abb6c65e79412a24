"""Print the lines of src/guesswork_lab that a pytest run never executes.

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

Runs pytest in this process under a sys.settrace line tracer, then lists,
module by module, the executable lines (those that carry bytecode) that
never ran.  Code that runs only in child processes, such as the fresh
interpreters some CLI tests start and multi-worker experiments, is not
seen, so its lines are listed too.  Tracing slows the run several times;
pass pytest's -k or --deselect to leave out the slowest acceptance tests.
The script is not a test (pytest does not collect it) and gates nothing:
it exits with pytest's status.
"""
from __future__ import annotations

import pathlib
import sys
import threading
import types
from collections import defaultdict

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "guesswork_lab"


def executable_lines(path: pathlib.Path) -> set[int]:
    """Lines that carry bytecode in any code object of the module."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's resume
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "a-b, c" runs."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(args: list[str]) -> int:
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # a call runs its code object's first line (def, or its first decorator)
        ran[filename].add(frame.f_code.co_firstlineno)
        return local

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran[str(path)])
        total += len(lines)
        missed += len(never)
        if never:
            print(f"{path.relative_to(SRC.parents[1])}: {ranges(never)}")
    print(f"{missed} of {total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
