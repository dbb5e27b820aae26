"""Statements of `src/belllab/` that the tier-1 suite never runs.

Run

    python tests/lines.py

from the repository root.  It runs the tier-1 suite (pytest over `tests/`
and `perfbench/`, as `pyproject.toml` collects them) in this one process
under a line tracer, `sys.settrace` for the main thread and
`threading.settrace` for the threads the suite starts, and then prints each
statement of `src/belllab/` that never ran.  It exits 1 if the suite fails,
if such a statement is not in `ALLOWED`, which gives each statement the
suite cannot reach in this process its reason, or if an `ALLOWED` statement
ran.  Code the suite runs only in a subprocess (a CLI run, a demo, the
benchmark) is not traced.

A statement is a line on which an ast statement starts and to which the
compiler assigns bytecode, so a function's docstring, `pass` and `else:`
are not statements, and a statement spanning lines counts once.

The file name keeps pytest from collecting it; `tests/test_source.py`
checks that every `ALLOWED` entry names one line of its file.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "belllab"

#: Statements the suite never runs in its own process, by file and stripped
#: source line, each with its reason.
ALLOWED = {
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): (
        "the exit on a closed stdout, which"
        " test_closed_stdout_exits_141_without_a_traceback runs in a subprocess"),
    ("cli.py", "return 141"): "the same closed-stdout exit, run in a subprocess",
    ("cli.py", "sys.exit(main())"): "the `__main__` guard's body: `python -m belllab.cli`"
    " runs it, in a subprocess",
}


def statements(path: Path) -> dict[int, str]:
    """The statement lines of `path`, each with its stripped source text."""
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    with_code, stack = set(), [code]
    while stack:
        block = stack.pop()
        with_code.update(line for _, _, line in block.co_lines() if line is not None)
        stack.extend(c for c in block.co_consts if isinstance(c, types.CodeType))
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    text = source.splitlines()
    return {line: text[line - 1].strip() for line in sorted(starts & with_code)}


def traced_suite() -> tuple[int, set[tuple[str, int]]]:
    """The tier-1 suite's pytest exit code, run here under the line tracer,
    and the (file, line) pairs of `src/belllab/` it ran."""
    prefix = str(SRC) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):  # a frame of the package gets the line tracer
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest  # imports no belllab module, so its module bodies are traced too

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    if any(name.startswith("belllab") for name in sys.modules):
        raise RuntimeError("belllab was imported before the tracer started")
    os.chdir(ROOT)
    start = time.perf_counter()
    code, ran = traced_suite()
    took = time.perf_counter() - start
    total = missed = unexplained = stale = 0
    for path in sorted(SRC.glob("*.py")):
        found = statements(path)
        total += len(found)
        for line, text in found.items():
            reason = ALLOWED.get((path.name, text))
            if (str(path), line) in ran:
                if reason:
                    stale += 1
                    print(f"src/belllab/{path.name}:{line}: {text}  [ALLOWED, but it ran]")
                continue
            missed += 1
            unexplained += reason is None
            print(f"src/belllab/{path.name}:{line}: {text}"
                  f"  [{'allowed: ' + reason if reason else 'NOT ALLOWED'}]")
    print(f"{total - missed} of {total} statements ran, {missed} did not "
          f"({missed - unexplained} allowed, {unexplained} not), {stale} allowed ran; "
          f"pytest exit {code}, {took:.0f} s")
    return 1 if code or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
