"""Statement reachability of `src/cuspforge` under the Tier-1 suite.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/reachability.py -q

It runs pytest in this process with a line tracer on every thread, then
names each statement line inside a `src/cuspforge` function that never
ran.  A statement line is the first line of an AST statement in a function
body that compiles to bytecode; docstrings do not count, and neither does
module or class level code, which every import runs.  Only frames of
`src/cuspforge` code are traced, and a code object stops being traced once
all of its statement lines have run, so a hot loop costs one lookup per
call.  The exit status is 1 when pytest fails or a line never ran.  There
is no allowlist: a line that no test reaches is either deleted or reached
by a new test.  Code run in a subprocess is not traced.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cuspforge"


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def statement_lines(path: Path) -> set[int]:
    """The first lines of the statements in the file's function bodies that have bytecode."""
    source = path.read_text()
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(stmt.lineno for stmt in ast.walk(node)
                         if isinstance(stmt, ast.stmt) and stmt is not node and stmt not in docstrings)
    compiled = {line for code in _code_objects(compile(source, str(path), "exec"))
                for _, _, line in code.co_lines() if line is not None}
    return lines & compiled


def line_tracer(targets: dict[str, set[int]]):
    """A `sys.settrace` function and the statement lines of each target file it sees run.

    Only code objects whose file is a target get a line tracer, and a code
    object gets none once all of its statement lines have run.  The tracer
    of each code object seen is kept by id, and the code object with it, so
    that no id is reused.
    """
    hit = {name: set() for name in targets}
    local_of: dict[int, object] = {}    # id(code) -> its line tracer, or None
    codes = []

    def start(code):
        codes.append(code)
        name = os.path.realpath(code.co_filename)
        lines = targets.get(name, ())
        todo = {line for _, _, line in code.co_lines() if line in lines} - hit.get(name, set())
        if not todo:
            return None
        seen, key = hit[name], id(code)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                todo.discard(frame.f_lineno)
                if not todo:
                    local_of[key] = None
                    frame.f_trace_lines = False
            return local

        return local

    def tracer(frame, event, arg):
        try:
            return local_of[id(frame.f_code)]
        except KeyError:
            local = local_of[id(frame.f_code)] = start(frame.f_code)
            return local

    return tracer, hit


def main(args: list[str]) -> int:
    os.chdir(ROOT)
    targets = {os.path.realpath(path): statement_lines(path) for path in sorted(SRC.glob("*.py"))}
    tracer, hit = line_tracer(targets)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = sum(len(lines) for lines in targets.values())
    missed = []
    for name, lines in targets.items():
        source = Path(name).read_text().splitlines()
        for line in sorted(lines - hit[name]):
            missed.append(f"{os.path.relpath(name, ROOT)}:{line}: never ran: {source[line - 1].strip()}")
    for line in missed:
        print(line)
    print(f"reachability: {total - len(missed)} of {total} statement lines "
          f"in src/cuspforge functions ran; pytest exit status {int(status)}")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
