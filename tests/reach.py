"""List the lines of the package that the test suite never runs.

Runs pytest on ``tests/`` under ``sys.settrace``, recording the lines that
execute in ``src/hamweyl``, and prints each executable line that did not
run as ``path:line: source``, then a count per file. Executable lines are
those the compiled code maps to; docstrings and comments are skipped.
Tests that run the package in a subprocess do not count.

Usage, from the repository root (extra arguments go to pytest)::

    python tests/reach.py [-k EXPR ...]

Needs no coverage tool; pytest does not collect this file. Exits with
pytest's code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamweyl"


def _code_lines(code) -> set[int]:
    """Line numbers of the instructions of ``code`` and of its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    source = path.read_text()
    return (_code_lines(compile(source, str(path), "exec"))
            - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = []
    for name, path in files.items():
        text = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran[name])
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        counts.append(f"{rel}: {len(missed)}")
    print("lines never run: " + ", ".join(counts))
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
