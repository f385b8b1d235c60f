"""The statements of the package that no tier-1 test runs.

    PYTHONPATH=src python tests/coverage_report.py

Runs the tier-1 suite in this process under a ``sys.settrace`` tracer that
traces only frames of code in ``src/rank1nash``, then prints, as
``path:line: source``, each statement of the package that no test ran. A
statement ran if the tracer saw any line of it; for a compound statement,
any line of its header (decorators included) or any statement inside it.
Of a statement that did not run, only the statement prints, not those
inside it. A docstring runs no line, so it is not a statement here.

A statement that carries ``# pragma: no cover`` on a line of its header,
or sits inside a statement or ``except`` clause that does, is exempt: it
prints, marked exempt, but does not fail the run. The pragma's comment
says why no test runs it. The script exits 1 if the suite fails or any
printed statement is not exempt, so a new safety raise comes with a test
that reaches it. It needs the standard library and pytest only, and the
traced suite runs about 4 times as long as a plain one. Pytest does not
collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rank1nash"
PRAGMA = "# pragma: no cover"


def _tracer(seen: set):
    """A trace function that adds to ``seen`` each (file name, line) run in
    a frame of the package's code, and traces no other frame."""
    ours = {}

    def line(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == PACKAGE
        return line if ours[name] else None

    return call


def _bare_constant(node: ast.stmt) -> bool:
    """A docstring, or another bare constant: it compiles to no line."""
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def _marked(lines: list[str], first: int, last: int) -> bool:
    return any(PRAGMA in lines[i - 1] for i in range(first, last + 1))


def _unrun(body, lines, ran_lines, exempt, out) -> bool:
    """Add to ``out`` the (line, exempt) of each outermost statement of
    ``body`` that did not run; return whether any statement of it ran."""
    any_ran = False
    for node in body:
        if _bare_constant(node):
            continue
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        inner = getattr(node, "body", None)
        last = max(first, inner[0].lineno - 1) if inner else node.end_lineno
        mark = exempt or _marked(lines, first, last)
        fields = ("body", "orelse", "finalbody")
        blocks = [(getattr(node, f, []), mark) for f in fields]
        for h in getattr(node, "handlers", []):
            end = max(h.lineno, h.body[0].lineno - 1)
            blocks.append((h.body, mark or _marked(lines, h.lineno, end)))
        blocks += [(case.body, mark) for case in getattr(node, "cases", [])]
        found = []
        ran = not ran_lines.isdisjoint(range(first, last + 1))
        for block, block_mark in blocks:
            ran = _unrun(block, lines, ran_lines, block_mark, found) or ran
        out.extend(found if ran else [(first, mark)])
        any_ran = any_ran or ran
    return any_ran


def main() -> int:
    seen: set[tuple[str, int]] = set()
    tracer = _tracer(seen)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    package = sys.modules.get("rank1nash")
    if package is None or Path(package.__file__).resolve().parent != PACKAGE:
        print(f"the tests did not import rank1nash from {PACKAGE}")
        return 1
    ran = {}
    for name, line in seen:
        ran.setdefault(Path(name).resolve(), set()).add(line)
    failed = status != 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        missed = []
        tree = ast.parse("\n".join(lines))
        _unrun(tree.body, lines, ran.get(path, set()), False, missed)
        for line, exempt in missed:
            note = "  (exempt)" if exempt else ""
            where = f"{path.relative_to(ROOT)}:{line}"
            print(f"{where}: {lines[line - 1].strip()}{note}")
            failed = failed or not exempt
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
