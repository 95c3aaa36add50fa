#!/usr/bin/env python3
"""Count the code lines of Python sources: non-blank lines outside comments
and docstrings.

    python3 tests/code_lines.py src/paramod

A line counts when a token other than a comment, a newline or an
indentation change starts or runs through it, and it lies outside every
docstring (the first statement of a module, class or function, when that is
a string literal, by its ``ast`` line span).  A multi-line string that is not
a docstring counts every line it spans.  Prints one ``<count> <file>`` line
per ``.py`` file under each argument, sorted by path, then the total.  The
file is not a test module; pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv) -> int:
    files = sorted(
        f for arg in argv for f in ([Path(arg)] if arg.endswith(".py") else Path(arg).rglob("*.py"))
    )
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src/paramod"]))
