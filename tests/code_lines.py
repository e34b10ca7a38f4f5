"""Count the code lines of the library, module by module.

A code line is a line that holds a token, less comment-only and blank
lines and the lines of docstrings (a string expression opening a
module, class or function body); Python's `tokenize` finds the tokens
and `ast` the docstrings.  Prints each module's count under `src/`,
then the total.  Pytest does not collect this file; run it from the
root of a checkout, optionally naming other files or directories:

    python3 tests/code_lines.py [PATH ...]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold a token outside comments and docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv or ["src"]]
    total = 0
    for path in sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py"))):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,}  {path}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
