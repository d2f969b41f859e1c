"""Count code lines in Python sources: lines that are not blank, a comment
or a docstring.

A line counts when some token other than a comment, a newline or an
indent starts on it or spans it; a docstring (the first statement of a
module, class or function, when it is a string) counts for none of its
lines. Tokens come from tokenize and docstrings from ast.

    python tests/code_lines.py src/codedpir

prints one line per file, "<lines>\t<path>", and the total last. A
directory is walked for *.py files, in sorted order.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
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
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = []
    for arg in argv or ["src/codedpir"]:
        root = Path(arg)
        paths += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count}\t{path}")
    print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
