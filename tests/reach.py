"""List the function definitions under src/codedpir that no CLI run calls.

Runs the codedpir CLI in this process over the invocations of CI's
"Installed package" step (their --out dropped), with a sys.setprofile
hook that records every Python function called. A definition is every
`def` that ast finds under src/codedpir, methods and nested functions
included; one ran when a call entered its code object (matched by file
and first line, the first decorator's for a decorated one).

    python tests/reach.py

prints one line per definition that never ran, "<path>:<line> <name>",
in file and line order, and "<unreached> of <definitions> definitions
never ran" last. The CLI's own output is discarded. It reports and exits
0; nothing is gated on it.
"""

from __future__ import annotations

import ast
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "codedpir"
FX = ROOT / "tests" / "fixtures"
BUNDLED = PACKAGE / "fixtures"


def _runs() -> list[list[str]]:
    """The CLI argument lists, in CI's order."""
    seed = ["--seed", "7"]
    sim = ["--files", "2", "--payload", "8", "--target", "2"]
    privacy = ["--trials", "500", "--files", "2"]
    return [
        ["table", *(str(FX / f"{c}.pchk") for c in
                    ("c2like", "c3like", "c4like", "c5like", "c6_array", "c7_array")),
         *seed, "--format", "tsv"],
        ["table", str(FX / "cauchy18_gf65536.pchk"), *seed, "--format", "tsv"],
        ["table", str(FX / "planted12_gf65536.pchk"), *seed, "--format", "tsv"],
        ["table", str(FX / "gf256_16_10.pchk"), *seed, "--format", "tsv"],
        ["optimize", str(FX / "c6_array.pchk"), *seed],
        ["optimize", str(FX / "c7_array.pchk"), *seed],
        *(["optimize", str(FX / f"{c}.pchk"), *seed, "--keep-going"] for c in ("c6_array", "c7_array")),
        *(["optimize", str(FX / "c2like.pchk"), *seed, "--budget", b] for b in ("116", "117")),
        ["privacy", str(BUNDLED / "c1.pchk"), *seed, *privacy],
        ["privacy", str(BUNDLED / "mds53.pchk"), *seed, *privacy],
        *(["privacy", str(FX / f"{c}.pchk"), *seed, *privacy] for c in ("c2like", "gf4_32", "gf128_64")),
        ["simulate", str(BUNDLED / "mds53.pchk"), *seed, *sim],
        ["simulate", str(FX / "c3like.pchk"), *seed, *sim],
        ["simulate", str(BUNDLED / "c1.pchk"), *seed, *sim],
        *(["simulate", str(FX / f"{c}.pchk"), *seed, *sim] for c in
          ("c7_array", "cauchy18_gf65536", "gf16_shift2", "gf65536_shift2", "gf128_64",
           "gf256_16_10")),
        ["simulate", str(FX / "c7_array.pchk"), *seed, "--files", "4", "--payload", "64", "--target", "3"],
        ["simulate", str(FX / "c7_array.pchk"), *seed, "--files", "2", "--payload", "65", "--target", "2"],
        ["simulate", str(FX / "c5like.pchk"), *seed, "--files", "2", "--payload", "3", "--target", "1"],
        ["privacy", str(FX / "c5like.pchk"), *seed, *privacy],
        ["privacy", str(FX / "cauchy18_gf65536.pchk"), *seed, "--trials", "200", "--files", "1"],
        *(["analyze", str(FX / f"{c}.pchk")] for c in ("c3like", "c6_array")),
    ]


def definitions(path: Path) -> list[tuple[int, int, str]]:
    """(first line of its code object, def line, qualified name) of every
    function defined in one module."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def called_code() -> set[tuple[str, int]]:
    """(real path, first line) of every code object a call entered while the
    CLI ran every invocation, from the package's import on."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(SRC))
    sys.setprofile(hook)
    try:
        from codedpir.workbench.cli import main as cli

        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in _runs():
                cli(argv)
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(name), line) for name, line in called}


def main() -> int:
    called = called_code()
    total = unreached = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        for first, line, name in definitions(path):
            total += 1
            if (real, first) not in called:
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{line} {name}")
    print(f"{unreached} of {total} definitions never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
