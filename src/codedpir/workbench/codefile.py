"""Flat text formats the CLI reads and writes.

Code files carry one parity-check matrix:

    # comment
    field <w>
    code <n> <k>
    dmin <v>        (optional hint)
    dtmin <v>       (optional hint)
    <n-k rows of n space-separated integers below 2^w>

Access matrices serialize as k lines of k characters '0'/'1'.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..algebra import MAX_WIDTH, FieldMatrix, FieldSpec
from ..codes import LinearCode, code_from_parity_check
from ..optimizer import EMatrix


class CodeFileError(ValueError):
    """Malformed code file; message carries the offending line number."""

    def __init__(self, source: str, line_no: int | None, message: str):
        where = f"{source}:{line_no}" if line_no is not None else source
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line_no = line_no


@dataclass(frozen=True)
class CodeFile:
    name: str
    code: LinearCode
    d_min_hint: int | None = None
    d_tilde_min_hint: int | None = None


def parse_code_text(text: str, name: str = "<string>") -> CodeFile:
    field_width = None
    shape = None
    hints: dict[str, int] = {}
    rows: list[list[int]] = []
    row_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        if key == "field" and field_width is None and shape is None:
            if len(parts) != 2:
                raise CodeFileError(name, line_no, "expected: field <width>")
            field_width = _parse_int(name, line_no, parts[1], "field width")
            if not 1 <= field_width <= MAX_WIDTH:
                raise CodeFileError(
                    name, line_no, f"field width must be in 1..{MAX_WIDTH}, got {field_width}"
                )
            continue
        if key == "code" and shape is None and not rows:
            if field_width is None:
                raise CodeFileError(name, line_no, "'field' line must come before 'code'")
            if len(parts) != 3:
                raise CodeFileError(name, line_no, "expected: code <n> <k>")
            n = _parse_int(name, line_no, parts[1], "n")
            k = _parse_int(name, line_no, parts[2], "k")
            shape = (n, k)
            continue
        if key in ("dmin", "dtmin") and shape is not None and not rows:
            if len(parts) != 2:
                raise CodeFileError(name, line_no, f"expected: {key} <value>")
            value = _parse_int(name, line_no, parts[1], key)
            if value < 1:
                raise CodeFileError(name, line_no, f"{key} must be positive")
            hints[key] = value
            continue
        if shape is None:
            raise CodeFileError(name, line_no, f"unexpected line before 'code' header: {line!r}")
        rows.append([_parse_int(name, line_no, tok, "matrix entry") for tok in parts])
        row_lines.append(line_no)

    if field_width is None or shape is None:
        raise CodeFileError(name, None, "missing 'field' or 'code' header")
    n, k = shape
    if n <= k or k < 1:
        raise CodeFileError(name, None, f"bad code shape ({n}, {k})")
    expected_rows = n - k
    if len(rows) != expected_rows:
        raise CodeFileError(
            name, None, f"expected {expected_rows} parity rows, found {len(rows)}"
        )
    spec = FieldSpec(field_width)
    for row, line_no in zip(rows, row_lines):
        if len(row) != n:
            raise CodeFileError(name, line_no, f"row has {len(row)} entries, expected {n}")
        for v in row:
            if not 0 <= v < spec.order:
                raise CodeFileError(
                    name, line_no, f"entry {v} outside GF(2^{field_width})"
                )
    h = FieldMatrix(spec, rows)
    code = code_from_parity_check(h)
    return CodeFile(
        name=name,
        code=code,
        d_min_hint=hints.get("dmin"),
        d_tilde_min_hint=hints.get("dtmin"),
    )


def _parse_int(source: str, line_no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CodeFileError(source, line_no, f"{what} is not an integer: {token!r}") from None


def parse_code_file(path: str | Path) -> CodeFile:
    path = Path(path)
    name = path.stem
    return parse_code_text(path.read_text(encoding="ascii"), name=name)


def serialize_code(
    code: LinearCode,
    d_min_hint: int | None = None,
    d_tilde_min_hint: int | None = None,
    comment: str | None = None,
) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"field {code.field.width}")
    lines.append(f"code {code.n} {code.k}")
    if d_min_hint is not None:
        lines.append(f"dmin {d_min_hint}")
    if d_tilde_min_hint is not None:
        lines.append(f"dtmin {d_tilde_min_hint}")
    for row in code.h.values():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def format_e_matrix(e: EMatrix) -> str:
    return "\n".join("".join(str(b) for b in row) for row in e.rows) + "\n"


def parse_e_matrix_text(text: str) -> EMatrix:
    """An access matrix from its text form; ValueError names the first
    character that is not 0 or 1 by its 1-based line and column."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.strip("01"):  # some character is neither 0 nor 1
            j = next(j for j, ch in enumerate(line) if ch not in "01")
            col = len(raw) - len(raw.lstrip()) + j + 1
            raise ValueError(f"line {line_no}, column {col}: {line[j]!r} is not 0 or 1")
        if line:
            rows.append(tuple(int(ch) for ch in line))
    if not rows:
        raise ValueError("empty access-matrix text")
    return EMatrix(tuple(rows), beta=sum(rows[0]))


def fixture_path(name: str) -> Path:
    """Path of a bundled .pchk fixture, e.g. fixture_path('c1.pchk')."""
    return Path(str(resources.files("codedpir") / "fixtures" / name))
