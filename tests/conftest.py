from __future__ import annotations

import random
from pathlib import Path

import pytest

from codedpir import (
    FieldMatrix,
    FieldSpec,
    LinearCode,
    code_from_parity_check,
    derived_code,
)

TESTS_DIR = Path(__file__).parent
FIXTURES_DIR = TESTS_DIR / "fixtures"

GF2 = FieldSpec(1)
GF4 = FieldSpec(2)
GF8 = FieldSpec(3)
GF16 = FieldSpec(4)


def make_code(field: FieldSpec, p_rows) -> LinearCode:
    """Assemble H = (P | I) from parity rows and wrap it."""
    r = len(p_rows)
    n = len(p_rows[0]) + r
    h_rows = [list(row) + [1 if j == i else 0 for j in range(r)] for i, row in enumerate(p_rows)]
    return code_from_parity_check(FieldMatrix(field, h_rows))


def c1_code() -> LinearCode:
    return code_from_parity_check(
        FieldMatrix(GF2, [[1, 1, 0, 1, 0], [0, 1, 1, 0, 1]])
    )


def mds53_code() -> LinearCode:
    return make_code(GF8, [[1, 1, 1], [1, 2, 4]])


def random_systematic_code(rng: random.Random, field: FieldSpec, n_lo=4, n_hi=14,
                           oracle_cap_bits=16) -> LinearCode:
    """Random valid code: R > 1/2, no unprotected message symbol, and a
    derived-code codeword count small enough for enumeration oracles."""
    while True:
        n = rng.randint(n_lo, n_hi)
        k_min = n // 2 + 1
        if k_min > n - 1:
            continue
        k = rng.randint(k_min, n - 1)
        p_rows = [[rng.randrange(field.order) for _ in range(k)] for _ in range(n - k)]
        if any(all(row[j] == 0 for row in p_rows) for j in range(k)):
            continue  # zero column: derived distance 1
        code = make_code(field, p_rows)
        k_tilde = derived_code(code).k_tilde
        if k_tilde * field.width > oracle_cap_bits:
            continue
        return code


def quasi_cyclic_code(seed: int, field: FieldSpec = GF4, generators: int = 2, step: int = 4,
                      size: int = 5) -> LinearCode:
    """Seeded length step * size code whose P holds each of a few random rows
    rotated by every multiple of `step`.

    Read with column j as (j // step, j % step), P is a grid of size x size
    circulant blocks. Rotating P's columns by `step` only permutes its rows,
    so its row shift (codes.row_shift) divides `step`, below k.
    """
    rng = random.Random(seed)
    k = step * size
    while True:
        gens = [[rng.randrange(field.order) for _ in range(k)] for _ in range(generators)]
        rows = [g[k - s:] + g[: k - s] for g in gens for s in range(0, k, step)]
        if all(any(row[j] for row in rows) for j in range(k)):
            return make_code(field, rows)


def planted_matrix(rng: random.Random, field, nrows: int, ncols: int) -> list[list[int]]:
    """Random nrows x ncols rows over `field` (a FieldSpec or an oracle field
    with `order` and `mul`) with dependencies planted at random: maybe a
    zero column, maybe a column proportional to another, maybe a column in
    the span of two others. Planted columns take random places."""
    cols = [[rng.randrange(field.order) for _ in range(nrows)] for _ in range(ncols)]

    def nonzero():
        return rng.randrange(1, field.order)

    def scaled(c, col):
        return [field.mul(c, x) for x in col]

    plants = [p for p in ("zero", "pair", "span") if rng.random() < 0.4]
    for plant in plants:
        if plant == "zero":
            cols[rng.randrange(ncols)] = [0] * nrows
        elif plant == "pair" and ncols >= 2:
            a, b = rng.sample(range(ncols), 2)
            cols[b] = scaled(nonzero(), cols[a])
        elif plant == "span" and ncols >= 3:
            a, b, c = rng.sample(range(ncols), 3)
            cols[c] = [x ^ y for x, y in zip(scaled(nonzero(), cols[a]), scaled(nonzero(), cols[b]))]
    return [[col[i] for col in cols] for i in range(nrows)]


def tall_planted_matrix(
    rng: random.Random, field, nrows: int, rank: int, ncols: int
) -> list[list[int]]:
    """nrows x ncols rows, each a random combination of a planted_matrix's
    `rank` rows: columns of nrows entries (past one 64-bit word at nrows > 8
    bytes) whose dependencies are those of the planted rows, so oracles that
    try every column subset stop by rank + 1. No column is zero."""
    base = planted_matrix(rng, field, rank, ncols)
    while not all(any(col) for col in zip(*base)):
        base = planted_matrix(rng, field, rank, ncols)
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for b in base:
            c = rng.randrange(field.order)
            row = [x ^ field.mul(c, y) for x, y in zip(row, b)]
        rows.append(row)
    return rows


def pair_level_matrix(rng: random.Random, field, nrows: int, ncols: int) -> list[list[int]]:
    """nrows x ncols rows over `field` (as planted_matrix takes it) for the
    column walks' level above their pair test, where residuals have three
    entries: a quarter of the entries 0, so some picks start with a zero
    entry, and one column planted in the span of 1..nrows - 1 others, so
    the smallest dependent set closes there by a zero residual (nrows - 1
    columns) or by two proportional residuals (nrows columns)."""

    def entry():
        return rng.randrange(1, field.order) if rng.random() < 0.75 else 0

    cols = [[entry() for _ in range(nrows)] for _ in range(ncols)]
    *others, planted = rng.sample(range(ncols), rng.randint(2, nrows))
    combo = [0] * nrows
    for o in others:
        c = rng.randrange(1, field.order)
        combo = [x ^ field.mul(c, y) for x, y in zip(combo, cols[o])]
    cols[planted] = combo
    return [[col[i] for col in cols] for i in range(nrows)]


def cauchy18_rows() -> list[list[int]]:
    """P of the (18,12) Cauchy code over GF(2^16) in
    fixtures/cauchy18_gf65536.pchk: P[i][j] = 1/(x_i + y_j) with x_i = i + 1
    and y_j = j + 7. Every square submatrix of P is invertible (MDS)."""
    field = FieldSpec(16)
    return [[field.inv((i + 1) ^ (j + 7)) for j in range(12)] for i in range(6)]


@pytest.fixture(scope="session")
def code_corpus() -> list[LinearCode]:
    """200 random systematic codes, half over GF(2) and half over GF(4)."""
    rng = random.Random(987123)
    corpus = [random_systematic_code(rng, GF2) for _ in range(100)]
    corpus += [random_systematic_code(rng, GF4) for _ in range(100)]
    return corpus
