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
    so its shift period divides `step`, below k.
    """
    rng = random.Random(seed)
    k = step * size
    while True:
        gens = [[rng.randrange(field.order) for _ in range(k)] for _ in range(generators)]
        rows = [g[k - s:] + g[: k - s] for g in gens for s in range(0, k, step)]
        if all(any(row[j] for row in rows) for j in range(k)):
            return make_code(field, rows)


@pytest.fixture(scope="session")
def code_corpus() -> list[LinearCode]:
    """200 random systematic codes, half over GF(2) and half over GF(4)."""
    rng = random.Random(987123)
    corpus = [random_systematic_code(rng, GF2) for _ in range(100)]
    corpus += [random_systematic_code(rng, GF4) for _ in range(100)]
    return corpus
