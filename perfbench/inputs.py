"""Seeded inputs for the benchmark workloads.

Everything a workload feeds to codedpir is generated here from the
workload name and the benchmark seed, as plain integers: field values of
parity-check rows, file payload components, mask seeds and target file
indices. The same (workload, seed) always yields equal inputs; codedpir
types are built from them later, during set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE / "data"

# c7_array access matrix at beta = 60, committed so that retrieve-array
# never runs the width scan; data/regen_c7_array_beta60.sh rebuilds it.
C7_MATRIX = DATA_DIR / "c7_array_beta60.txt"

TABLE_CODES = ("c2like", "c3like", "c4like", "c5like", "c6_array", "c7_array")

# `codedpir table` run with the seed that the README and ROADMAP quote; the
# scan's randomness stays fixed so every run times the same search work.
TABLE_SCAN_SEED = 7

FILES = 4          # f, files stored per code
PAYLOAD = 64       # ell, base-field symbols per stored symbol
ROUNDS = 64        # (mask seed, target) pairs drawn per code; rounds reuse them cyclically

WIDE_FIELD_WIDTH = 16
WIDE_SHAPE = (18, 12)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # string seeds hash deterministically (random.seed version 2)
    return random.Random(f"{workload}:{seed}:{part}")


@dataclass(frozen=True)
class RetrievalInputs:
    """Payloads and round schedule for one code.

    files[m][i][j] is the component tuple of message symbol (stripe i,
    node j) of file m + 1; rounds lists (mask seed, 1-based target).
    """

    files: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    rounds: tuple[tuple[int, int], ...]


def retrieval_inputs(
    workload: str, seed: int, part: str, order: int, stripes: int, k: int
) -> RetrievalInputs:
    """Files of `stripes` x k symbols over a field of `order` elements."""
    rng = _rng(workload, seed, part)
    files = tuple(
        tuple(
            tuple(tuple(rng.randrange(order) for _ in range(PAYLOAD)) for _ in range(k))
            for _ in range(stripes)
        )
        for _ in range(FILES)
    )
    rounds = tuple((rng.randrange(2**31), rng.randint(1, FILES)) for _ in range(ROUNDS))
    return RetrievalInputs(files, rounds)


def table_order(seed: int) -> tuple[str, ...]:
    """The six fixture codes in the order one table pass lists them."""
    names = list(TABLE_CODES)
    _rng("table-fixtures", seed, "order").shuffle(names)
    return tuple(names)


# x^16 + x^12 + x^3 + x + 1, the modulus codedpir's FieldSpec(16) uses by default
WIDE_MODULUS = 0x1100B


def _gf_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> WIDE_FIELD_WIDTH:
            a ^= WIDE_MODULUS
    return acc


def _gf_inv(a: int) -> int:
    # a^(2^16 - 2) by square and multiply
    result, e = 1, (1 << WIDE_FIELD_WIDTH) - 2
    while e:
        if e & 1:
            result = _gf_mul(result, a)
        a = _gf_mul(a, a)
        e >>= 1
    return result


def wide_parity_rows(seed: int) -> tuple[tuple[int, ...], ...]:
    """P of a random (18,12) Cauchy code over GF(2^16): P[i][j] = 1/(x_i + y_j).

    The 18 points are distinct random field elements, so every entry is
    nonzero and every square submatrix of P is invertible: each draw is
    MDS and the scan does the same search for every seed. A uniformly
    random P would hold about 0.28 singular square submatrices on average
    (18564 of them, each singular with odds near 1/65536), so roughly a
    quarter of seeds would draw a non-MDS code and a different search.
    """
    n, k = WIDE_SHAPE
    rng = _rng("wide-field", seed, "code")
    points = rng.sample(range(1 << WIDE_FIELD_WIDTH), n)
    xs, ys = points[: n - k], points[n - k :]
    return tuple(tuple(_gf_inv(x ^ y) for y in ys) for x in xs)


def wide_scan_seed(seed: int) -> int:
    return _rng("wide-field", seed, "scan").randrange(2**31)
