"""Exact arithmetic over GF(2^w) and dense linear algebra on top of it.

Field elements are integers in [0, 2^w): bit i holds the coefficient of x^i
in the polynomial basis. Addition is XOR in every binary extension field;
products and inverses are lookups in one log/antilog table pair per field,
built from a validated irreducible modulus and shared by every spec of it.
Matrices hold raw integer entries. Vectors that linear maps act on as a
whole (payload symbols, rows under elimination) are bit-sliced into one int
each (BitSlices), so adding two of them is one XOR; one Gauss-Jordan kernel
on such rows serves rref, matrix_rank and solve, and one incremental
elimination on such vectors (_extends) answers the width scan's
independence tests at every field width.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import or_, xor
from typing import Callable, Iterable, Iterator, Sequence

MAX_WIDTH = 16

# Conventional irreducible polynomials, one per width, so that runs are
# reproducible when no modulus is supplied. Bit i is the coefficient of x^i.
DEFAULT_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class ReducibleModulusError(ValueError):
    """The requested field modulus has a nontrivial divisor over GF(2)."""


class FieldMismatchError(ValueError):
    """Two operands belong to different field specs."""


class RightHandSideError(ValueError):
    """solve() got symbol rows of mixed types, fields, payload lengths or widths."""


class SingularSystemError(ValueError):
    """The coefficient matrix handed to solve() lacks full column rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m, both GF(2)[x] coefficient masks."""
    dm = poly_degree(m)
    while a and poly_degree(a) >= dm:
        a ^= m << (poly_degree(a) - dm)
    return a


def poly_str(p: int) -> str:
    """Render a coefficient mask as a polynomial, e.g. 0b1011 -> x^3+x+1."""
    if p == 0:
        return "0"
    terms = []
    for i in range(poly_degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


def smallest_factor(p: int) -> int | None:
    """Smallest-degree nontrivial divisor of p over GF(2), or None.

    Exhaustive trial division; a reducible polynomial of degree w has an
    irreducible factor of degree at most w // 2, and the smallest divisor
    found this way is itself irreducible.
    """
    for d in range(1, poly_degree(p) // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(p, q) == 0:
                return q
    return None


def _raw_mul(a: int, b: int, modulus: int) -> int:
    """Shift-and-add product of two raw values, reduced as it goes."""
    top = 1 << poly_degree(modulus)
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return acc


def _raw_pow(a: int, e: int, modulus: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = _raw_mul(result, a, modulus)
        a = _raw_mul(a, a, modulus)
        e >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=32)
def _log_tables(width: int, modulus: int) -> tuple[array, array]:
    """Antilog and log tables of GF(2^width) under an irreducible modulus.

    exp[i] = g^i for a generator g, stored twice over (2^w - 1 entries
    each) so that exp[log[a] + log[b]] needs no reduction; log[exp[i]] = i
    and log[0] is unused. g is the smallest value whose order is 2^w - 1:
    g^((2^w - 1)/p) != 1 for every prime p dividing 2^w - 1. Cached per
    field, so every spec of one field shares one pair of compact tables.
    """
    size = (1 << width) - 1
    factors = _prime_factors(size)
    g = next(
        g for g in range(1, size + 1)
        if all(_raw_pow(g, size // p, modulus) != 1 for p in factors)
    )
    exp = array("H", bytes(4 * size))
    v = 1
    for i in range(size):
        exp[i] = exp[i + size] = v
        v = _raw_mul(v, g, modulus)
    log = array("H", bytes(2 * (size + 1)))
    for i in range(size):
        log[exp[i]] = i
    return exp, log


class FieldSpec:
    """A binary extension field GF(2^width) with a fixed reduction modulus.

    Instances are immutable; two specs compare equal when width and modulus
    agree. Arithmetic methods act on raw integer element values and reject
    anything outside 0..2^width-1.

    Every width multiplies and inverts through the field's log/antilog
    tables (GF(2) multiplies with `&`). The unchecked kernels `_mul` and
    `_inv` are for this module's loops over values already known valid;
    `_inv` must not be given 0.
    """

    __slots__ = ("width", "modulus", "order", "_exp", "_log", "_mul", "_inv")

    def __init__(self, width: int, modulus: int | None = None):
        if not isinstance(width, int) or not 1 <= width <= MAX_WIDTH:
            raise ValueError(f"field width must be an integer in 1..{MAX_WIDTH}, got {width!r}")
        if modulus is None:
            modulus = DEFAULT_MODULI[width]
        if poly_degree(modulus) != width:
            raise ValueError(
                f"modulus {poly_str(modulus)} has degree {poly_degree(modulus)}, expected {width}"
            )
        factor = smallest_factor(modulus)
        if factor is not None:
            raise ReducibleModulusError(f"reducible: divisible by {poly_str(factor)}")
        self.width = width
        self.modulus = modulus
        self.order = 1 << width
        self._exp, self._log = exp, log = _log_tables(width, modulus)
        size = self.order - 1

        def table_mul(a: int, b: int, _exp=exp, _log=log) -> int:
            if a == 0 or b == 0:
                return 0
            return _exp[_log[a] + _log[b]]

        def table_inv(a: int, _exp=exp, _log=log, _size=size) -> int:
            return _exp[_size - _log[a]]

        self._mul: Callable[[int, int], int] = (lambda a, b: a & b) if width == 1 else table_mul
        self._inv: Callable[[int], int] = table_inv

    # -- arithmetic on raw values ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a: int, b: int) -> int:
        return self._mul(self.validate(a), self.validate(b))

    def inv(self, a: int) -> int:
        if self.validate(a) == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inv(a)

    def div(self, a: int, b: int) -> int:
        return self._mul(self.validate(a), self.inv(b))

    # -- misc -------------------------------------------------------------------

    def validate(self, value: int) -> int:
        if not isinstance(value, int) or not 0 <= value < self.order:
            raise ValueError(f"value {value!r} outside GF(2^{self.width})")
        return value

    def all_valid(self, values: Sequence) -> bool:
        """Whether every entry of a non-empty sequence is a valid raw value.

        One C-level pass per test, for the bulk checks; validate() stays the
        per-entry path that names an offending value.
        """
        return (
            all(map(isinstance, values, repeat(int)))
            and min(values) >= 0
            and max(values) < self.order
        )

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FieldSpec)
            and self.width == other.width
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.width, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(width={self.width}, modulus={poly_str(self.modulus)})"


def field_new(width: int, modulus: int | None = None) -> FieldSpec:
    """Build a field spec; the modulus defaults to a fixed per-width table."""
    return FieldSpec(width, modulus)


class FieldMatrix:
    """Dense matrix over one FieldSpec. Treat instances as immutable."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: FieldSpec, rows: Iterable[Sequence]):
        data = []
        for row in rows:
            vals = list(row)
            if not (vals and field.all_valid(vals)):
                vals = [field.validate(entry) for entry in vals]
            data.append(vals)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows in matrix input")
        self.field = field
        self.nrows = len(data)
        self.ncols = ncols
        self._rows = data

    @classmethod
    def _wrap(cls, field: FieldSpec, rows: list[list[int]]) -> "FieldMatrix":
        """Adopt rows of valid raw values without copying or checking them.

        For results computed from validated matrices; rows must be non-empty
        lists of equal length that no one mutates afterwards.
        """
        m = cls.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = len(rows[0])
        m._rows = rows
        return m

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "FieldMatrix":
        return cls(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FieldMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._rows[i])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._rows)

    def values(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_mate(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return FieldMatrix._wrap(
            self.field,
            [[a ^ b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)],
        )

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_mate(other)
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not agree")
        mul_fn = self.field._mul
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i, arow in enumerate(self._rows):
            orow = out[i]
            for t, a in enumerate(arow):
                if a == 0:
                    continue
                brow = other._rows[t]
                if a == 1:
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] ^= b
                else:
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] ^= mul_fn(a, b)
        return FieldMatrix._wrap(self.field, out)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, [list(col) for col in zip(*self._rows)])

    def submatrix(self, row_idx: Sequence[int] | None, col_idx: Sequence[int] | None) -> "FieldMatrix":
        rows = range(self.nrows) if row_idx is None else row_idx
        cols = range(self.ncols) if col_idx is None else col_idx
        return FieldMatrix(self.field, [[self._rows[i][j] for j in cols] for i in rows])

    def _check_mate(self, other: "FieldMatrix") -> None:
        if not isinstance(other, FieldMatrix):
            raise TypeError("expected a FieldMatrix")
        if other.field != self.field:
            raise FieldMismatchError("matrices over different fields")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"FieldMatrix({self.nrows}x{self.ncols} over GF(2^{self.field.width}))"


# Bit-sliced vectors: a length-ell vector over GF(2^w) is stored as w bit
# planes of ell bits each, plane b holding bit b of every component (bit i
# of plane b is bit b of component i). The planes sit side by side in one
# Python int, plane b at bits [b*ell, (b+1)*ell). Adding vectors is then
# one XOR, and every linear map (encoding, node responses, elimination)
# becomes XORs of whole packed ints: the bit-matrix technique of XOR-based
# Cauchy Reed-Solomon coding. Only BitSlices reads or writes this layout.

# byte value -> b"0"/b"1" for bit b of the byte, and the reverse lookups
_BIT_CHARS = [bytes(48 + ((v >> b) & 1) for v in range(256)) for b in range(8)]
_CHAR_BITS = [bytes((1 << b) if v == 49 else 0 for v in range(256)) for b in range(8)]
_LITTLE_ENDIAN = sys.byteorder == "little"


class BitSlices:
    """Bit-sliced layout of length-`ell` vectors over one field.

    Packs and unpacks component sequences and applies the field's
    multiplication to packed vectors without unpacking them.
    """

    __slots__ = (
        "width", "ell", "_order", "_bytes_in_field", "_full", "_top", "_spread", "_column"
    )

    def __init__(self, spec: FieldSpec, ell: int):
        self.width = spec.width
        self.ell = ell
        self._order = spec.order
        self._bytes_in_field = bytes(range(min(spec.order, 256)))
        self._full = (1 << (spec.width * ell)) - 1
        self._top = (spec.width - 1) * ell
        # x^w = sum of the modulus' lower terms: where the top plane lands
        self._spread = sum(1 << (r * ell) for r in range(spec.width) if (spec.modulus >> r) & 1)
        self._column = sum(1 << (b * ell) for b in range(spec.width))  # component 0, every plane

    def pack(self, components: Sequence[int]) -> int | None:
        """Packed form of ell components, None unless all are raw field values.

        A raw value is an int in 0..2^w-1. The check runs in C: isinstance
        over the sequence, then the byte conversion packing needs anyway
        (w <= 8), or min and max (w > 8).
        """
        w, ell = self.width, self.ell
        if not all(map(isinstance, components, repeat(int))):
            return None
        if not ell:
            return 0
        if w <= 8:
            try:
                raw = bytes(components)
            except ValueError:  # outside 0..255
                return None
            if raw.translate(None, self._bytes_in_field):
                return None
            lanes = [raw[::-1]]
        else:
            if min(components) < 0 or max(components) >= self._order:
                return None
            words = array("H", components)
            if not _LITTLE_ENDIAN:
                words.byteswap()
            raw = words.tobytes()
            lanes = [raw[0::2][::-1], raw[1::2][::-1]]
        v = 0
        for b in range(w):
            v |= int(lanes[b >> 3].translate(_BIT_CHARS[b & 7]), 2) << (b * ell)
        return v

    def unpack(self, v: int) -> tuple[int, ...]:
        """Component values of a packed vector."""
        w, ell = self.width, self.ell
        if not ell:
            return ()
        plane_mask = (1 << ell) - 1
        lanes = [0, 0]
        for b in range(w):
            chars = format((v >> (b * ell)) & plane_mask, f"0{ell}b").encode()[::-1]
            lanes[b >> 3] |= int.from_bytes(chars.translate(_CHAR_BITS[b & 7]), "little")
        if w <= 8:
            return tuple(lanes[0].to_bytes(ell, "little"))
        raw = bytearray(2 * ell)
        raw[0::2] = lanes[0].to_bytes(ell, "little")
        raw[1::2] = lanes[1].to_bytes(ell, "little")
        words = array("H", bytes(raw))
        if not _LITTLE_ENDIAN:
            words.byteswap()
        return tuple(words)

    def entry(self, v: int, col: int) -> int:
        """Component col of a packed vector."""
        v >>= col
        if self.width == 1:
            return v & 1
        return sum(((v >> (b * self.ell)) & 1) << b for b in range(self.width))

    def column_mask(self, col: int) -> int:
        """The bits of component col; `v & column_mask(col)` is 0 iff it is 0."""
        return self._column << col

    def join(self, parts: Sequence[int], lengths: Sequence[int]) -> int:
        """The packed vector whose components are those of `parts`, in order.

        parts[i] is packed at length lengths[i] (by the layout of that
        length over the same field), and the lengths sum to ell.
        """
        w, ell = self.width, self.ell
        v = offset = 0
        for part, n in zip(parts, lengths):
            if w == 1:
                v |= part << offset
            else:
                plane = (1 << n) - 1
                for b in range(w):
                    v |= ((part >> (b * n)) & plane) << (b * ell + offset)
            offset += n
        return v

    def split(self, v: int, lengths: Sequence[int]) -> list[int]:
        """The pieces join() put together, each packed at its own length."""
        w, ell = self.width, self.ell
        pieces, offset = [], 0
        for n in lengths:
            plane = (1 << n) - 1
            piece = 0
            for b in range(w):
                piece |= ((v >> (b * ell + offset)) & plane) << (b * n)
            pieces.append(piece)
            offset += n
        return pieces

    def times_x(self, v: int) -> int:
        """The packed vector times the field element x."""
        return ((v << self.ell) & self._full) ^ ((v >> self._top) * self._spread)

    def scale(self, v: int, c: int) -> int:
        """The packed vector times the raw field value c."""
        acc = 0
        while c:
            if c & 1:
                acc ^= v
            c >>= 1
            if c:
                v = self.times_x(v)
        return acc

    def expand(self, vectors: Iterable[int]) -> list[int]:
        """x^b times each vector, b = 0..w-1 per vector, in that order.

        A raw field value c = sum of c_b x^b selects entries b of a vector's
        run by its bits, so a combination sum_s c_s v_s of the vectors is the
        XOR of the entries coefficient_bits() marks.
        """
        if self.width == 1:
            return list(vectors)
        out = []
        for v in vectors:
            for _ in range(self.width):
                out.append(v)
                v = self.times_x(v)
        return out


def coefficient_bits(width: int, coeffs: Sequence[int]) -> Sequence[int]:
    """Selector over BitSlices.expand() output for raw coefficients."""
    if width == 1:
        return coeffs
    return [(c >> b) & 1 for c in coeffs for b in range(width)]


def combine(expanded: Sequence[int], selector: Sequence[int]) -> int:
    """XOR of the expanded vectors a coefficient_bits() selector marks."""
    return reduce(xor, compress(expanded, selector), 0)


@lru_cache(maxsize=256)
def bit_slices(spec: FieldSpec, ell: int) -> BitSlices:
    return BitSlices(spec, ell)


def _gauss_jordan(
    field: FieldSpec, ncols: int, rows: list[int], length: int | None = None
) -> list[int]:
    """Gauss-Jordan elimination, in place, of rows packed by bit_slices(field, length).

    Each row is an augmented row [A | B]: its first ncols components are
    the coefficients and the rest (length - ncols of them, none by default)
    ride along. Pivoting runs over A's columns only and picks the first row
    with a nonzero entry in the current column; over a field there are no
    ties to break. The pivot row is scaled to a leading one and its column
    cleared from every other row, so A ends in reduced row echelon form and
    B holds the same row operations applied to it. Returns the pivot
    columns in increasing order.
    """
    slices = bit_slices(field, ncols if length is None else length)
    entry, scale, inv_fn = slices.entry, slices.scale, field._inv
    binary = field.width == 1  # every nonzero entry is 1: skip entry() and scale()
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        piv = len(pivots)
        if piv == nrows:
            break
        mask = slices.column_mask(col)
        sel = next((r for r in range(piv, nrows) if rows[r] & mask), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        prow = rows[piv]
        if not binary:
            c = entry(prow, col)
            if c != 1:
                prow = rows[piv] = scale(prow, inv_fn(c))
        for r in range(nrows):
            v = rows[r]
            if v & mask and r != piv:
                if binary:
                    rows[r] = v ^ prow
                else:
                    c = entry(v, col)
                    rows[r] = v ^ (prow if c == 1 else scale(prow, c))
        pivots.append(col)
    return pivots


def rref(M: FieldMatrix) -> tuple[FieldMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form of M.

    Returns (R, rank, pivot_cols) with pivot columns in increasing order,
    one per leading one. The elimination runs bit-sliced (_gauss_jordan).
    """
    slices = bit_slices(M.field, M.ncols)
    a = [slices.pack(r) for r in M._rows]
    pivots = _gauss_jordan(M.field, M.ncols, a)
    R = FieldMatrix._wrap(M.field, [list(slices.unpack(v)) for v in a])
    return R, len(pivots), tuple(pivots)


def matrix_rank(M: FieldMatrix) -> int:
    return rref(M)[1]


def solve(A: FieldMatrix, B):
    """Solve A X = B for X, requiring A to have full column rank.

    A may be square or tall. B is either a FieldMatrix with matching row
    count, or a sequence of rows of storage symbols over A's field, all of
    one payload length; X then comes back as a list of rows of symbols.
    Each row of A and the matching row of B are packed side by side into
    one int, [A | B], and _gauss_jordan eliminates those rows, pivoting on
    A's columns. Raises SingularSystemError, carrying the rank found, when
    A is rank-deficient, RightHandSideError when symbol rows are empty or
    ragged or name a misfit symbol ("right-hand side entry (2, 1)"), and
    ValueError when the system is inconsistent.
    """
    f = A.field
    ncols = A.ncols
    if isinstance(B, FieldMatrix):
        if B.field != f:
            raise FieldMismatchError("right-hand side over a different field")
        out = bit_slices(f, B.ncols)
        b = [[out.pack(r)] for r in B._rows]
        lengths = [B.ncols]
    else:
        from .codes import StorageSymbol, pack_symbols

        rows = [list(r) for r in B]
        if not rows or not rows[0]:
            raise RightHandSideError("right-hand side needs at least one row and one symbol")
        w = len(rows[0])
        for i, row in enumerate(rows, 1):
            if len(row) != w:
                raise RightHandSideError(
                    f"right-hand side row {i} has {len(row)} symbols, row 1 has {w}"
                )
        ell, payloads = pack_symbols(
            [sym for row in rows for sym in row],
            f,
            lambda i: f"right-hand side entry ({i // w + 1}, {i % w + 1})",
            RightHandSideError,
        )
        b = [payloads[i : i + w] for i in range(0, len(payloads), w)]
        lengths = [ell] * w
    if len(b) != A.nrows:
        raise ValueError("row counts of A and B differ")
    lengths = [ncols, *lengths]
    head = bit_slices(f, ncols)
    joined = bit_slices(f, sum(lengths))
    a = [joined.join([head.pack(r), *row], lengths) for r, row in zip(A._rows, b)]
    rank = len(_gauss_jordan(f, ncols, a, joined.ell))
    if rank < ncols:
        raise SingularSystemError(
            f"coefficient matrix has rank {rank}, expected full column rank {ncols}", rank
        )
    # A's part of every row past the pivots is zero; a nonzero B part is 0 = b
    if any(a[ncols:]):
        raise ValueError("inconsistent system: no solution exists")
    x = [joined.split(v, lengths)[1:] for v in a[:ncols]]
    if isinstance(B, FieldMatrix):
        return FieldMatrix._wrap(f, [list(out.unpack(v)) for (v,) in x])
    return [[StorageSymbol._of(f, ell, v) for v in row] for row in x]


def _extends(
    field: FieldSpec, length: int, vectors: Iterable[int], keep: int = -1
) -> Iterator[bool]:
    """For each vector, packed by bit_slices(field, length) and masked by
    `keep`, whether it lies outside the span of the vectors before it.

    An incremental elimination: a vector found independent is stored with a
    leading one at its highest nonzero coordinate, and a later vector is
    reduced by the stored row at its own highest nonzero coordinate until it
    is zero (dependent) or leads at a coordinate no row holds. Over GF(2) a
    coordinate is a bit, found by bit_length(), and a reduction is one XOR.
    Wider fields fold the w planes together to find that coordinate and
    clear it with entry() and scale().
    """
    table = [0] * (length + 1)  # table[b]: the stored row leading at coordinate b - 1
    if field.width == 1:
        for v in vectors:
            v &= keep
            while v:
                b = v.bit_length()
                row = table[b]
                if not row:
                    table[b] = v
                    break
                v ^= row
            yield v != 0
        return
    slices = bit_slices(field, length)
    entry, scale, inv_fn = slices.entry, slices.scale, field._inv
    plane = (1 << length) - 1
    shifts = [b * length for b in range(field.width)]
    for v in vectors:
        v &= keep
        while v:
            b = (reduce(or_, map(v.__rshift__, shifts)) & plane).bit_length()
            c = entry(v, b - 1)
            row = table[b]
            if not row:
                table[b] = v if c == 1 else scale(v, inv_fn(c))
                break
            v ^= row if c == 1 else scale(row, c)
        yield v != 0


def column_vectors(M: FieldMatrix) -> list:
    """Columns of M in the representation _reduce_by consumes.

    GF(2) columns are packed by bit_slices(M.field, M.nrows), so bit r is
    row r; wider fields get plain value tuples.
    """
    cols = [M.column(j) for j in range(M.ncols)]
    if M.field.width == 1:
        return list(map(bit_slices(M.field, M.nrows).pack, cols))
    return cols


def _reduce_by(field: FieldSpec, v, rest: Sequence) -> list:
    """The vectors of `rest` reduced modulo the nonzero vector v, pivot dropped.

    Vectors are in column_vectors' representation. The pivot is v's first
    nonzero coordinate p; each u in `rest` becomes u - (u[p] / v[p]) v,
    which is zero at p, so a result is zero exactly when u is a multiple of
    v. A column subset's residuals modulo its chosen columns are therefore
    nonzero exactly when extending the choice keeps it independent. GF(2)
    bitmasks keep the cleared pivot bit (one XOR per vector); wider fields
    drop the coordinate and multiply each entry through the log tables.
    """
    if field.width == 1:
        low = v & -v
        return [u ^ v if u & low else u for u in rest]
    exp, log = field._exp, field._log
    size = field.order - 1
    p = next(i for i, x in enumerate(v) if x)
    lp = log[v[p]]
    # log of each later entry of v / v[p], or -1 where the entry is zero
    # (entries before p are zero in v, so they never change)
    logs = [(log[x] - lp) % size if x else -1 for x in v[p + 1 :]]
    out = []
    for u in rest:
        c = u[p]
        head = u[:p]
        if c:
            lc = log[c]
            tail = tuple(a ^ exp[lc + b] if b >= 0 else a for a, b in zip(u[p + 1 :], logs))
        else:
            tail = u[p + 1 :]
        out.append(head + tail)
    return out
