"""Exact arithmetic over GF(2^w) and dense linear algebra on top of it.

Field elements are integers in [0, 2^w): bit i holds the coefficient of x^i
in the polynomial basis. Addition is XOR in every binary extension field;
products and inverses are lookups in one log/antilog table pair per field,
built from a validated irreducible modulus and shared by every spec of it.
Matrices hold raw integer entries. Vectors that linear maps act on as a
whole (payload symbols, rows under elimination) are bit-sliced into one int
each (BitSlices), so adding two of them is one XOR. This module is the one
that knows the payload format: it also stacks packed payloads side by side
in lanes of whole 64-bit words (_stride, _stack, _unstack), and one product
multiplies stacks by raw coefficients in every lane at once
(_lane_product): encoding, node responses, recovery's syndromes and its
decode all run on it, at every field width; rows known before the stacks
they multiply are encoded once (_lane_keys). One elimination works on
packed rows: _eliminate reduces each row by the stored row at its leading
(highest nonzero) coordinate and stores it where no row leads, and
_back_substitute clears the stored rows at each other's leading
coordinates. rref and matrix_rank, solve and the protocol's decode plans
(_left_inverse, the inverse and check rows of a matrix), and the width
scan's independence tests all run on it, at every field width. The
minimum-distance search and the exhaustive
pattern listing instead reduce columns one pivot at a time (_reduce_by):
up to GF(2^8) a column is one int with one byte per row, scaled by a
constant with one bytes.translate through that constant's product table
(_product_tables, built once per field); wider fields keep value tuples.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, partial, reduce
from itertools import chain, compress, repeat
from operator import itemgetter, xor
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


@lru_cache(maxsize=8)
def _product_tables(width: int, modulus: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Per-constant product tables of GF(2^width), width <= 8, for bytes.translate.

    times[c][x] = c * x for every field value x (entries from 2^width up
    are 0 and never read), so translating a vector held one byte per
    component scales it by c in one C-level pass. over[c] is times[1 / c]
    (over[0] is times[0]), the table that scales a vector whose component
    is c to a 1 there. 2^width tables of 256 bytes, built once per field:
    times[g^(i+1)] is times[g^i] translated through times[g], for the
    generator g of the log tables.
    """
    exp, log = _log_tables(width, modulus)
    order, size = 1 << width, (1 << width) - 1
    pad = bytes(256 - order)
    by_g = bytes([0, *(exp[log[x] + 1] for x in range(1, order))]) + pad
    times = [bytes(256)] * order
    table = bytes(range(order)) + pad  # times[1]
    for i in range(size):
        times[exp[i]] = table
        table = table.translate(by_g)
    over = [times[0]] + [times[exp[size - log[c]]] for c in range(1, order)]
    return tuple(times), tuple(over)


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

    def __reduce__(self):
        # pickled as its width and modulus; the tables are rebuilt on load
        return FieldSpec, (self.width, self.modulus)

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

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._rows[i])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._rows)

    def values(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self._rows)

    def submatrix(self, row_idx: Sequence[int] | None, col_idx: Sequence[int] | None) -> "FieldMatrix":
        rows = range(self.nrows) if row_idx is None else row_idx
        cols = range(self.ncols) if col_idx is None else col_idx
        return FieldMatrix(self.field, [[self._rows[i][j] for j in cols] for i in rows])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"FieldMatrix({self.nrows}x{self.ncols} over GF(2^{self.field.width}))"


def _expect_matrix(M: object) -> None:
    if not isinstance(M, FieldMatrix):
        raise TypeError("expected a FieldMatrix")


# Bit-sliced vectors: a length-ell vector over GF(2^w) is stored as w bit
# planes of ell bits each, plane b holding bit b of every component (bit i
# of plane b is bit b of component i). The planes sit side by side in one
# Python int, plane b at bits [b*ell, (b+1)*ell). Adding vectors is then
# one XOR, and every linear map (encoding, node responses, elimination)
# becomes XORs of whole packed ints: the bit-matrix technique of XOR-based
# Cauchy Reed-Solomon coding. Only this module reads or writes this layout:
# BitSlices for one vector, _lane_product for stacks of them.

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
        "width", "ell", "_order", "_bytes_in_field", "_full", "_top", "_spread", "_column",
        "_digits", "_planes", "_folds", "_plane",
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
        # entry(): the binary digits of a component's plane bits sit every ell
        # places, top plane first
        self._digits = f"0{spec.width * ell}b"
        self._planes = slice(ell - 1, None, ell or 1)
        self._plane = (1 << ell) - 1
        # support(): each fold ORs the top half of the planes left onto the rest
        self._folds, n = [], spec.width
        while n > 1:
            n -= n // 2
            self._folds.append(n * ell)

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
        lanes = [0, 0]
        for b in range(w):
            chars = format((v >> (b * ell)) & self._plane, f"0{ell}b").encode()[::-1]
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
        if self.width == 1:
            return (v >> col) & 1
        return int(format((v >> col) & self._column, self._digits)[self._planes], 2)

    def support(self, v: int) -> int:
        """The ell-bit mask of a packed vector's nonzero components: its planes OR-ed together."""
        for shift in self._folds:
            v |= v >> shift
        return v & self._plane

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

    def scale(self, v: int, c: int) -> int:
        """The packed vector times the raw field value c: v, v x, v x^2, ...
        added where c has a bit."""
        acc = 0
        while c:
            if c & 1:
                acc ^= v
            c >>= 1
            if c:  # times x: each plane up one, the top plane back at the modulus' terms
                v = ((v << self.ell) & self._full) ^ ((v >> self._top) * self._spread)
        return acc


@lru_cache(maxsize=256)
def bit_slices(spec: FieldSpec, ell: int) -> BitSlices:
    return BitSlices(spec, ell)


# Stacked lanes: several packed payloads side by side in one int, each in a
# lane of _stride bytes, so one XOR adds every lane at once.


def _stride(field: FieldSpec, ell: int) -> int:
    """Bytes of one payload's lane in a stack: its w*ell bits in whole 64-bit words."""
    return 8 * -(-field.width * ell // 64)


def _stack(payloads: Iterable[int], stride: int) -> int:
    """Payloads side by side in one int, payload i at byte offset i * stride."""
    raw = b"".join(map(int.to_bytes, payloads, repeat(stride), repeat("little")))
    return int.from_bytes(raw, "little")


def _unstack(v: int, stride: int, count: int) -> list[int]:
    """The `count` payloads _stack put together."""
    return _lane_values(v.to_bytes(stride * count, "little"), stride)


def _lane_values(raw: bytes, stride: int) -> list[int]:
    """The payloads of a stack's bytes: one per `stride` bytes of raw."""
    if stride == 8:
        # one word per payload: read them all as one array, no slice each
        words = array("Q", raw)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()
    return [int.from_bytes(raw[i : i + stride], "little") for i in range(0, len(raw), stride)]


# byte value -> its bit b, for each b
_BIT_OF = [bytes((v >> b) & 1 for v in range(256)) for b in range(8)]
# 0/1 bytes -> binary digits, and hex digits -> their values
_BINARY = bytes.maketrans(b"\x00\x01", b"01")
_HEX_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _table_indices(coefficients: Sequence[int]) -> bytes:
    """A row of 0/1 coefficients as its Four-Russians table indices
    (_tables), group 0 first, with no Python step per coefficient: its
    binary digits, coefficient 0 first and padded with zeros to whole
    groups of four, read as hex digits. One bytes.translate to digits,
    int(..., 2), format to hex and one translate to values."""
    pad = -len(coefficients) % 4
    bits = int(bytes(coefficients).translate(_BINARY) + b"0" * pad, 2)
    digits = (len(coefficients) + pad) // 4
    return format(bits, f"0{digits}x").encode().translate(_HEX_VALUES)


def _lane_keys(field: FieldSpec, coefficients: Sequence[int]) -> Callable | list[bytes]:
    """One row of raw coefficients in the form a keyed _lane_product
    takes, for rows known before the stacks they multiply.

    Over GF(2) it is an itemgetter of the row's table entries in the
    tables laid end to end, 16 per group: 16g + index g for each group g
    whose index is not 0 (_table_indices), and entry 0, which is 0, twice,
    so that it always returns a tuple. Wider fields give the row's bit
    planes, plane b the 0/1 bytes of every coefficient's bit b: one
    translate per plane, of the low or high bytes of the coefficients
    above 2^8.
    """
    width = field.width
    if width == 1:
        indices = _table_indices(coefficients)
        return itemgetter(0, 0, *[16 * g + d for g, d in enumerate(indices) if d])
    if width <= 8:
        raw = [bytes(coefficients)]
    else:
        words = array("H", coefficients)
        if not _LITTLE_ENDIAN:
            words.byteswap()
        both = words.tobytes()
        raw = [both[0::2], both[1::2]]
    return [raw[b >> 3].translate(_BIT_OF[b & 7]) for b in range(width)]


def _lane_product(
    field: FieldSpec,
    ell: int,
    stride: int,
    count: int,
    over: Sequence[int] | None = None,
    keyed: bool = False,
) -> Callable[..., int]:
    """A function from stacks of `count` payloads of length ell at `stride`
    (_stack) and one raw coefficient per stack to their weighted sum, in
    every lane at once.

    A coefficient c is the sum of its bit planes c_b x^b, so the sum is
    Horner's x(...x(S_{w-1})...) + S_0 over the plane sums S_b, each the
    XOR of the stacks whose coefficient has bit b set (GF(2) is one such
    XOR). Times x shifts each lane's lower w-1 planes up by one and adds
    its top plane back at the modulus' lower terms; the masks keep every
    plane in its lane.

    Given `over`, the stacks every call multiplies, the function is bound
    to them and takes the coefficients alone: over GF(2) it looks them up
    in Four-Russians tables built once, here (_tables), which pays when
    many rows multiply the same stacks; wider fields keep the plane sums.
    With `keyed` as well it takes each row's _lane_keys instead, so that
    rows known in advance are encoded once, not per call.
    """
    width = field.width
    if width == 1:
        if over is None:
            return lambda stacks, coefficients: reduce(xor, compress(stacks, coefficients), 0)
        tables = _tables(over)
        if keyed:
            flat = list(chain.from_iterable(tables))
            return lambda get: reduce(xor, get(flat))
        get = list.__getitem__
        return lambda coefficients: reduce(
            xor, map(get, tables, _table_indices(coefficients)), 0
        )
    top = (width - 1) * ell
    ones = int.from_bytes((1).to_bytes(stride, "little") * count, "little")  # 1 in every lane
    low, plane = ones * ((1 << top) - 1), ones * ((1 << ell) - 1)
    terms = [r * ell for r in range(width) if (field.modulus >> r) & 1]

    def horner(stacks: Sequence[int], planes: Sequence[bytes]) -> int:
        v = reduce(xor, compress(stacks, planes[width - 1]), 0)
        for b in range(width - 2, -1, -1):
            carry = (v >> top) & plane
            v = (v & low) << ell
            for shift in terms:
                v ^= carry << shift
            v ^= reduce(xor, compress(stacks, planes[b]), 0)
        return v

    if over is None:
        return lambda stacks, coefficients: horner(stacks, _lane_keys(field, coefficients))
    if keyed:
        return partial(horner, over)
    return lambda coefficients: horner(over, _lane_keys(field, coefficients))


def _tables(stacks: Sequence[int]) -> list[list[int]]:
    """The "Four Russians" tables of the stacks (Arlazarov, Dinic, Kronrod
    and Faradzev, 1970; Albrecht, Bard and Hart, ACM TOMS 2010): the stacks
    in groups of four, the last one padded with zero stacks, and per group
    the XORs of all 16 subsets of its stacks, built by doubling: each stack
    XORed onto the entries so far. Entry bit 3 - b selects stack 4g + b,
    so a row of 0/1 coefficients, one per stack, selects entry index g of
    group g (_table_indices), and its sum is one lookup and one XOR per
    group, where a direct sum takes one XOR per 1. Building costs 15 XORs
    and 16 entries per group.
    """
    padded = [*stacks, *repeat(0, -len(stacks) % 4)]
    tables = []
    for at in range(0, len(padded), 4):
        table = [0]
        for stack in reversed(padded[at : at + 4]):
            table += [v ^ stack for v in table]
        tables.append(table)
    return tables


def _eliminate(
    field: FieldSpec,
    length: int,
    table: list[int],
    vectors: Iterable[int],
    low: int = 0,
    keep: int = -1,
) -> Iterator[int]:
    """Forward elimination of vectors packed by bit_slices(field, length).

    table[b] holds the stored row that leads at coordinate b - 1 (its
    highest nonzero coordinate is b - 1, with a 1 there), or 0; the caller
    allocates it as length + 1 zeros. Each vector is masked by `keep` and
    reduced by the stored row at its own leading coordinate until it leads
    at or below coordinate low - 1, or leads where no row does, where it is
    stored, scaled to a leading one. Yields, per vector, one more than the
    coordinate it then leads at, and 0 for a vector reduced to zero: a
    result above `low` means the vector was stored, so with low = 0 a
    nonzero result means it lies outside the span of the vectors before
    it. Over GF(2) a coordinate is a bit, found by bit_length(), and a
    reduction is one XOR; wider fields find it with BitSlices.support()
    and clear it with entry() and scale(). A generator: vectors past the
    last result taken are never read.
    """
    if field.width == 1:
        for v in vectors:
            v &= keep
            b = v.bit_length()
            while b > low:
                row = table[b]
                if not row:
                    table[b] = v
                    break
                v ^= row
                b = v.bit_length()
            yield b
        return
    slices = bit_slices(field, length)
    support, entry, scale, inv_fn = slices.support, slices.entry, slices.scale, field._inv
    for v in vectors:
        v &= keep
        b = support(v).bit_length()
        while b > low:
            c = entry(v, b - 1)
            row = table[b]
            if not row:
                table[b] = v if c == 1 else scale(v, inv_fn(c))
                break
            v ^= row if c == 1 else scale(row, c)
            b = support(v).bit_length()
        yield b


def _back_substitute(field: FieldSpec, length: int, table: list[int]) -> list[int]:
    """Clear the rows _eliminate stored in `table` at each other's pivots.

    A pivot is a stored row's leading coordinate. Rows are taken lowest
    pivot first, and each is cleared at the pivots below its own by the
    rows there, which are already cleared: such a row is zero at every
    pivot but its own, so subtracting it changes no other pivot entry, and
    the pivots to clear are read once from the row's support. Every stored
    row ends with a 1 at its own pivot and 0 at every other. Returns the
    pivots in increasing order.
    """
    slices = bit_slices(field, length)
    support, entry, scale = slices.support, slices.entry, slices.scale
    pivots: list[int] = []
    below = 0  # the pivots cleared so far, bit p for coordinate p
    for b in compress(range(length + 1), table):
        v = table[b]
        if field.width == 1:  # a row is its own support, and every entry 1
            rest = v & below
            while rest:
                j = rest.bit_length()
                v ^= table[j]
                rest ^= 1 << (j - 1)
        else:
            rest = support(v) & below
            while rest:
                j = rest.bit_length()
                c = entry(v, j - 1)
                v ^= table[j] if c == 1 else scale(table[j], c)
                rest ^= 1 << (j - 1)
        table[b] = v
        below |= 1 << (b - 1)
        pivots.append(b - 1)
    return pivots


def rref(M: FieldMatrix) -> tuple[FieldMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form of M.

    Returns (R, rank, pivot_cols) with pivot columns in increasing order,
    one per leading one. Rows are packed with column j at coordinate
    ncols - 1 - j, so that a row's leading coordinate is its first nonzero
    column, and run through _eliminate and _back_substitute; R lists the
    stored rows, first pivot first, above its zero rows. The reduced row
    echelon form is unique, so the order of elimination does not show.
    """
    _expect_matrix(M)
    f, ncols = M.field, M.ncols
    slices = bit_slices(f, ncols)
    table = [0] * (ncols + 1)
    list(_eliminate(f, ncols, table, [slices.pack(r[::-1]) for r in M._rows]))  # fills table
    coords = _back_substitute(f, ncols, table)[::-1]
    rows = [list(slices.unpack(table[c + 1])[::-1]) for c in coords]
    rows += [[0] * ncols for _ in range(M.nrows - len(coords))]
    return FieldMatrix._wrap(f, rows), len(coords), tuple(ncols - 1 - c for c in coords)


def matrix_rank(M: FieldMatrix) -> int:
    """Rank of M: the rows _eliminate stores, without rref's back-substitution."""
    _expect_matrix(M)
    f, ncols = M.field, M.ncols
    pack = bit_slices(f, ncols).pack
    return sum(map(bool, _eliminate(f, ncols, [0] * (ncols + 1), map(pack, M._rows))))


def _left_inverse(
    field: FieldSpec, length: int, rows: Sequence[int]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The inverse rows and check rows of the matrix A whose m rows are
    packed by bit_slices(field, length): (inverse, checks), each row m raw
    coefficients c, one per row of A.

    [A | I] is eliminated once: row i of A beside unit vector i, the unit
    in the m low coordinates and A above them, through _eliminate (low 0,
    so every row is stored: the units keep them independent) and
    _back_substitute. A stored row that leads above the units leads at a
    pivot of A; its unit part is an inverse row, one per pivot in
    increasing coordinate order, so rank(A) = len(inverse). Where A has
    full column rank over the coordinates its rows use, inverse row p
    gives sum_i c_i A_i = the unit vector at pivot p, so for b = A x the
    unknown at p is sum_i c_i b_i. A stored row that leads among the units
    has no coefficient left: its unit part is a check row, sum_i c_i A_i =
    0, and the m - rank(A) check rows span A's left kernel, so b lies in
    A's column span exactly when sum_i c_i b_i = 0 for every one.
    """
    m, total = len(rows), len(rows) + length
    if field.width == 1:
        augmented = [a << m | 1 << i for i, a in enumerate(rows)]
    else:
        join = bit_slices(field, total).join
        augmented = [join([1 << i, a], [m, length]) for i, a in enumerate(rows)]
    table = [0] * (total + 1)
    list(_eliminate(field, total, table, augmented))  # fills table
    split, unpack = bit_slices(field, total).split, bit_slices(field, m).unpack
    inverse, checks = [], []
    for p in _back_substitute(field, total, table):
        (checks if p < m else inverse).append(unpack(split(table[p + 1], [m])[0]))
    return inverse, checks


def solve(A: FieldMatrix, B: FieldMatrix) -> FieldMatrix:
    """Solve A X = B for X, requiring A to have full column rank.

    A may be square or tall, and B is a FieldMatrix over A's field with
    A's row count. _left_inverse eliminates [A | I] once; each row of X is
    an inverse row's weighted sum of B's rows, and B must give 0 under
    every check row. Each row of B is packed into one int, and the sums
    are _lane_product over those rows. Raises TypeError naming the kind of
    a right-hand side that is not a FieldMatrix ("right-hand side is an
    int, not a FieldMatrix"), SingularSystemError, carrying the rank
    found, when A is rank-deficient, and ValueError when the system is
    inconsistent.
    """
    _expect_matrix(A)
    if not isinstance(B, FieldMatrix):
        raise TypeError(f"right-hand side is {_kind(B)}, not a FieldMatrix")
    f, rhs, ncols = A.field, B.ncols, A.ncols
    if B.field != f:
        raise FieldMismatchError("right-hand side over a different field")
    if B.nrows != A.nrows:
        raise ValueError("row counts of A and B differ")
    pack = bit_slices(f, ncols).pack
    inverse, checks = _left_inverse(f, ncols, list(map(pack, A._rows)))
    if len(inverse) < ncols:
        raise SingularSystemError(
            f"coefficient matrix has rank {len(inverse)}, expected full column rank {ncols}",
            len(inverse),
        )
    slices = bit_slices(f, rhs)
    product = _lane_product(f, rhs, _stride(f, rhs), 1, list(map(slices.pack, B._rows)))
    if any(map(product, checks)):
        raise ValueError("inconsistent system: no solution exists")
    return FieldMatrix._wrap(f, [list(slices.unpack(product(row))) for row in inverse])


def _kind(x: object) -> str:
    """x's type name with its article: 'an int', 'a str'."""
    kind = type(x).__name__
    return f"{'an' if kind[0] in 'aeiou' else 'a'} {kind}"


def column_vectors(M: FieldMatrix) -> list:
    """Columns of M in the representation _reduce_by consumes.

    Up to GF(2^8) a column is one int with one byte per row, row r in byte
    r (bits 8r..8r+7): its lanes. Adding two columns is one XOR, scaling
    one is one bytes.translate through a product table (_product_tables),
    and a column is zero exactly when its int is 0. Wider fields get plain
    value tuples: 16-bit lanes measured slower there than one log-table
    multiply per entry.
    """
    if M.field.width <= 8:
        return [int.from_bytes(bytes(col), "little") for col in zip(*M._rows)]
    return [M.column(j) for j in range(M.ncols)]


def _walk_tables(field: FieldSpec) -> tuple:
    """The tables _reduce_by and _proportional_keys take, fetched once per
    walk: _product_tables at w <= 8, the log/antilog pair above."""
    if field.width <= 8:
        return _product_tables(field.width, field.modulus)
    return field._exp, field._log


def _nonzero(field: FieldSpec) -> Callable[[object], bool]:
    """The nonzero test of column_vectors' representation: bool for byte
    lanes, any for tuples."""
    return bool if field.width <= 8 else any


def _reduce_by(field: FieldSpec, tables: tuple, v, rest: Sequence) -> list:
    """The vectors of `rest` reduced modulo the nonzero vector v.

    Vectors are in column_vectors' representation and `tables` is
    _walk_tables(field). The pivot is v's first nonzero coordinate p; each
    u in `rest` becomes u - (u[p] / v[p]) v, which is zero at p, so a
    result is zero exactly when u is a multiple of v. A column subset's
    residuals modulo its chosen columns are therefore nonzero exactly when
    extending the choice keeps it independent.

    On byte lanes p is v's lowest nonzero lane. v is scaled to a 1 there by
    one translate, and each u with u[p] = c != 0 becomes u XOR (v scaled
    by c): one more translate through times[c] (none when c is 1, so GF(2)
    never translates) and one XOR. The cleared lane stays, as a zero byte.
    Tuples drop coordinate p and multiply each entry through the log tables.
    """
    if field.width <= 8:
        times, over = tables
        shift = ((v & -v).bit_length() - 1) & -8  # the lowest nonzero lane's first bit
        c = v >> shift & 255
        raw = v.to_bytes((v.bit_length() + 7) >> 3, "little")
        if c != 1:
            raw = raw.translate(over[c])
            v = int.from_bytes(raw, "little")
        return [
            (u ^ v if a == 1 else u ^ int.from_bytes(raw.translate(times[a]), "little"))
            if (a := u >> shift & 255)
            else u
            for u in rest
        ]
    exp, log = tables
    size = field.order - 1
    p = 0 if v[0] else next(i for i, x in enumerate(v) if x)
    lp = log[v[p]]
    # log of each later entry of v / v[p], or -1 where the entry is zero
    # (entries before p are zero in v, so they never change)
    logs = [(log[x] - lp) % size if x else -1 for x in v[p + 1 :]]
    out = []
    for u in rest:
        c = u[p]
        if c:
            lc = log[c]
            tail = tuple([a ^ exp[lc + b] if b >= 0 else a for a, b in zip(u[p + 1 :], logs)])
        else:
            tail = u[p + 1 :]
        out.append(u[:p] + tail if p else tail)
    return out


def _pair_keys(field: FieldSpec, tables: tuple, v: tuple, rest: Sequence) -> list:
    """The key _proportional_keys gives each vector of `rest` reduced
    modulo v by _reduce_by, or None where that residual is zero.

    Only for tuples (w > 8) of three entries with v nonzero, and `tables`
    is _walk_tables(field). The pivot p is v's first nonzero entry, and
    each u reduces to the pair (a, b) of its other two entries q < q',
    u_q - (u_p / v_p) v_q each: one log-table multiply per entry of v past
    p that is nonzero (v is zero before p, so those entries stay), and no
    pair is built. The column walks call it one level above their pair
    test, in place of reducing and then keying.
    """
    exp, log = tables
    size = field.order - 1
    p = 0 if v[0] else 1 if v[1] else 2
    if p:
        # the pivot's entry first, then the other two in order
        order = itemgetter(p, *(q for q in range(3) if q != p))
        v, rest = order(v), map(order, rest)
    v0, v1, v2 = v
    lv = size - log[v0]  # log of 1 / v_p
    l1 = (log[v1] + lv) % size if v1 else -1
    l2 = (log[v2] + lv) % size if v2 else -1
    keys = []
    for u0, a, b in rest:
        if u0:
            lc = log[u0]
            if l1 >= 0:
                a ^= exp[lc + l1]
            if l2 >= 0:
                b ^= exp[lc + l2]
        keys.append(((log[b] - log[a]) % size if b else -2) if a else -1 if b else None)
    return keys


def _proportional_keys(field: FieldSpec, tables: tuple, rest: Sequence) -> list:
    """One key per nonzero vector of `rest`, equal exactly for proportional vectors.

    Vectors are in column_vectors' representation and `tables` is
    _walk_tables(field). A byte-lane vector is scaled to a 1 at its lowest
    nonzero lane: one translate through over[c], none when c is 1. A
    tuple of two entries (a, b) is keyed by log b - log a modulo 2^w - 1,
    with distinct markers for a = 0 and b = 0 (_pair_keys gives the same
    keys straight from three-entry tuples and their pick); a longer tuple
    is scaled to a leading one entry by entry.
    """
    if field.width <= 8:
        over = tables[1]
        keys = []
        for u in rest:
            c = u >> (((u & -u).bit_length() - 1) & -8) & 255  # u's lowest nonzero lane
            if c != 1:
                raw = u.to_bytes((u.bit_length() + 7) >> 3, "little")
                u = int.from_bytes(raw.translate(over[c]), "little")
            keys.append(u)
        return keys
    exp, log = tables
    size = field.order - 1
    if rest and len(rest[0]) == 2:
        return [-1 if not a else -2 if not b else (log[b] - log[a]) % size for a, b in rest]
    keys = []
    for u in rest:
        lc = size - log[next(filter(None, u))]  # log of 1 / u's leading entry
        keys.append(tuple(exp[log[x] + lc] if x else 0 for x in u))
    return keys
