"""Systematic storage codes, the derived erasure code, and bit-sliced payload symbols.

A storage code is given by its parity-check matrix H = (P | I). The derived
code on the k message coordinates has parity-check matrix P; its erasure
correction capability decides which sets of message nodes a retrieval
subquery may touch at once.

A file, a stored array and a recovered file are each one PackedFile: the
payloads (StorageSymbol.bits) of a symbol matrix, row-major, in one tuple.
pack_file turns nested StorageSymbols into one, checking and packing every
symbol once, and checks a PackedFile's field, row width and payload range.
encode_file stacks each message column over the file's stripes and computes
each parity column with one algebra._lane_product, the product responses
and recovery also use; it builds no symbol. StorageSymbols appear only at
the boundary: nested input, and the rows a PackedFile builds when one is
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import attrgetter, or_
from collections.abc import Callable, Iterable, Sequence

from .algebra import (
    FieldMatrix,
    FieldSpec,
    _eliminate,
    _kind,
    _lane_product,
    _nonzero,
    _proportional_keys,
    _reduce_by,
    _stack,
    _stride,
    _unstack,
    _walk_tables,
    bit_slices,
    column_vectors,
    matrix_rank,
    rref,
)


class NotSystematicError(ValueError):
    """Right block of the parity-check matrix is not the identity."""


class RateError(ValueError):
    """Code rate is not strictly above one half."""


class MinDistanceCapError(ValueError):
    """Exhaustive minimum-distance search would exceed its column cap."""


class StorageSymbol:
    """One stored symbol: a length-ell vector of base-field values.

    Payload symbols conceptually live in the degree-ell extension of the
    base field, but the protocol only ever adds them and scales them by
    base-field values, so a coefficient vector carries everything. It is
    held bit-sliced in `bits` (see BitSlices); `components` is a view. A
    symbol has no arithmetic of its own: the library adds and scales the
    packed `bits`, many payloads at a time.
    """

    __slots__ = ("spec", "ell", "bits", "_components")

    def __init__(self, spec: FieldSpec, components: Iterable[int]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a storage symbol needs at least one component")
        bits = bit_slices(spec, len(comps)).pack(comps)
        if bits is None:
            for c in comps:
                spec.validate(c)  # raises, naming the offending value
        self.spec = spec
        self.ell = len(comps)
        self.bits = bits
        self._components = None

    @classmethod
    def from_bits(cls, spec: FieldSpec, ell: int, bits: int) -> "StorageSymbol":
        """A symbol from its packed planes; any int below 2^(w*ell) is valid."""
        if ell < 1:
            raise ValueError("a storage symbol needs at least one component")
        if bits < 0 or bits >> (spec.width * ell):
            raise ValueError(f"packed value does not fit {spec.width} planes of {ell} bits")
        return cls._of(spec, ell, bits)

    @classmethod
    def _of(cls, spec: FieldSpec, ell: int, bits: int) -> "StorageSymbol":
        sym = cls.__new__(cls)
        sym.spec = spec
        sym.ell = ell
        sym.bits = bits
        sym._components = None
        return sym

    @property
    def components(self) -> tuple[int, ...]:
        if self._components is None:
            self._components = bit_slices(self.spec, self.ell).unpack(self.bits)
        return self._components

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StorageSymbol)
            and self.bits == other.bits
            and self.ell == other.ell
            and self.spec == other.spec
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.ell, self.bits))

    def __repr__(self) -> str:
        return f"StorageSymbol{self.components}"


class PackedFile(Sequence):
    """A matrix of storage symbols held packed: `field`, the payload length
    `ell`, `k` symbols to a row, and the rows' payloads (StorageSymbol.bits),
    row-major, as one tuple, `payloads`. random_file draws one, encode_file
    returns one with n symbols to a row, a StorageArray stores one and
    recover_file returns one.

    As a sequence it is its rows: `[i]` and iteration build a row's
    StorageSymbols when it is read and keep none of them; a slice is the
    PackedFile of its rows. It equals another PackedFile of the same field,
    ell, k and payloads and, either way round, a nested sequence that
    pack_file packs to one; anything else compares unequal, never raising.
    It is unhashable, as the lists it equals are.
    """

    __slots__ = ("field", "ell", "k", "payloads")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, field: FieldSpec, ell: int, k: int, payloads: Iterable[int]):
        if not isinstance(ell, int) or ell < 1:
            raise ValueError(f"a storage symbol needs at least one component, got ell={ell!r}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"a file row needs at least one symbol, got k={k!r}")
        self.field, self.ell, self.k = field, ell, k
        self.payloads = tuple(payloads)
        if len(self.payloads) % k:
            raise ValueError(f"{len(self.payloads)} payloads do not fill rows of k={k}")

    def __len__(self) -> int:
        return len(self.payloads) // self.k

    def __getitem__(self, i):
        k, at = self.k, range(len(self))[i]
        if isinstance(i, slice):
            rows = (self.payloads[a * k : (a + 1) * k] for a in at)
            return PackedFile(self.field, self.ell, k, chain.from_iterable(rows))
        field, ell = self.field, self.ell
        return tuple(StorageSymbol._of(field, ell, v) for v in self.payloads[at * k : (at + 1) * k])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedFile):
            if not isinstance(other, Sequence):
                return NotImplemented
            try:
                other = pack_file(self.field, self.k, other, str)
            except ValueError:
                return False
        return (self.field, self.ell, self.k, self.payloads) == (
            other.field, other.ell, other.k, other.payloads
        )

    def __repr__(self) -> str:
        return f"PackedFile(rows={len(self)}, k={self.k}, ell={self.ell})"


# format(mask, "b") characters -> 0/1 bytes
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _mask_bytes(mask: int, length: int) -> bytes:
    """A support mask below 2^length as 0/1 bytes, byte j for position j."""
    return format(mask, f"0{length}b").encode().translate(_BIT_BYTES)


@dataclass(frozen=True)
class ErasurePattern:
    """Length-k binary vector; ones mark erased (accessed) coordinates."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("empty erasure pattern")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("erasure pattern entries must be 0 or 1")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "ErasurePattern":
        bits = [0] * length
        for j in support:
            bits[j] = 1
        return cls(tuple(bits))

    @classmethod
    def _of(cls, mask: int, length: int) -> "ErasurePattern":
        """The pattern of a support mask below 2^length, built unchecked."""
        p = cls.__new__(cls)
        object.__setattr__(p, "bits", tuple(_mask_bytes(mask, length)))
        p.__dict__["mask"] = mask
        return p

    @cached_property
    def mask(self) -> int:
        """The support mask: position j of a length-k pattern is bit k-1-j.

        Reading the bits in position order as a binary numeral makes masks
        sort in the order of their bit tuples.
        """
        m = 0
        for b in self.bits:
            m = m << 1 | (1 if b else 0)
        return m

    @property
    def weight(self) -> int:
        return self.bits.count(1)

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.bits) if b)

    def __len__(self) -> int:
        return len(self.bits)


def row_shift(p: FieldMatrix) -> tuple[int, tuple[int, ...]]:
    """(g, perm): the smallest shift g > 0 whose column rotation maps P's
    rows onto P's rows, and the map it makes; k = P.ncols.

    Rotating P's columns by g moves column c to (c + g) mod k and turns row
    i into row perm[i], so P[perm[i]][c + g] = P[i][c]. A dict from row to
    indices matches the rotated rows to P's, repeated rows one to one, so
    perm is a permutation. Shifts that pass compose and invert, so they
    form a subgroup of Z_k; its smallest member divides k and generates it,
    so the first divisor of k that passes, tried in ascending order, is g.
    g = k always passes, with the identity. The one shift symmetry of a
    code: the width scan reuses verdicts modulo g (DerivedCode.row_shift)
    and recovery shares solves across it (LinearCode.row_shift).
    """
    k = p.ncols
    rows = list(map(tuple, p._rows))
    at: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(rows):
        at.setdefault(row, []).append(i)
    for g in range(1, k):
        if k % g:
            continue
        free = {row: list(found) for row, found in at.items()}
        perm = []
        for row in rows:
            found = free.get(row[-g:] + row[:-g])
            if not found:
                break
            perm.append(found.pop())
        else:
            return g, tuple(perm)
    return k, tuple(range(len(rows)))


@dataclass(frozen=True)
class LinearCode:
    """Systematic (n, k) code defined by H = (P | I)."""

    field: FieldSpec
    n: int
    k: int
    h: FieldMatrix
    p: FieldMatrix

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @cached_property
    def parity_rank(self) -> int:
        return matrix_rank(self.p)

    @cached_property
    def row_shift(self) -> tuple[int, tuple[int, ...]]:
        """row_shift(P): recover_file solves the subqueries whose supports
        differ by a multiple of g as one system (see there)."""
        return row_shift(self.p)

    @cached_property
    def _packed_parity_rows(self) -> list[int]:
        """P's rows packed by bit_slices(field, k): recover_file's coefficients."""
        return list(map(bit_slices(self.field, self.k).pack, self.p._rows))

    @cached_property
    def _row_turns(self) -> list[Sequence[int]]:
        """turns[j][i] = perm^j(i) for j = 0..k/g - 1, (g, perm) = row_shift:
        the row of P that row i becomes after j shifts by g."""
        g, perm = self.row_shift
        turns: list[Sequence[int]] = [range(len(perm))]
        for _ in range(self.k // g - 1):
            turns.append([perm[i] for i in turns[-1]])
        return turns


def code_from_parity_check(H: FieldMatrix) -> LinearCode:
    """Validate H = (P | I) and wrap it as a LinearCode.

    Raises NotSystematicError when the right block is not the identity and
    RateError when k/n <= 1/2; the retrieval construction needs strictly
    more message nodes than parity nodes.
    """
    r, n = H.nrows, H.ncols
    k = n - r
    if k < 1:
        raise RateError(f"parity-check matrix leaves no message columns (n={n}, n-k={r})")
    for i in range(r):
        for j in range(r):
            expected = 1 if i == j else 0
            if H._rows[i][k + j] != expected:
                raise NotSystematicError(
                    f"right {r}x{r} block of H is not the identity (entry ({i},{j}))"
                )
    if 2 * k <= n:
        raise RateError(f"code rate {k}/{n} is not above 1/2")
    P = H.submatrix(None, range(k))
    return LinearCode(field=H.field, n=n, k=k, h=H, p=P)


@dataclass(frozen=True)
class DerivedCode:
    """The length-k code whose parity-check matrix is P.

    Its dimension k_tilde is k - rank(P); when P is rank-deficient the
    dimension exceeds 2k - n.
    """

    field: FieldSpec
    n_tilde: int
    k_tilde: int
    h_tilde: FieldMatrix

    @cached_property
    def _column_reps(self):
        return column_vectors(self.h_tilde)

    @cached_property
    def _reduced_columns(self) -> tuple[list[int], int, int, int]:
        """rref(P)'s columns over its first rank(P) rows, packed by
        bit_slices(field, rank(P)); the support mask of its pivot columns;
        rank(P); and that layout's column_mask(0), which spreads a plane-0
        row mask over every plane."""
        R, rank, pivots = rref(self.h_tilde)
        k = self.n_tilde
        slices = bit_slices(self.field, rank)
        cols = [slices.pack(R.column(j)[:rank]) for j in range(k)]
        return cols, sum(1 << (k - 1 - j) for j in pivots), rank, slices.column_mask(0)

    @cached_property
    def row_shift(self) -> tuple[int, tuple[int, ...]]:
        """row_shift(P). Rotating a support by g keeps its verdict: the
        rotation maps P's rows onto P's rows, so it keeps P's row space and
        with it P's column dependencies, and the rotated P's column j + g is
        P's column j. So `independent(rotate(m, g)) == independent(m)` for
        every mask m, and the randomized listing tests rotations 0..g-1 of
        a round only (see optimizer.compute_erasure_pattern_list)."""
        return row_shift(self.h_tilde)

    def independent(self, support: int) -> bool:
        """Whether the columns of P a support mask marks are linearly
        independent (see ErasurePattern.mask for the bit order).

        The test runs on rref(P), whose columns have the same dependencies
        as P's, at every field width. Its pivot columns are distinct unit
        vectors, independent among themselves and spanning exactly the rows
        they mark, so the support is independent iff its non-pivot columns,
        with those rows masked off, are: iff _eliminate stores every one of
        them. Raises ValueError for a mask outside 0..2^k - 1, which marks
        columns P does not have.
        """
        k = self.n_tilde
        if not 0 <= support < 1 << k:
            raise ValueError(f"support mask {support} marks columns outside 0..{k - 1} (k = {k})")
        cols, pivot_cols, rank, spread = self._reduced_columns
        rows = reduce(or_, compress(cols, _mask_bytes(support & pivot_cols, k)), 0)
        others = compress(cols, _mask_bytes(support & ~pivot_cols, k))
        return all(_eliminate(self.field, rank, [0] * (rank + 1), others, keep=~(rows * spread)))


def derived_code(code: LinearCode) -> DerivedCode:
    return DerivedCode(
        field=code.field,
        n_tilde=code.k,
        k_tilde=code.k - code.parity_rank,
        h_tilde=code.p,
    )


def min_distance(H: FieldMatrix, cap: int = 25) -> int:
    """Minimum distance of the code H defines: the size of the smallest
    linearly dependent set of H's columns.

    Any rank(H) + 1 columns are dependent, so the search starts from that
    bound; when rank(H) equals the column count no set is dependent and
    the code is trivial (ValueError). A depth-first walk chooses
    independent columns in increasing order. Each node carries the later
    columns reduced modulo the span of its chosen ones (_reduce_by), so a
    later column extends the choice independently exactly when its
    residual is nonzero, and a zero residual closes a dependent set one
    larger than the choice. At the last level that can still improve on
    the best size, two proportional residuals close one two larger: the
    last two columns of a minimal dependent set D, sorted, are
    proportional modulo its first |D| - 2. The walk there keys each
    residual by its direction (_proportional_keys) and looks for a repeat
    instead of building the children. Up to GF(2^8) the residuals are
    byte-lane ints (column_vectors): a zero residual is the int 0, and a
    key is the residual scaled to a 1 at its lowest nonzero lane, one
    translate.
    Wider fields hold tuples; when two coordinates remain (the last level
    of every MDS search) a residual (a, b) is keyed by log b - log a alone.
    Exact, but exponential in the worst case, so matrices wider than `cap`
    columns are refused.
    """
    if H.ncols > cap:
        raise MinDistanceCapError(
            f"minimum-distance search over {H.ncols} columns exceeds the cap of {cap}; "
            "supply the value externally (dmin/dtmin hints in code files)"
        )
    rank = matrix_rank(H)
    if rank == H.ncols:
        raise ValueError("all columns are independent; the code is trivial and has no distance")
    field = H.field
    tables, nonzero = _walk_tables(field), _nonzero(field)
    best = rank + 1

    def walk(rest: list, depth: int) -> None:
        # rest: the residuals of the columns after the last chosen one
        nonlocal best
        if not all(map(nonzero, rest)):
            best = depth + 1
            return
        if depth + 3 >= best:
            # only a dependent set of depth + 2 columns would improve on best
            if len(set(_proportional_keys(field, tables, rest))) < len(rest):
                best = depth + 2
            return
        for i, v in enumerate(rest):
            if depth + 2 >= best:
                return
            walk(_reduce_by(field, tables, v, rest[i + 1 :]), depth + 1)

    if best > 1:
        walk(column_vectors(H), 0)
    return best


def is_ml_correctable(derived: DerivedCode, pattern: ErasurePattern) -> bool:
    """Whether erasing the pattern's support is uniquely recoverable.

    True exactly when the erased columns of the derived code's parity-check
    matrix are linearly independent, which is the maximum-likelihood
    erasure-decoding criterion on the binary erasure channel.
    """
    if len(pattern) != derived.n_tilde:
        raise ValueError(
            f"pattern length {len(pattern)} does not match code length {derived.n_tilde}"
        )
    return derived.independent(pattern.mask)


def pack_symbols(
    symbols: Sequence, field: FieldSpec, where: Callable[[int], str], error: type[Exception]
) -> tuple[int, list[int]]:
    """(payload length, packed payloads) of StorageSymbols over `field` that
    share one length.

    The common case is C-level passes: isinstance, the distinct spec objects
    (each compared once), the set of lengths. Otherwise a loop raises
    `error` at the first misfit, labelled by the caller's where(position).
    """
    if not symbols:
        raise error("no storage symbols given")
    fits = all(map(isinstance, symbols, repeat(StorageSymbol)))
    if fits:
        specs = list(map(attrgetter("spec"), symbols))
        fits = all(spec == field for spec in dict(zip(map(id, specs), specs)).values())
    if not (fits and len(set(map(attrgetter("ell"), symbols))) == 1):
        for i, sym in enumerate(symbols):
            if not isinstance(sym, StorageSymbol):
                problem = f"{type(sym).__name__} {sym!r} is not a storage symbol"
            elif sym.spec != field:
                problem = f"symbol over {sym.spec!r}, expected {field!r}"
            elif sym.ell != symbols[0].ell:
                problem = f"payload length {sym.ell}, {where(0)} has {symbols[0].ell}"
            else:
                continue
            raise error(f"{where(i)}: {problem}")
    return symbols[0].ell, list(map(attrgetter("bits"), symbols))


def _check_rows(
    rows: Sequence, length: int, where: Callable[[int], str], what: str,
    wrong: Callable[[int], str] | None = None,
) -> None:
    """Raise ValueError at the first row that is not a sequence of `length`
    entries (`what` names them), labelled by the caller's where(its 1-based
    position); wrong(count) words another count ("has 4 symbols, expected
    3" by default)."""
    for s, row in enumerate(rows, 1):
        if not isinstance(row, Sequence):
            raise ValueError(f"{where(s)} is {_kind(row)}, not a sequence of {what}")
        if len(row) != length:
            said = wrong(len(row)) if wrong else f"has {len(row)} {what}, expected {length}"
            raise ValueError(f"{where(s)} {said}")


def pack_file(
    field: FieldSpec, k: int, rows: Sequence, where: Callable[[int], str],
    symbol_at: Callable[[int, int], str] | None = None, wrong: Callable[[int], str] | None = None,
) -> PackedFile:
    """rows, a PackedFile or a sequence of rows of k StorageSymbols, as a
    PackedFile over `field` with k symbols to a row; ValueError otherwise.

    Nested rows are checked (_check_rows) and packed (pack_symbols) once. A
    PackedFile is taken as it is once its row width, field and payload
    range (one min and one max) are checked. Either way a misfit is named
    as in the nested rows: row s by where(s), symbol l of it by
    symbol_at(s, l) (both 1-based; "{where(s)}, symbol {l}" by default), a
    row of another width by wrong(its width) as _check_rows does.
    """
    def at(i: int) -> str:  # symbol i, row-major
        s, l = divmod(i, k)
        return symbol_at(s + 1, l + 1) if symbol_at else f"{where(s + 1)}, symbol {l + 1}"

    if not isinstance(rows, PackedFile):
        _check_rows(rows, k, where, "symbols", wrong)
        ell, payloads = pack_symbols([sym for row in rows for sym in row], field, at, ValueError)
        return PackedFile(field, ell, k, payloads)
    # a PackedFile's misfit is named where its first misfit symbol sits
    _check_rows([range(rows.k)], k, where, "symbols", wrong)
    if rows.field != field:
        raise ValueError(f"{at(0)}: symbol over {rows.field!r}, expected {field!r}")
    bits, payloads = field.width * rows.ell, rows.payloads
    if payloads and (min(payloads) < 0 or max(payloads) >> bits):
        i = next(i for i, v in enumerate(payloads) if v < 0 or v >> bits)
        raise ValueError(
            f"{at(i)}: packed value does not fit {field.width} planes of {rows.ell} bits"
        )
    return rows


def encode_file(code: LinearCode, X: Sequence) -> PackedFile:
    """Encode a beta x k file matrix, a PackedFile or nested StorageSymbols
    (pack_file), into the PackedFile of its beta codeword rows of length n.

    Row i keeps its k message payloads as a systematic prefix; parity
    payload k + r is the P-row-r weighted sum of the row's message payloads,
    so every output row satisfies H c^T = 0. Message column l of every row
    is stacked into one int (algebra._stack), so each parity column is one
    _lane_product over the k stacks, for all rows at once. No symbol is
    built. Raises ValueError when a row is not a sequence of k entries
    ("stripe 1 is a StorageSymbol, ...") and names a misfit symbol ("stripe
    2, symbol 3").
    """
    if not X:
        raise ValueError("empty file")
    k, n, field = code.k, code.n, code.field
    X = pack_file(field, k, X, lambda s: f"stripe {s}")
    ell, payloads, beta = X.ell, X.payloads, len(X)
    stride = _stride(field, ell)
    columns = [_stack(payloads[l::k], stride) for l in range(k)]
    product = _lane_product(field, ell, stride, beta)
    rows = [0] * (beta * n)
    for l in range(k):
        rows[l::n] = payloads[l::k]
    for r, prow in enumerate(code.p._rows, k):
        rows[r::n] = _unstack(product(columns, prow), stride, beta)
    return PackedFile(field, ell, n, rows)
