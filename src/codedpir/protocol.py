"""The retrieval protocol: storage layout, queries, responses, recovery.

A user who wants file m sends each node a k x (beta*f) query matrix. The
first k nodes (which hold message symbols) get a uniformly random mask U
plus a deterministic 0/1 selection block aimed at file m's columns; parity
nodes get the bare mask. Every node returns its query matrix times its
symbol column, so each of the k subqueries yields one symbol per node.
Subquery t's answers are the mask row's interference w = (w_1..w_n), a
codeword, plus one file symbol x_l on each systematic node l it selects.
Recovery computes the parity syndromes s_t = P y_sys + y_par of every
subquery at once; in characteristic 2 the interference cancels (P w_sys =
w_par), leaving s_t = P[:, S_t] x_{S_t}. That system has full column rank
exactly when row t of the access matrix is a correctable erasure pattern,
and solving it exposes the selected file symbols directly.

A QuerySet holds the mask and the layout (e, pi, z) that places file m's
selection 1s, validated once when the set is built; its queries are
derived from them, never stored. The default z is the access matrix's
own canonical_slots and its selection list (EMatrix._canonical_lanes),
derived once per matrix. From the file drawn to the file recovered, a
symbol matrix is one codes.PackedFile: its payloads
(codes.StorageSymbol.bits), row-major, in one tuple. random_file draws
one, build_storage encodes the files into one (encode_file), and a
StorageArray holds that as its rows and keeps every stored row stacked
over the n nodes: several payloads side by side in one int, each in a
lane of whole 64-bit words (algebra._stack).
Nested StorageSymbols are packed once, where they enter (codes.pack_file).

A round does only what depends on the round: every map that depends on
the stored data, the access matrix or the code alone is derived on first
use and kept with what it depends on. The mask is the only input new in
a round, and its lookup keys are derived once per set, every row in one
bulk pass (QuerySet._keys, algebra._row_keys): build_queries converts its
draw, a set built otherwise converts its u. collect_responses multiplies
each mask row once, against all stored rows at a time, through the
product the array keeps bound to its stored rows (StorageArray._product,
the algebra._lane_product encode_file also uses: Four-Russians tables
over GF(2), looked up at the row's table indices, and Horner's rule over
the coefficients' bit planes on wider fields), adds what the row's
selection 1s draw (file m's stored rows, masked, _selection_masks) and
regroups every node's k answers into one int; it reads no query row and
no mask row. A ResponseSet holds the per-node ints, and
recover_file reads them directly: one pass over P, the same product
again, gives every syndrome. Subqueries whose supports differ by a
multiple of the code's row shift (LinearCode.row_shift) share one system,
P's rows masked to the first one's support, with each member's syndromes
in a lane of the right-hand sides. Each class system was eliminated once,
beside the identity, into inverse and check rows (_class_decode, kept on
the code per support): a round applies them to the class's stacked
right-hand sides as products, and a nonzero lane of a check row names an
inconsistent member. No round solves or eliminates. What depends only on
the access matrix and the row shift (the classes and two gathers,
_RecoveryPlan) is derived once per matrix. The solved payloads go into a
PackedFile, the file recovered. StorageSymbols appear
only at the boundary: nested input (files, stored rows and ResponseSet's
responses), and a PackedFile's rows and the `responses` view, built when
read and kept by no one.

Symbols are checked by codes.pack_symbols, which names a misfit by its
position: ValueError for files and stored symbols (codes.pack_file, which
also checks a PackedFile's field, row width and payload range),
ProtocolViolationError for responses (when the ResponseSet is built).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain, compress
from operator import itemgetter, xor
from typing import Callable, NamedTuple

from .algebra import (
    FieldMatrix,
    _lane_keys,
    _lane_product,
    _lane_values,
    _row_keys,
    _stack,
    _stride,
    _unstack,
    bit_slices,
)
# the one elimination per class support (_class_decode) goes through this
# module-level name, which the benchmark's tracer rebinds to time it as
# algebra.solve: no round calls it once its classes are decoded
from .algebra import _left_inverse as solve
from .codes import (
    LinearCode, PackedFile, StorageSymbol, _check_rows, encode_file, pack_file, pack_symbols,
)
from .optimizer import EMatrix, _selection_lanes


class ProtocolViolationError(RuntimeError):
    """Responses or query structure are inconsistent with the protocol."""


# bytes.translate tables over a 32-bit word's top byte: 1 where its bit 7
# (the word's bit 31) is clear; the set ones, to delete; and, per w <= 7, the
# byte's bits 6 .. 7 - w, which are the word's bits 30 .. 31 - w
_CLEAR_TOP = bytes(b < 0x80 for b in range(256))
_SET_TOP = bytes(range(0x80, 0x100))
_TOP_BITS = [bytes(b >> (7 - w) for b in range(256)) for w in range(8)]
_CHUNK = 1 << 14  # words fetched per getrandbits call at most
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # 0/1 bytes -> binary digits


def _draw_values(rng: random.Random, order: int, count: int) -> bytes | array:
    """The values of [rng.randrange(order) for _ in range(count)], leaving
    rng in exactly the state those calls leave it in; `order` is a power of
    two up to 2^31. They come as bytes up to order 2^7, as an array of
    32-bit values above it: one byte or four per draw, no int object each.

    On CPython, randrange(2^w) is getrandbits(w + 1), which keeps the top
    w + 1 bits of one 32-bit Mersenne Twister word, redrawn while the top
    bit is set. The stream is therefore the words whose bit 31 is clear,
    each read at bits 30 .. 31 - w. Each chunk fetches at most as many
    words as draws are still owed (one getrandbits(32 * need), first word
    lowest), so no word past the last one randrange would read is taken.
    For w <= 7 those bits lie in the word's top byte, so a chunk is one
    bytes.translate of its top bytes: the ones with bit 7 set deleted, the
    rest mapped to their bits 6 .. 7 - w. Wider values are shifted and
    masked as one int, viewed as an array of 32-bit words, and the kept
    ones picked by flags from their top bytes.
    """
    if not 0 < order <= 1 << 31 or order & (order - 1):
        raise ValueError(f"draw order {order} is not a power of two up to 2^31")
    w = order.bit_length() - 1
    if w <= 7:
        table = _TOP_BITS[w]
        out = bytearray()
        while len(out) < count:
            need = min(count - len(out), _CHUNK)
            top = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            out += top.translate(table, _SET_TOP)
        return bytes(out)
    shift = 31 - w
    lane = (order - 1).to_bytes(4, "little")
    out = array("I")
    while len(out) < count:
        need = min(count - len(out), _CHUNK)
        words = rng.getrandbits(32 * need)
        keep = words.to_bytes(4 * need, "little")[3::4].translate(_CLEAR_TOP)
        mask = int.from_bytes(lane * need, "little")
        values = array("I", ((words >> shift) & mask).to_bytes(4 * need, "little"))
        if sys.byteorder == "big":
            values.byteswap()
        out.extend(compress(values, keep))
    return out


def _draws(rng: random.Random, order: int, count: int) -> list[int]:
    """_draw_values as a list: exactly [rng.randrange(order) for _ in
    range(count)], with rng left where those calls leave it."""
    return list(_draw_values(rng, order, count))


@dataclass(frozen=True)
class StorageArray:
    """Encoded contents of the whole system: beta*f rows by n columns.

    Rows are grouped file-major, stripe-minor; column j is what node j + 1
    stores (f coded chunks of beta symbols each). `rows` is one PackedFile
    with n symbols to a row, or () when nothing is stored. Building one,
    directly, through build_storage or through dataclasses.replace, takes
    a PackedFile or nested StorageSymbols through codes.pack_file: it
    checks that every row holds n symbols ("storage row 2 holds 4 symbols,
    the code has 5 nodes"), all over the code's field with one payload
    length ("node 5, stored symbol 2: payload length 3, ..."), packing
    nested rows once, and raises ValueError. Then it stacks each stored row
    over the n nodes (_stack at _stride), so _lane_product() at a query
    row's keys multiplies every node's column at once. The product bound
    to those stacks (_product: over GF(2) its Four-Russians tables, about
    1.4 MB at c7_array's f = 4, ell = 64 shape) is built by the first
    round and kept with the array, so later rounds build no table; an
    array made by dataclasses.replace or unpickled builds its own. An array with no rows
    is valid and has no payload length.
    """

    code: LinearCode
    beta: int
    f: int
    rows: PackedFile
    # stacked row i is stored row i's n payloads, stacked
    _stacked: list[int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, field = self.code.n, self.code.field
        rows, stacked = (), []
        if self.rows:
            rows = pack_file(
                field, n, self.rows, lambda i: f"storage row {i}",
                lambda i, j: f"node {j}, stored symbol {i}",
                lambda count: f"holds {count or 'no'} symbols, the code has {n} nodes",
            )
            stride, payloads = _stride(field, rows.ell), rows.payloads
            stacked = [_stack(payloads[a : a + n], stride) for a in range(0, len(payloads), n)]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_stacked", stacked)

    def __reduce__(self):
        # pickled as its fields: the stacks are rebuilt on load, the tables on use
        return StorageArray, (self.code, self.beta, self.f, self.rows)

    @cached_property
    def _product(self) -> Callable[[Sequence], int]:
        """_lane_product bound to the stacked rows, built on first use and
        kept: over GF(2) its Four-Russians tables, on wider fields the plane
        sums' stacks. Takes one query row's keys (algebra._row_keys)."""
        field, ell = self.code.field, self.ell
        return _lane_product(field, ell, _stride(field, ell), self.code.n, self._stacked)

    @property
    def ell(self) -> int:
        """Payload length of the stored symbols; ValueError when none is stored."""
        if not self.rows:
            raise ValueError("storage array holds no symbols, so it has no payload length")
        return self.rows.ell


@dataclass(frozen=True)
class QuerySet:
    """Everything the user generated for one retrieval: the mask u and the
    layout that places file m's selection block in the n node queries.

    Node l's query is the k x (beta*f) matrix u plus one 1 per subquery
    that selects node l, for l <= k, and u itself past node k. z[i][l]
    gives the stripe slot (1..beta) that subquery i + 1 draws from node
    l + 1, or 0 when that subquery does not select node l + 1; pi permutes
    the slots into actual stripe indices and fixes 0.

    The queries are never written out, so they cannot disagree with the
    layout: building a set, directly, through build_queries or through
    dataclasses.replace, validates its layout once (_layout, then the file
    index m in 1..f, a node count of at least k and a k x (beta*f) mask),
    raising ValueError. The default z is the access matrix's own
    canonical_slots, taken as it is, and so are its selection list
    (_lanes), which recover_file reads, and its selection masks (_picks),
    which collect_responses reads. So are the mask's lookup keys (_keys):
    build_queries fills them from its draw, and a set built directly or by
    dataclasses.replace derives them from its own u, so no key outlives
    its mask.
    """

    n: int
    m: int
    f: int
    u: FieldMatrix
    e: EMatrix
    pi: tuple[int, ...]
    z: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        u, f, m = self.u, self.f, self.m
        # the mask's rows are the subqueries of the code it was drawn for
        k = u.nrows
        pi, z = _layout(k, self.e, f, self.pi, self.z)
        if not isinstance(m, int) or not 1 <= m <= f:
            raise ValueError(f"file index {m!r} out of 1..{f}")
        if not isinstance(self.n, int) or self.n < k:
            raise ValueError(f"node count {self.n!r} is not an integer of at least k={k}")
        if u.ncols != self.beta * f:
            raise ValueError(f"mask has {u.ncols} columns, the layout needs beta*f = {self.beta * f}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "z", z)

    @property
    def beta(self) -> int:
        """Stripes per file: the access matrix's weight."""
        return self.e.beta

    @cached_property
    def _lanes(self) -> Sequence[int]:
        """The selection list of z, compact (optimizer._selection_lanes)."""
        e = self.e
        return e._canonical_lanes if self.z is e.canonical_slots else _selection_lanes(self.z, e.beta)

    @cached_property
    def _keys(self) -> list:
        """Every mask row's lookup keys, in row order (algebra._row_keys):
        what the array's product reads for it, derived once per set, from
        all rows in one bulk pass. build_queries fills them from its draw;
        a set built directly or by dataclasses.replace derives them from u
        on first use."""
        u = self.u
        return _row_keys(u.field, chain.from_iterable(u._rows), u.ncols)

    @cached_property
    def _picks(self) -> dict:
        """collect_responses' selection masks of z by lane stride, each built
        once (_selection_masks); the access matrix keeps its canonical
        layout's."""
        e = self.e
        return e._canonical_picks if self.z is e.canonical_slots else {}

    def v_block(self, l: int) -> FieldMatrix:
        """The k x beta selection block of node l's query (l in 1..k): row i
        holds a 1 at stripe pi[z[i][l - 1]] when subquery i + 1 selects
        node l, and none otherwise."""
        k = self.e.k
        if not 1 <= l <= k:
            raise ValueError(f"only the first {k} nodes carry a selection block")
        rows = [[0] * self.beta for _ in range(k)]
        for i, row in enumerate(self.z):
            slot = row[l - 1]
            if slot:
                rows[i][self.pi[slot] - 1] = 1
        return FieldMatrix(self.u.field, rows)


class ResponseSet:
    """Every node's answers, in node order, packed: node j's payloads side by
    side in one int (_stack at _stride), with their count.

    ResponseSet(responses) takes one sequence of StorageSymbols per node,
    all over one field with one payload length, and packs them once.
    ProtocolViolationError names what does not fit: responses that are not
    a sequence, a node whose response is not one ("node 3: response is a
    StorageSymbol, ..."), and a misfit symbol ("node 3, subquery 2: ...").
    collect_responses builds one from its packed answers. `responses` is
    the symbols again, built on first access; equality compares the packed
    form.
    """

    __slots__ = ("_field", "_ell", "_counts", "_stacks", "_view")

    def __init__(self, responses: Sequence[Sequence[StorageSymbol]]):
        if not isinstance(responses, Sequence):
            raise ProtocolViolationError(
                f"responses are a {type(responses).__name__}, not a sequence of node responses"
            )
        for j, resp in enumerate(responses):
            if not isinstance(resp, Sequence):
                raise ProtocolViolationError(
                    f"node {j + 1}: response is a {type(resp).__name__}, not a sequence of symbols"
                )
        counts = tuple(map(len, responses))
        ends = list(accumulate(counts))

        def where(i: int) -> str:
            j = bisect_right(ends, i)
            return f"node {j + 1}, subquery {i - ends[j] + counts[j] + 1}"

        symbols = list(chain.from_iterable(responses))
        field = ell = None
        payloads: list[int] = []
        if symbols:
            field = symbols[0].spec if isinstance(symbols[0], StorageSymbol) else None
            ell, payloads = pack_symbols(symbols, field, where, ProtocolViolationError)
        stride = _stride(field, ell) if symbols else 0
        self._field, self._ell, self._counts = field, ell, counts
        self._stacks = tuple(
            _stack(payloads[end - count : end], stride) for end, count in zip(ends, counts)
        )
        self._view = tuple(map(tuple, responses))

    @classmethod
    def _of(
        cls, field, ell: int, counts: tuple[int, ...], stacks: tuple[int, ...]
    ) -> "ResponseSet":
        """Answers already packed: node j's counts[j] payloads stacked in stacks[j]."""
        rs = cls.__new__(cls)
        rs._field, rs._ell, rs._counts, rs._stacks, rs._view = field, ell, counts, stacks, None
        return rs

    @property
    def responses(self) -> tuple[tuple[StorageSymbol, ...], ...]:
        """Node j's answers as StorageSymbols, in subquery order."""
        if self._view is None:
            field, ell = self._field, self._ell
            stride = _stride(field, ell)
            self._view = tuple(
                tuple(StorageSymbol._of(field, ell, v) for v in _unstack(y, stride, count))
                for y, count in zip(self._stacks, self._counts)
            )
        return self._view

    @property
    def downloaded(self) -> int:
        """Base-field symbols downloaded: the answers times their payload length."""
        return sum(self._counts) * (self._ell or 0)

    def _key(self) -> tuple:
        return self._field, self._ell, self._counts, self._stacks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResponseSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        counts = self._counts
        return f"ResponseSet(nodes={len(counts)}, answers={sum(counts)}, ell={self._ell})"


def build_storage(code: LinearCode, files: Sequence) -> StorageArray:
    """Encode every stripe of every file and stack the codeword rows.

    A file is a PackedFile or nested StorageSymbols (codes.pack_file): the
    nested files are checked and packed together, once, and a PackedFile
    is taken as it is once its field, row width and payload range are
    checked. encode_file then encodes every stripe at once. Each payload's
    range is checked once: the stripes, and the codeword rows encode_file
    computes, are PackedFile._fitted, which neither encode_file nor the
    StorageArray checks again. Raises
    ValueError when there is no file, file 1 has no stripes, a file is not
    a sequence of as many stripes as file 1 ("file 2 has 3 stripes,
    expected 2"), or a stripe is not a sequence of k symbols ("file 1,
    stripe 2 is a StorageSymbol, not a sequence of symbols"), and names a
    misfit symbol or payload ("file 1, stripe 2, symbol 3").
    """
    if not files:
        raise ValueError("need at least one file")
    first = files[0]
    if isinstance(first, Sequence) and not first:
        raise ValueError("file 1 has no stripes")
    k, field = code.k, code.field
    beta = len(first) if isinstance(first, Sequence) else 0  # else named next
    _check_rows(files, beta, lambda m: f"file {m}", "stripes")
    nested = [m for m, x in enumerate(files, 1) if not isinstance(x, PackedFile)]
    # packed at once, so a misfit length is named against the first nested symbol
    packed = pack_file(
        field, k, [row for m in nested for row in files[m - 1]],
        lambda s: f"file {nested[(s - 1) // beta]}, stripe {(s - 1) % beta + 1}",
    ) if nested else ()
    chunks = (packed[a : a + beta] for a in range(0, len(packed), beta))
    parts = [
        pack_file(field, k, x, lambda s, m=m: f"file {m}, stripe {s}") if isinstance(x, PackedFile)
        else next(chunks) for m, x in enumerate(files, 1)
    ]
    ell = parts[0].ell
    for m, part in enumerate(parts, 1):
        if part.ell != ell:
            raise ValueError(
                f"file {m}, stripe 1, symbol 1: payload length {part.ell}, "
                f"file 1, stripe 1, symbol 1 has {ell}"
            )
    # every part is checked or packed from symbols: its payloads fit
    payloads = chain.from_iterable(part.payloads for part in parts)
    stripes = PackedFile._fitted(field, ell, k, payloads)
    return StorageArray(code, beta, len(files), encode_file(code, stripes))


def _validate_slots(e: EMatrix, z: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    k = e.k
    grid = [list(map(int, row)) for row in z]
    if len(grid) != k or any(len(r) != k for r in grid):
        raise ValueError(f"slot assignment must be {k} x {k}")
    for l in range(k):
        used = []
        for i in range(k):
            slot = grid[i][l]
            if e.rows[i][l]:
                if not 1 <= slot <= e.beta:
                    raise ValueError(f"slot {slot} at ({i}, {l}) outside 1..{e.beta}")
                used.append(slot)
            elif slot != 0:
                raise ValueError(f"slot set at ({i}, {l}) where the access matrix has a zero")
        if sorted(used) != list(range(1, e.beta + 1)):
            raise ValueError(f"column {l} does not use each stripe slot exactly once")
    return tuple(map(tuple, grid))


def _validate_pi(pi: Sequence[int], beta: int) -> tuple[int, ...]:
    perm = tuple(int(x) for x in pi)
    if len(perm) != beta + 1 or perm[0] != 0 or sorted(perm) != list(range(beta + 1)):
        raise ValueError(f"pi must permute 0..{beta} and fix 0")
    return perm


def _selection_flips(
    k: int, beta: int, m: int, pi: Sequence[int], z: Sequence[Sequence[int]]
) -> list[list[tuple[int, int]]]:
    """The (row, column) of every selection 1 at each systematic node l,
    all 0-based, as list l.

    Subquery i selecting systematic node l puts a 1 in row i of node l's
    query, at the column of stripe pi[z[i][l]] of file m.
    """
    base = (m - 1) * beta - 1
    return [[(i, base + pi[row[l]]) for i, row in enumerate(z) if row[l]] for l in range(k)]


def _layout(
    k: int, e: EMatrix, f: int, pi: Sequence[int] | None, z: Sequence[Sequence[int]] | None
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Validated (pi, z) of access matrix e for f files on a code with k
    message nodes; None picks the identity and e.canonical_slots, which is
    also taken as it is when given (dataclasses.replace hands it back).

    Raises ValueError when e is not k x k, f is not an integer of at least
    1, or pi or z is malformed.
    """
    if e.k != k:
        raise ValueError(f"access matrix is {e.k} x {e.k}, code needs {k} x {k}")
    if not isinstance(f, int):
        raise ValueError(f"file count f = {f!r} is a {type(f).__name__}, not an integer")
    if f < 1:
        raise ValueError("need at least one file")
    perm = _validate_pi(pi, e.beta) if pi is not None else tuple(range(e.beta + 1))
    slots = e.canonical_slots if z is None or z is e.canonical_slots else _validate_slots(e, z)
    return perm, slots


def _assemble(
    u_rows: list[list[int]], n: int, flips: list[list[tuple[int, int]]]
) -> list[list[list[int]]]:
    """Every node's query rows: the mask plus the selection 1s, where
    flips[l] lists the (row, column) of each 1 at systematic node l.

    The selection puts at most one 1 in each row, so a systematic node
    shares the mask's rows except those it flips, which are copies; parity
    nodes all get the mask's own row list. u_rows is never edited.
    """
    queries = []
    for node in flips:
        q = u_rows.copy()
        for i, col in node:
            row = q[i] = u_rows[i].copy()
            row[col] ^= 1
        queries.append(q)
    queries += [u_rows] * (n - len(flips))
    return queries


def build_queries(
    code: LinearCode,
    e: EMatrix,
    m: int,
    f: int,
    seed: int,
    pi: Sequence[int] | None = None,
    z: Sequence[Sequence[int]] | None = None,
) -> QuerySet:
    """Draw the mask for file m's retrieval: the QuerySet of the mask and
    the layout (e, pi, z), which validates the layout once; its node
    queries are derived from them (see QuerySet).

    The mask's k*beta*f entries are exactly rng.randrange(order) each, in
    row order, from random.Random(seed), drawn at once (_draw_values): u's
    rows are sliced from that block, and the rows' lookup keys (the set's
    _keys, which collect_responses reads) are converted from it in one
    bulk pass (algebra._row_keys), so no round encodes a mask row.

    pi may be any permutation of 0..beta fixing 0; z may override the
    canonical stripe-slot assignment as long as each column of the access
    matrix still uses each slot exactly once. Both default to choices that
    tests can reproduce, and recovery works for any valid override.
    """
    k, field = code.k, code.field
    # a file count that is not an integer draws nothing; the set's check names it
    width = e.beta * f if isinstance(f, int) else 0
    drawn = _draw_values(random.Random(seed), field.order, k * width)
    u = FieldMatrix._wrap(field, [list(drawn[i * width : (i + 1) * width]) for i in range(k)])
    qs = QuerySet(code.n, m, f, u, e, pi, z)
    qs.__dict__["_keys"] = _row_keys(field, drawn, width)  # what QuerySet._keys derives from u
    return qs


def _gather(raw: bytes, n: int, stride: int) -> list[bytes]:
    """Lanes of `stride` bytes laid out row by row, n per row, regrouped
    node by node: entry j is lane j of every row, in row order."""
    # the words are only moved about, never read as numbers: byte order does not matter
    words = array("Q", raw)
    run = stride // 8
    if run == 1:
        return [words[j::n].tobytes() for j in range(n)]
    columns = []
    for j in range(n):
        column = array("Q", bytes(len(raw) // n))
        for b in range(run):
            column[b::run] = words[j * run + b :: n * run]
        columns.append(column.tobytes())
    return columns


def collect_responses(qs: QuerySet, array: StorageArray) -> ResponseSet:
    """Every node's answer to its query, computed for all nodes at once.

    Node j's answers are its query times its stored column, packed (see
    ResponseSet), but no query row, and no mask row, is read: the array
    holds its stored rows stacked over the nodes, so each mask row is
    multiplied once, against every node's column at a time, by the product
    the array keeps bound to them (StorageArray._product), at the row's
    lookup keys, derived once per set (QuerySet._keys): over GF(2) one
    lookup and one XOR per 4 stored rows in Four-Russians tables the first
    round built, on wider fields the coefficients' bit planes summed row by
    row. A selection 1 at row i of node l's query, in file m's column of
    slot s, adds node l's stored payload there to its answer i: file m's
    stored row in slot s (pi), masked to the lanes of the nodes where row i
    draws slot s (_selection_masks, kept per lane stride on the access
    matrix for its canonical layout), so a row adds one masked row per slot
    it draws and moves no lane it does not select. The k rows' answers are
    then regrouped node by node (_gather).
    Raises ValueError when the query set and the array disagree on beta,
    f, the node count, the query width or the field; the array's symbols
    were checked when it was built.
    """
    if array.beta != qs.beta or array.f != qs.f:
        raise ValueError("query set and storage array disagree on beta or f")
    n = array.code.n
    if qs.n != n:
        raise ValueError(f"query set has {qs.n} node queries, the code has {n} nodes")
    field = array.code.field
    nrows = len(array.rows)
    u = qs.u  # every node's query has the mask's shape and field
    if u.ncols != nrows:
        raise ValueError(f"query has {u.ncols} columns but the node stores {nrows} symbols")
    if u.field != field:
        raise ValueError("node 1: query over another field than the code")
    ell = array.ell
    stride = _stride(field, ell)
    stacked = array._stacked
    k = u.nrows
    masks = qs._picks.get(stride)
    if masks is None:
        masks = qs._picks[stride] = _selection_masks(qs.z, stride)
    # file m's stored rows in slot order
    base = (qs.m - 1) * qs.beta - 1
    drawn = [stacked[base + p] for p in qs.pi[1:]]
    product = array._product
    products = b"".join(
        reduce(xor, [drawn[s] & mask for s, mask in picks], product(key))
        .to_bytes(n * stride, "little")
        for key, picks in zip(qs._keys, masks)
    )
    answers = [int.from_bytes(lanes, "little") for lanes in _gather(products, n, stride)]
    return ResponseSet._of(field, ell, (k,) * n, tuple(answers))


def _pick(raw: bytes, get: itemgetter, stride: int) -> bytes:
    """The lanes of `stride` bytes of raw that `get`, an itemgetter of two
    lane positions or more, picks, in its order."""
    # the words are only moved about, never read as numbers: byte order does not matter
    words = array("Q", raw)
    run = stride // 8
    parts = [array("Q", get(words[b::run])) for b in range(run)]
    out = array("Q", bytes(8 * run * len(parts[0])))
    for b, part in enumerate(parts):
        out[b::run] = part
    return out.tobytes()


def _selection_masks(
    z: Sequence[Sequence[int]], stride: int
) -> list[list[tuple[int, int]]]:
    """What each row's selection 1s draw, as masks: per row i of the slot
    assignment z, (s - 1, mask) for every slot s the row draws, where mask
    covers the lanes of `stride` bytes of the nodes l with z[i][l] = s.
    File m's stored row in slot s, masked, is then what the row adds at
    those nodes: one AND per slot a row draws, where a gather would move
    every lane, selected or not."""
    k = len(z)
    fill = (1 << 8 * stride) - 1  # a whole lane
    out = []
    for row in z:
        lanes: dict[int, bytearray] = {}
        for l, s in enumerate(row):
            if s:
                lanes.setdefault(s, bytearray(k * stride))[l * stride] = 1
        out.append([(s - 1, int.from_bytes(at, "little") * fill) for s, at in lanes.items()])
    return out


def _shift_classes(
    rows: Sequence[Sequence[int]], g: int
) -> list[tuple[int, list[tuple[int, int]]]]:
    """The access matrix's rows grouped by shifts of their supports by
    multiples of g: per class, its first row's support mask (bit l for
    column l) and its members in row order, (t, j) when row t's support is
    the first row's shifted by g*j (column l to (l + g*j) mod k).

    The first member has j = 0, and the classes come in the order of their
    first rows. Rows with equal supports share a class and a j.
    """
    k = len(rows)
    full = (1 << k) - 1
    supports = [int(bytes(row[::-1]).translate(_DIGITS), 2) for row in rows]
    waiting: dict[int, list[int]] = {}
    for t, mask in enumerate(supports):
        waiting.setdefault(mask, []).append(t)
    classes = []
    for mask in supports:
        if mask not in waiting:
            continue
        members = []
        for j in range(k // g):
            turned = ((mask << g * j) | (mask >> (k - g * j))) & full
            members += [(t, j) for t in waiting.pop(turned, ())]
        classes.append((mask, sorted(members)))
    return classes


def recover_file(qs: QuerySet, rs: ResponseSet, code: LinearCode) -> PackedFile:
    """Reconstruct the requested beta x k file matrix from the responses,
    packed (PackedFile): no StorageSymbol is built.

    Subquery t's answers y are the interference w, a codeword, plus file
    symbol x_l on each systematic node l in S_t, the support of row t of
    the access matrix. A ResponseSet holds every node's k payloads stacked
    into one int, so one pass over P gives the parity syndromes s_t =
    P y_sys + y_par of all k subqueries. The interference cancels in
    characteristic 2, leaving s_t = P[:, S_t] x_{S_t}, whose solution is
    the selected file symbols.

    Subqueries related by the code's row shift share one system. Rotating
    P's columns by g (code.row_shift) turns row i into row perm[i], so when
    S_t' is S_t shifted by g*j, row perm^j(i) of t''s system is row i of
    t's with every unknown c renamed c + g*j. The subqueries of a class
    (_shift_classes) therefore share t's coefficients, P's rows masked to
    S_t, and ride side by side in the lanes of its right-hand sides: in
    stacked row i, member t''s lane holds its syndrome at row perm^j(i),
    and the lane's value for unknown c is t''s file symbol c + g*j. A lane
    is a payload's stride, as in the stacks, at every field width. A code
    with g = k has one subquery per class.

    The system's coefficients depend only on P and the class support, so
    each is decoded once (_class_decode, kept on the code per support):
    `solve` (algebra._left_inverse, bound here under that name) eliminates
    [P_S | I] into one inverse row per unknown and the (n - k) - rank check
    rows of P_S's left kernel, encoded as the keys algebra._lane_product
    looks up. The classes, and where each class's lanes come from and go,
    depend only on the access matrix and the row shift: _recovery_plan
    derives them once per matrix and shift, kept on the matrix. A round
    then reads the syndromes as one flat lane array and lays out every
    class's right-hand sides by one gather; per class, the inverse rows and
    check rows are products over its stacked right-hand sides (a keyed
    _lane_product: Four-Russians tables of those rows over GF(2), plane
    sums above it), and one more gather puts the solved values in slot
    order (_placement; a caller's own z builds that one per call). No
    round eliminates or solves.

    A system has full column rank exactly when its row of the access matrix
    is a correctable erasure pattern, and every member of a class shares
    the rank, which the decode knows. The syndrome must lie in the span of
    P[:, S_t]: a response that moves it out of that span is inconsistent,
    which a nonzero lane of a check row shows, member by member, in the
    same pass. The error names the smallest failing subquery, as singular
    before inconsistent, on its first line and every failing one on the
    next ("failing subqueries: 2 (inconsistent), 12 (inconsistent)").
    ProtocolViolationError names that, a query set drawn for a code with
    another k, responses from a node count other than n, and a node that
    does not answer k symbols; misfit symbols were named when the
    ResponseSet was built, and a malformed layout when the QuerySet was.

    Every payload of the file is placed exactly once, so the file needs
    no check: the set validated its layout when it was built, so every
    column l of the access matrix gives each slot 1..beta to exactly one
    subquery, and (slot z[t][l], column l) runs over the beta x k lanes of
    the set's selection list (QuerySet._lanes) once as (t, l) runs over the
    selections. The solved values go to those lanes, slot by slot, and pi,
    a permutation of 1..beta, puts slot s's row at stripe pi[s].
    """
    k = code.k
    beta = qs.beta
    if beta >= k:
        raise ProtocolViolationError(
            f"stripe count {beta} must stay below k={k}; no subquery may select every node"
        )
    # the set validated its layout when it was built, for a code with e.k message nodes
    if qs.e.k != k:
        raise ProtocolViolationError(
            f"query set: access matrix is {qs.e.k} x {qs.e.k}, code needs {k} x {k}"
        )
    n = code.n
    counts = rs._counts
    if len(counts) != n:
        raise ProtocolViolationError(f"expected responses from {n} nodes, got {len(counts)}")
    for j, count in enumerate(counts):
        if count != k:
            raise ProtocolViolationError(
                f"node {j + 1}: {count} symbols for {k} subqueries"
                + (f" (subquery {count + 1} unanswered)" if count < k else "")
            )
    field = code.field
    if rs._field != field:
        raise ProtocolViolationError(
            f"node 1, subquery 1: symbol over {rs._field!r}, expected {field!r}"
        )
    ell = rs._ell
    stride = _stride(field, ell)
    product = _lane_product(field, ell, stride, k)
    stacked = rs._stacks[:k]
    syndromes = b"".join(
        (y ^ product(stacked, prow)).to_bytes(k * stride, "little")
        for y, prow in zip(rs._stacks[k:], code.p._rows)
    )
    e = qs.e
    plan = e._recovery_plans.get(code.row_shift)
    if plan is None:
        plan = e._recovery_plans[code.row_shift] = _recovery_plan(e, code)
    # every class's right-hand sides, laid out by the plan: a class of
    # `count` members holds its row i's in the `count` lanes from
    # i*count on, past the classes before it, member by member
    rhs = _pick(syndromes, plan.gather, stride)
    decodes = code._class_decodes
    rows = n - k
    solved: list[bytes] = []  # class by class, unknown by unknown, member by member
    failing: dict[int, int | None] = {}  # subquery: its singular class's rank, or None
    at = 0
    for mask, members in plan.classes:
        span = len(members) * stride
        decode = decodes.get(mask)
        if decode is None:
            decode = decodes[mask] = _class_decode(code, mask)
        if decode.rank < beta:
            failing.update((t, decode.rank) for t, _ in members)
        else:
            stacks = [
                int.from_bytes(rhs[a : a + span], "little")
                for a in range(at, at + rows * span, span)
            ]
            product = _lane_product(field, ell, stride, len(members), stacks, keyed=True)
            solved += [product(key).to_bytes(span, "little") for key in decode.inverse]
            for key in decode.checks:
                lanes = _unstack(product(key), stride, len(members))
                failing.update((t, None) for (t, _), lane in zip(members, lanes) if lane)
        at += rows * span
    if failing:
        raise ProtocolViolationError(_failure_message(failing))
    if qs.z is e.canonical_slots:
        place = plan.place
    else:
        place = _placement(plan.classes, qs._lanes, k, code.row_shift[0], beta)
    found = place(_lane_values(b"".join(solved), stride))  # the file's payloads, slot by slot
    # stripe r is the slot s with pi[s] = r + 1
    order = sorted(range(beta), key=qs.pi[1:].__getitem__)
    return PackedFile(field, ell, k, chain.from_iterable(found[s * k : (s + 1) * k] for s in order))


def _failure_message(failing: dict[int, int | None]) -> str:
    """The error of a round whose subqueries in `failing` fail: each one's
    singular class's rank, or None where its spare equations do not hold.
    The first line names the smallest, the next every one."""
    t = min(failing)
    rank = failing[t]
    if rank is None:
        first = f"subquery {t + 1}: parity responses are inconsistent with each other"
    else:
        first = (
            f"subquery {t + 1}: interference system is singular (rank {rank}); "
            "the access pattern is not correctable or responses are inconsistent"
        )
    every = ", ".join(
        f"{t + 1} ({'inconsistent' if rank is None else f'singular, rank {rank}'})"
        for t, rank in sorted(failing.items())
    )
    return f"{first}\nfailing subqueries: {every}"


class _RecoveryPlan(NamedTuple):
    """What recover_file derives from the access matrix and the code's row
    shift alone (_recovery_plan): the shift classes (_shift_classes); the
    gather of every class's right-hand-side lanes, class by class, row by
    row, member by member, from the syndromes read as one flat lane array
    (row r's lane t is subquery t's syndrome there); and the gather of
    the solved values, in that class order, to the file's payloads slot by
    slot under the canonical layout (_placement). What P adds, each
    class's decode, is kept per support on the code (_class_decode)."""

    classes: list[tuple[int, list[tuple[int, int]]]]
    gather: itemgetter
    place: itemgetter


def _recovery_plan(e: EMatrix, code: LinearCode) -> _RecoveryPlan:
    """The recovery plan of access matrix e, for the canonical layout, on a
    code with e.k message nodes: member (t, j) of a class reads its
    syndrome of row turns[j][i] into the class's row i (see recover_file)."""
    k, g = e.k, code.row_shift[0]
    turns = code._row_turns
    classes = _shift_classes(e.rows, g)
    gather = itemgetter(*[
        turns[j][i] * k + t
        for _, members in classes
        for i in range(code.n - k)
        for t, j in members
    ])
    return _RecoveryPlan(classes, gather, _placement(classes, e._canonical_lanes, k, g, e.beta))


class _ClassDecode(NamedTuple):
    """A class's system P[:, S] decoded once (_class_decode): its rank, and
    its inverse and check rows as _lane_keys, none when it is singular."""

    rank: int
    inverse: list
    checks: list


def _class_decode(code: LinearCode, mask: int) -> _ClassDecode:
    """The decode of the system whose coefficients are P's rows masked to
    the support `mask` (bit l for column l): algebra._left_inverse (bound
    here as `solve`) eliminates [P_S | I] once, and each inverse row (one
    per column of S, in increasing order) and check row is encoded as the
    keys a keyed _lane_product looks up."""
    field = code.field
    keep = bit_slices(field, code.k).column_mask(0) * mask  # component 0 of every plane
    inverse, checks = solve(field, code.k, [a & keep for a in code._packed_parity_rows])
    if len(inverse) < mask.bit_count():
        return _ClassDecode(len(inverse), [], [])
    keys = [_lane_keys(field, row) for row in inverse]
    return _ClassDecode(len(inverse), keys, [_lane_keys(field, row) for row in checks])


def _placement(
    classes: list[tuple[int, list[tuple[int, int]]]], lanes: Sequence[int], k: int, g: int,
    beta: int,
) -> itemgetter:
    """The gather of recover_file's solved values, class by class, unknown
    by unknown (the class support's columns l, in increasing order), member
    by member, to the file's beta*k payloads slot by slot. Member (t, j)'s
    unknown on column l is its file symbol on column (l + g*j) mod k, which
    the selection list `lanes` (QuerySet._lanes) puts at lane
    lanes[t*k + (l + g*j) mod k]; a valid layout fills every lane once."""
    source = [0] * (beta * k)
    at = 0
    for mask, members in classes:
        count = len(members)
        for c, l in enumerate(l for l in range(k) if mask >> l & 1):
            for m, (t, j) in enumerate(members):
                source[lanes[t * k + (l + g * j) % k]] = at + c * count + m
        at += beta * count
    return itemgetter(*source)


@dataclass(frozen=True)
class PrivacyReport:
    """Verdicts of the exact and statistical query-privacy checks."""

    exact_performed: bool
    exact_multisets_ok: bool | None
    exact_construction_ok: bool | None
    trials: int
    tests: int
    min_p_value: float
    significance: float
    per_test_threshold: float
    statistical_ok: bool

    @property
    def ok(self) -> bool:
        exact_ok = (
            True
            if not self.exact_performed
            else bool(self.exact_multisets_ok and self.exact_construction_ok)
        )
        return exact_ok and self.statistical_ok


def _check_limit(name: str, limit: int) -> None:
    """ValueError unless a mask-count limit is an integer."""
    if not isinstance(limit, int):
        raise ValueError(f"{name} {limit!r} is not an integer")


def exact_privacy_check(
    code: LinearCode,
    e: EMatrix,
    f: int,
    pi: Sequence[int] | None = None,
    z: Sequence[Sequence[int]] | None = None,
    limit: int = 1 << 16,
    builder: Callable[[list[list[int]], int], Sequence[Sequence[Sequence[int]]]] | None = None,
) -> tuple[bool, bool]:
    """Run every mask through the query assembly and check each query against
    the construction; compare query distributions across files.

    Returns (multisets_ok, construction_ok). The first is the privacy
    statement itself: at every node, the multiset of query matrices over
    all masks is identical no matter which file is requested. The second
    pins the construction: for every mask, node l's query must be the mask
    with exactly file m's selection 1s added (the bare mask past node k),
    which catches bugs like selection leaking into parity queries. Every
    mask, for every file, goes through the built-in assembly (_assemble,
    reading per node the selection flips built once per check) unless
    `builder` replaces it; a builder that returns fewer than n node
    queries, or a query with fewer than k rows, raises
    ProtocolViolationError naming the count and file. A `limit` that is not
    an integer raises ValueError, as does a mask space above it.

    The masks are numbered in itertools.product order, so mask j's entry p
    (p = i*width + col) is digit p of j in base 2^w, the w bits from w*(size
    - 1 - p) up, size = k*width, and row i of mask j is digit group i of j
    in base 2^(w*width). One list per row value is made, and expect[j]
    holds mask j's k rows as references to them. A caller's builder gets
    fresh copies of those rows for each file, so one that edits what it is
    handed is still judged against the mask; the built-in assembly gets
    the mask's own rows, which it never edits, and copies only the rows it
    flips. Adding 1 to entry p flips the lowest bit of its digit, so node
    s's correct query for file m and mask j is mask j ^ shift[m][s],
    shift[m][s] the XOR of those bits over the node's selection 1s. While
    nothing is counted, a (mask j, file m) is judged by one comparison of
    its queries with [expect[j ^ t] for t in shift[m]], a list built by
    C-level map; only when that fails is each query compared with its
    expect[j ^ shift] and then held to the same test entry by entry: k
    rows of width entries each, holding the mask's entries in order (so
    tuple rows match too). When every query
    matches, node s's queries for file m are the masks permuted by j -> j ^
    shift[m][s], a bijection, so every file shows every node each mask
    exactly once: the multisets are equal and (True, True) follows with
    nothing counted. At the first (mask j, file m) that does not match,
    construction_ok is False and counting starts: each query before it
    counts once as its mask i ^ shift (all i < j, and i = j for files
    before m), and every query from it on counts by its entries, row after
    row, so multisets_ok is the verdict of counting every query.
    """
    _check_limit("limit", limit)
    k, n = code.k, code.n
    perm, slots = _layout(k, e, f, pi, z)
    beta = e.beta
    order = code.field.order
    width = beta * f
    size = k * width
    total = order ** size
    if total > limit:
        raise ValueError(f"exact check needs {total} mask enumerations, above the limit {limit}")
    w = code.field.width
    flips = {m: _selection_flips(k, beta, m, perm, slots) for m in range(1, f + 1)}
    shift = {m: [0] * n for m in flips}
    for m, nodes in flips.items():
        for l, node in enumerate(nodes):
            for i, col in node:
                shift[m][l] ^= 1 << w * (size - 1 - i * width - col)
    rows = [list(row) for row in itertools.product(range(order), repeat=width)]
    expect = [list(mask) for mask in itertools.product(rows, repeat=k)]
    lengths = [width] * k
    at = expect.__getitem__

    def flat(j: int) -> tuple[int, ...]:
        return tuple(chain.from_iterable(expect[j]))

    # per file, per node: query entries -> count, kept from the first mismatch on
    counters: dict[int, list[Counter]] | None = None
    for j, mask in enumerate(expect):
        for m, node_shift in shift.items():
            if builder is None:
                queries = _assemble(mask, n, flips[m])
            else:
                queries = builder([row.copy() for row in mask], m)
            if counters is None and queries == list(map(at, map(j.__xor__, node_shift))):
                continue
            if len(queries) < n:
                raise ProtocolViolationError(
                    f"builder returned {len(queries)} node queries for file {m}, expected {n}"
                )
            ok = counters is None and len(queries) == n
            for s in range(n):
                q = queries[s]
                if len(q) < k:
                    raise ProtocolViolationError(
                        f"builder returned {len(q)} rows at node {s} for file {m}, expected {k}"
                    )
                if ok and q != expect[j ^ node_shift[s]]:
                    ok = [*map(len, q)] == lengths and (
                        tuple(chain.from_iterable(q)) == flat(j ^ node_shift[s])
                    )
            if ok:
                continue
            if counters is None:
                # the queries so far matched: i < j, and i = j for the files before m
                counters = {
                    mm: [Counter(flat(i ^ t) for i in range(j + (mm < m))) for t in ts]
                    for mm, ts in shift.items()
                }
            for s, bucket in enumerate(counters[m]):
                bucket[tuple(chain.from_iterable(queries[s]))] += 1
    if counters is None:
        return True, True
    first = counters[1]
    return all(c == first for c in counters.values()), False


# trials drawn per _draw_values call in verify_privacy: _BLOCK_DRAWS mask
# entries rounded down to whole trials, and never fewer than _TRIAL_BLOCK
_TRIAL_BLOCK = 64
_BLOCK_DRAWS = 1 << 17
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS  # floor for the Lentz terms, as NR's FPMIN


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with df degrees of freedom.

    This is the regularized upper incomplete gamma Q(a, y) at a = df/2,
    y = x/2 (Numerical Recipes 6.2; DiDonato & Morris 1986): below y = a + 1
    by the power series of P = 1 - Q, above it by the continued fraction for
    Q in the modified Lentz form. The factor y^a e^-y / Gamma(a) is joined
    to the sum or fraction in logs, so at df = 2^16 - 1 nothing overflows
    or underflows before the result itself does.
    """
    a, y = df / 2, x / 2
    if y <= 0:
        return 1.0
    log_front = a * math.log(y) - y - math.lgamma(a)
    if y < a + 1:
        # P(a, y) = front * sum_n y^n / (a (a+1) ... (a+n))
        term = total = 1 / a
        denom = a
        while term > total * _EPS:
            denom += 1
            term *= y / denom
            total += term
        return 1 - math.exp(log_front + math.log(total))
    # Q(a, y) = front / (y+1-a - 1(1-a) / (y+3-a - 2(2-a) / (y+5-a - ...)))
    b = y + 1 - a
    c = 1 / _TINY
    d = h = 1 / b
    for i in itertools.count(1):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < _EPS:
            return math.exp(log_front + math.log(h))


def verify_privacy(
    code: LinearCode,
    e: EMatrix,
    f: int,
    trials: int,
    seed: int,
    pi: Sequence[int] | None = None,
    significance: float = 0.01,
    exact_limit: int = 1 << 16,
) -> PrivacyReport:
    """Check that queries reveal nothing about the requested file index.

    When the mask space is small enough, the exact check enumerates masks
    through the assembly `build_queries` uses. The statistical check always
    runs: `trials` seeded mask draws per file index and a chi-square
    uniformity test on every mask entry, whose p-value is the tail that
    _chi2_sf computes from the standard library. A node's query entry is
    the mask entry XOR a fixed 0/1 selection value, which only relabels
    histogram bins, so each entry's one statistic is shared by every node;
    the Bonferroni correction still counts a test per entry of every node's
    query. A test checks, at fixture size, that a QuerySet's answers are
    those of queries assembled this way, against the tests' own selection
    grids. Each entry counts only the values drawn, so the counters follow
    `trials`, not the field order.

    The masks are the ones rng.randrange(order) per entry would give, in
    trial, row, column order from random.Random(seed): _draw_values fetches
    them a block of whole trials at a time, about _BLOCK_DRAWS entries but
    at least _TRIAL_BLOCK trials, and leaves the generator where those
    calls would. A block holds one byte per entry up to order 2^7 and four
    above it, and each entry's values in it are counted by one
    Counter.update of a strided slice, so the draws held at once follow
    the block, max(_BLOCK_DRAWS, _TRIAL_BLOCK * k*beta*f), not `trials`.
    Raises ValueError unless `trials` is an int of at least 1, `exact_limit`
    is an int and 0 < significance < 1.
    """
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials {trials!r} is not an integer of at least 1")
    _check_limit("exact_limit", exact_limit)
    if not 0 < significance < 1:
        raise ValueError(f"significance {significance!r} outside the open interval (0, 1)")

    k, n = code.k, code.n
    order = code.field.order
    width = e.beta * f
    # the statistic ignores the layout, but a malformed one is still an error
    _layout(k, e, f, pi, None)

    exact_performed = order ** (k * width) <= exact_limit
    multisets_ok = construction_ok = None
    if exact_performed:
        multisets_ok, construction_ok = exact_privacy_check(
            code, e, f, pi=pi, limit=exact_limit
        )

    rng = random.Random(seed)
    entries = k * width
    block = max(_TRIAL_BLOCK, _BLOCK_DRAWS // entries)
    tests = f * n * entries
    never_drawn = trials * trials  # numerator share of each bin no draw hit
    p_values: dict[float, float] = {}
    min_p = 1.0
    for m in range(1, f + 1):
        # per mask entry, a counter per value drawn: at most `trials` counters
        counts = [Counter() for _ in range(entries)]
        for start in range(0, trials, block):
            # one trial's masks are `entries` consecutive draws, entry-major
            drawn = _draw_values(rng, order, min(block, trials - start) * entries)
            for c, cell in enumerate(counts):
                cell.update(drawn[c::entries])
        for cell in counts:
            # sum over all bins of (c - trials/order)^2 / (trials/order), as
            # an exact integer over order * trials, rounded once; while
            # trials * 2^w < 2^26 a float sum of the terms is exact, so the
            # oracle's dense float sum gives the same value
            num = sum((c * order - trials) ** 2 for c in cell.values())
            stat = (num + (order - len(cell)) * never_drawn) / (order * trials)
            p = p_values.get(stat)
            if p is None:
                p = p_values[stat] = _chi2_sf(stat, order - 1)
            if p < min_p:
                min_p = p
    threshold = significance / tests
    return PrivacyReport(
        exact_performed=exact_performed,
        exact_multisets_ok=multisets_ok,
        exact_construction_ok=construction_ok,
        trials=trials,
        tests=tests,
        min_p_value=min_p,
        significance=significance,
        per_test_threshold=threshold,
        statistical_ok=min_p >= threshold,
    )


def random_file(field, beta: int, k: int, ell: int, rng: random.Random) -> PackedFile:
    """A beta x k file matrix of uniformly random symbols, packed: drawn as
    rng.randrange(field.order) per component would draw them (_draws), one
    stripe at a time."""
    pack = bit_slices(field, ell).pack
    payloads = []
    for _ in range(beta):
        drawn = _draws(rng, field.order, k * ell)
        payloads.extend(pack(drawn[i * ell : (i + 1) * ell]) for i in range(k))
    return PackedFile(field, ell, k, payloads)
