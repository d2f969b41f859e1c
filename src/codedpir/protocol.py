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

Files, stored columns and responses are packed by codes.pack_symbols, which
names a misfit symbol by its position: ValueError for files and stored
columns, ProtocolViolationError for responses.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Iterable, Sequence

from .algebra import (
    FieldMatrix,
    SingularSystemError,
    bit_slices,
    coefficient_bits,
    combine,
    solve,
)
from .codes import LinearCode, StorageSymbol, encode_file, pack_symbols
from .optimizer import EMatrix


class ProtocolViolationError(RuntimeError):
    """Responses or query structure are inconsistent with the protocol."""


# bytes.translate table: 1 for a word's top byte with bit 7 (the word's bit 31) clear
_CLEAR_TOP = bytes(b < 0x80 for b in range(256))
_CHUNK = 1 << 14  # words fetched per getrandbits call at most


def _draws(rng: random.Random, order: int, count: int) -> list[int]:
    """Exactly [rng.randrange(order) for _ in range(count)], leaving rng in
    exactly the state those calls leave it in; `order` is a power of two up
    to 2^31.

    On CPython, randrange(2^w) is getrandbits(w + 1), which keeps the top
    w + 1 bits of one 32-bit Mersenne Twister word, redrawn while the top
    bit is set. The stream is therefore the words whose bit 31 is clear,
    each read at bits 30 .. 31 - w. Each chunk fetches at most as many
    words as draws are still owed (one getrandbits(32 * need), first word
    lowest), so no word past the last one randrange would read is taken.
    The words are shifted and masked as one int, viewed as an array of
    32-bit words, and the kept ones picked by flags from their top bytes.
    """
    if not 0 < order <= 1 << 31 or order & (order - 1):
        raise ValueError(f"draw order {order} is not a power of two up to 2^31")
    shift = 32 - order.bit_length()
    lane = (order - 1).to_bytes(4, "little")
    out: list[int] = []
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


@dataclass(frozen=True)
class StorageArray:
    """Encoded contents of the whole system: beta*f rows by n columns.

    Rows are grouped file-major, stripe-minor; column j is what node j + 1
    stores (f coded chunks of beta symbols each).
    """

    code: LinearCode
    beta: int
    f: int
    rows: tuple[tuple[StorageSymbol, ...], ...]

    @property
    def ell(self) -> int:
        """Payload length of the stored symbols; ValueError when none is stored."""
        if not self.rows or not self.rows[0]:
            raise ValueError("storage array holds no symbols, so it has no payload length")
        return self.rows[0][0].ell

    def node_column(self, node: int) -> tuple[StorageSymbol, ...]:
        """Symbols held by one node; `node` is 1-based like the queries."""
        if not 1 <= node <= self.code.n:
            raise ValueError(f"node {node} out of 1..{self.code.n}")
        j = node - 1
        return tuple(row[j] for row in self.rows)


@dataclass(frozen=True)
class QuerySet:
    """Everything the user generated for one retrieval.

    q[l - 1] is the k x (beta*f) query matrix for node l. z[i][l] gives the
    stripe slot (1..beta) that subquery i + 1 draws from node l + 1, or 0
    when that subquery does not select node l + 1; pi permutes the slots
    into actual stripe indices and fixes 0.
    """

    m: int
    f: int
    beta: int
    u: FieldMatrix
    q: tuple[FieldMatrix, ...]
    e: EMatrix
    pi: tuple[int, ...]
    z: tuple[tuple[int, ...], ...]

    def v_block(self, l: int) -> FieldMatrix:
        """The k x beta selection block of node l's query (l in 1..k)."""
        k = len(self.z)
        if not 1 <= l <= k:
            raise ValueError(f"only the first {k} nodes carry a selection block")
        rows = [[0] * self.beta for _ in range(k)]
        for (node, i), col in _selection_offsets(k, self.beta, 1, self.pi, self.z).items():
            if node == l - 1:
                rows[i][col] = 1
        return FieldMatrix(self.u.field, rows)


@dataclass(frozen=True)
class ResponseSet:
    """One column vector of d = k symbols per node, in node order."""

    responses: tuple[tuple[StorageSymbol, ...], ...]


def build_storage(code: LinearCode, files: Sequence[Sequence[Sequence[StorageSymbol]]]) -> StorageArray:
    """Encode every stripe of every file and stack the codeword rows.

    Raises ValueError when there is no file or a file is not beta x k (beta
    taken from file 1), and names a misfit symbol ("file 1, stripe 2, symbol 3").
    encode_file checks and packs each symbol once; the symbols are checked
    again, file by file, only when it has found a misfit.
    """
    if not files:
        raise ValueError("need at least one file")
    beta = len(files[0])
    k = code.k
    for idx, file_matrix in enumerate(files):
        if len(file_matrix) != beta or any(len(r) != k for r in file_matrix):
            raise ValueError(f"file {idx + 1} is not a {beta} x {k} matrix")
    stripes = [row for file_matrix in files for row in file_matrix]
    try:
        encoded = encode_file(code, stripes)
    except ValueError as err:
        error = err
    else:
        return StorageArray(code=code, beta=beta, f=len(files), rows=tuple(map(tuple, encoded)))
    # encode_file names a misfit by stripe; check again to name it by file
    pack_symbols(
        [sym for row in stripes for sym in row],
        code.field,
        lambda i: f"file {i // (beta * k) + 1}, stripe {i // k % beta + 1}, symbol {i % k + 1}",
        ValueError,
    )
    raise error


def _canonical_slots(e: EMatrix) -> list[list[int]]:
    """Default stripe-slot assignment: rank order down each column.

    Column l lists its selected rows in increasing order and hands them
    slots 1..beta. Every column therefore uses each slot exactly once,
    which makes the beta*k recovered coordinates automatically distinct.
    """
    k = e.k
    z = [[0] * k for _ in range(k)]
    for l in range(k):
        slot = 0
        for i in range(k):
            if e.rows[i][l]:
                slot += 1
                z[i][l] = slot
    return z


def _validate_slots(e: EMatrix, z: Sequence[Sequence[int]]) -> list[list[int]]:
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
    return grid


def _validate_pi(pi: Sequence[int], beta: int) -> tuple[int, ...]:
    perm = tuple(int(x) for x in pi)
    if len(perm) != beta + 1 or perm[0] != 0 or sorted(perm) != list(range(beta + 1)):
        raise ValueError(f"pi must permute 0..{beta} and fix 0")
    return perm


def _selection_offsets(
    k: int, beta: int, m: int, pi: Sequence[int], z: Sequence[Sequence[int]]
) -> dict[tuple[int, int], int]:
    """(node, row) -> column of every selection 1, all 0-based.

    Subquery i selecting systematic node l puts a 1 in row i of node l's
    query, at the column of stripe pi[z[i][l]] of file m.
    """
    base = (m - 1) * beta - 1
    return {(l, i): base + pi[z[i][l]] for l in range(k) for i in range(k) if z[i][l]}


def _layout(
    k: int, e: EMatrix, f: int, pi: Sequence[int] | None, z: Sequence[Sequence[int]] | None
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Validated (pi, z) of access matrix e for f files on a code with k
    message nodes; None picks the identity and the canonical slots.

    Raises ValueError when e is not k x k, f < 1, or pi or z is malformed.
    """
    if e.k != k:
        raise ValueError(f"access matrix is {e.k} x {e.k}, code needs {k} x {k}")
    if f < 1:
        raise ValueError("need at least one file")
    perm = _validate_pi(pi, e.beta) if pi is not None else tuple(range(e.beta + 1))
    slots = _validate_slots(e, z) if z is not None else _canonical_slots(e)
    return perm, slots


def _assemble(
    u_rows: list[list[int]], n: int, k: int, offsets: dict[tuple[int, int], int]
) -> list[list[list[int]]]:
    """Every node's query rows: the mask plus the selection 1s in `offsets`.

    The selection puts at most one 1 in each row, so a systematic node
    shares the mask's rows except those it flips; parity nodes all get the
    mask's own row list.
    """
    queries = [list(u_rows) for _ in range(k)]
    for (l, i), col in offsets.items():
        row = queries[l][i] = u_rows[i].copy()
        row[col] ^= 1
    queries.extend([u_rows] * (n - k))
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
    """Draw the mask and assemble all n query matrices for file m.

    pi may be any permutation of 0..beta fixing 0; z may override the
    canonical stripe-slot assignment as long as each column of the access
    matrix still uses each slot exactly once. Both default to choices that
    tests can reproduce, and recovery works for any valid override.
    """
    k, n = code.k, code.n
    perm, slots = _layout(k, e, f, pi, z)
    if not 1 <= m <= f:
        raise ValueError(f"file index {m} out of 1..{f}")
    beta = e.beta
    field = code.field
    width = beta * f
    drawn = _draws(random.Random(seed), field.order, k * width)
    u_rows = [drawn[i * width : (i + 1) * width] for i in range(k)]
    u = FieldMatrix._wrap(field, u_rows)
    rows = _assemble(u_rows, n, k, _selection_offsets(k, beta, m, perm, slots))
    # nodes handed the mask's own rows (the parity nodes) share the one u
    queries = [u if r is u_rows else FieldMatrix._wrap(field, r) for r in rows]
    return QuerySet(
        m=m,
        f=f,
        beta=beta,
        u=u,
        q=tuple(queries),
        e=e,
        pi=perm,
        z=tuple(tuple(r) for r in slots),
    )


def _stack(payloads: Iterable[int], stride: int) -> int:
    """Payloads side by side in one int, payload i at byte offset i * stride."""
    return int.from_bytes(b"".join(v.to_bytes(stride, "little") for v in payloads), "little")


def _unstack(v: int, stride: int, count: int) -> list[int]:
    """The `count` payloads _stack put together."""
    raw = v.to_bytes(stride * count, "little")
    return [int.from_bytes(raw[i : i + stride], "little") for i in range(0, stride * count, stride)]


def _answers(
    field, ell: int, queries: Sequence[list[list[int]]], columns: Sequence[list[int]]
) -> list[list[int]]:
    """Packed payloads of queries[j] times columns[j], for every node j.

    queries[j] holds node j's query rows as raw values and columns[j] its
    stored payloads, all over `field` with length `ell`. A row object that
    several nodes hold is multiplied once, against every node's expanded
    column stacked into one int per entry (_stack, a stride of w*ell bits
    rounded up to whole bytes), and each holder's answer is sliced out of
    the product. A row only one node holds is multiplied against that
    node's own column. Rows that are equal but separate objects are not
    shared.
    """
    slices = bit_slices(field, ell)
    width = field.width
    stride = (width * ell + 7) // 8
    expanded = [slices.expand(col) for col in columns]
    holders = Counter(chain.from_iterable(set(map(id, rows)) for rows in queries))
    shared: dict[int, list[int]] = {}
    stacked = None
    out = []
    for j, (rows, column) in enumerate(zip(queries, expanded)):
        answer = []
        for row in rows:
            if holders[id(row)] == 1:
                answer.append(combine(column, coefficient_bits(width, row)))
                continue
            products = shared.get(id(row))
            if products is None:
                if stacked is None:
                    stacked = [_stack(entries, stride) for entries in zip(*expanded)]
                product = combine(stacked, coefficient_bits(width, row))
                products = shared[id(row)] = _unstack(product, stride, len(columns))
            answer.append(products[j])
        out.append(answer)
    return out


def node_response(q_j: FieldMatrix, node_column: Sequence[StorageSymbol]) -> list[StorageSymbol]:
    """One node's answer: its query matrix times its symbol column.

    Raises ValueError when the query's column count is not the number of
    stored symbols, and names a misfit symbol ("stored symbol 3").
    """
    if q_j.ncols != len(node_column):
        raise ValueError(
            f"query has {q_j.ncols} columns but the node stores {len(node_column)} symbols"
        )
    field = q_j.field
    ell, payloads = pack_symbols(node_column, field, lambda i: f"stored symbol {i + 1}", ValueError)
    (answer,) = _answers(field, ell, [q_j._rows], [payloads])
    return [StorageSymbol._of(field, ell, v) for v in answer]


def collect_responses(qs: QuerySet, array: StorageArray) -> ResponseSet:
    """Every node's answer to its query, computed for all nodes at once.

    The answers are node_response's, but a query row object that several
    nodes share is multiplied only once: the mask rows every parity node
    holds, and that each systematic node keeps wherever its selection does
    not flip an entry. Each such row is applied to all n stored columns
    stacked side by side, and every node's answer sliced out of the one
    product; a row held by one node is applied to its column alone.
    Raises ValueError when the shapes of queries and array disagree, and
    names a misfit symbol ("node 5, stored symbol 2").
    """
    if array.beta != qs.beta or array.f != qs.f:
        raise ValueError("query set and storage array disagree on beta or f")
    n = array.code.n
    if len(qs.q) != n:
        raise ValueError(f"query set has {len(qs.q)} node queries, the code has {n} nodes")
    field = array.code.field
    nrows = len(array.rows)
    for j, q in enumerate(qs.q):
        if q.ncols != nrows:
            raise ValueError(f"query has {q.ncols} columns but the node stores {nrows} symbols")
        if q.field != field:
            raise ValueError(f"node {j + 1}: query over another field than the code")
    for i, row in enumerate(array.rows):
        if len(row) != n:
            raise ValueError(f"storage row {i + 1} holds {len(row)} symbols, the code has {n} nodes")
    ell, payloads = pack_symbols(
        list(chain.from_iterable(array.rows)),
        field,
        lambda i: f"node {i % n + 1}, stored symbol {i // n + 1}",
        ValueError,
    )
    columns = [payloads[j::n] for j in range(n)]
    answers = _answers(field, ell, [q._rows for q in qs.q], columns)
    return ResponseSet(
        responses=tuple(
            tuple(StorageSymbol._of(field, ell, v) for v in answer) for answer in answers
        )
    )


def recover_file(qs: QuerySet, rs: ResponseSet, code: LinearCode) -> list[list[StorageSymbol]]:
    """Reconstruct the requested beta x k file matrix from the responses.

    Subquery t's answers y are the interference w, a codeword, plus file
    symbol x_l on each systematic node l in S_t, the support of row t of
    the access matrix. Every node's k payloads are stacked into one int, so
    one pass over P gives the parity syndromes s_t = P y_sys + y_par of all
    k subqueries. The interference cancels in characteristic 2, leaving
    s_t = P[:, S_t] x_{S_t}; one solve per subquery then yields the
    selected file symbols. That system has full column rank exactly when
    row t is a correctable erasure pattern, and the syndrome must lie in
    the span of P[:, S_t]: a response that moves it out of that span is
    reported as inconsistent. ProtocolViolationError names a node whose
    response is not a sequence of k symbols, and a misfit symbol ("node 3,
    subquery 2").
    """
    k = code.k
    beta = qs.beta
    if beta >= k:
        raise ProtocolViolationError(
            f"stripe count {beta} must stay below k={k}; no subquery may select every node"
        )
    if qs.e.beta != beta:
        raise ProtocolViolationError(
            f"query set: stripe count {beta}, but its access matrix has weight {qs.e.beta}"
        )
    try:
        _layout(k, qs.e, qs.f, qs.pi, qs.z)
    except ValueError as exc:
        raise ProtocolViolationError(f"query set: {exc}") from exc
    n = code.n
    if len(rs.responses) != n:
        raise ProtocolViolationError(f"expected responses from {n} nodes, got {len(rs.responses)}")
    for j, resp in enumerate(rs.responses):
        if not isinstance(resp, Sequence):
            raise ProtocolViolationError(
                f"node {j + 1}: response is a {type(resp).__name__}, not a sequence of symbols"
            )
        if len(resp) != k:
            raise ProtocolViolationError(
                f"node {j + 1}: {len(resp)} symbols for {k} subqueries"
                + (f" (subquery {len(resp) + 1} unanswered)" if len(resp) < k else "")
            )
    field = code.field
    ell, payloads = pack_symbols(
        list(chain.from_iterable(rs.responses)),
        field,
        lambda i: f"node {i // k + 1}, subquery {i % k + 1}",
        ProtocolViolationError,
    )
    width = field.width
    slices = bit_slices(field, ell)
    stride = (width * ell + 7) // 8
    p_rows = code.p._rows
    # x^b times node l's k payloads, stacked over the subqueries: entry l*w + b
    stacked = []
    for l in range(k):
        expanded = slices.expand(payloads[l * k : (l + 1) * k])
        stacked.extend(_stack(expanded[b::width], stride) for b in range(width))
    syndromes = [
        _unstack(
            _stack(payloads[(k + r) * k : (k + r + 1) * k], stride)
            ^ combine(stacked, coefficient_bits(width, prow)),
            stride,
            k,
        )
        for r, prow in enumerate(p_rows)
    ]
    grid: list[list[StorageSymbol | None]] = [[None] * k for _ in range(beta)]
    for t in range(k):
        chosen = qs.e.rows[t]
        selected = [l for l in range(k) if chosen[l]]
        A = FieldMatrix._wrap(field, [list(compress(prow, chosen)) for prow in p_rows])
        rhs = [[StorageSymbol._of(field, ell, s[t])] for s in syndromes]
        try:
            symbols = solve(A, rhs)
        except SingularSystemError as exc:
            raise ProtocolViolationError(
                f"subquery {t + 1}: interference system is singular (rank {exc.rank}); "
                "the access pattern is not correctable or responses are inconsistent"
            ) from exc
        except ValueError as exc:
            raise ProtocolViolationError(
                f"subquery {t + 1}: parity responses are inconsistent with each other"
            ) from exc
        for l, (sym,) in zip(selected, symbols):
            stripe = qs.pi[qs.z[t][l]]
            if grid[stripe - 1][l] is not None:
                raise ProtocolViolationError(
                    f"coordinate (stripe {stripe}, column {l + 1}) recovered twice"
                )
            grid[stripe - 1][l] = sym
    for row in grid:
        if any(sym is None for sym in row):
            raise ProtocolViolationError("recovery left gaps in the file matrix")
    return [list(row) for row in grid]  # type: ignore[arg-type]


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


def exact_privacy_check(
    code: LinearCode,
    e: EMatrix,
    f: int,
    pi: Sequence[int] | None = None,
    z: Sequence[Sequence[int]] | None = None,
    limit: int = 1 << 16,
    builder: Callable[[list[list[int]], int], Sequence[Sequence[Sequence[int]]]] | None = None,
) -> tuple[bool, bool]:
    """Enumerate every mask and compare query distributions across files.

    Returns (multisets_ok, construction_ok). The first is the privacy
    statement itself: at every node, the multiset of query matrices over
    all masks is identical no matter which file is requested. The second
    pins the construction: for every mask, node l's query must be the mask
    with exactly file m's selection 1s added (the bare mask past node k),
    which catches bugs like selection leaking into parity queries. Masks go
    through the assembly `build_queries` uses unless `builder` replaces it;
    a builder that returns fewer than n node queries, or a query with fewer
    than k rows, raises ProtocolViolationError naming the count and file.
    """
    k, n = code.k, code.n
    perm, slots = _layout(k, e, f, pi, z)
    beta = e.beta
    order = code.field.order
    width = beta * f
    total = order ** (k * width)
    if total > limit:
        raise ValueError(f"exact check needs {total} mask enumerations, above the limit {limit}")
    offsets = {m: _selection_offsets(k, beta, m, perm, slots) for m in range(1, f + 1)}

    def is_mask_plus_selection(queries, u_rows: list[list[int]], m: int) -> bool:
        # node l's row i with file m's selection 1 (if any) taken out is U's row i
        if len(queries) != n:
            return False
        for l, q in enumerate(queries):
            if len(q) != k:
                return False
            for i, (row, u_row) in enumerate(zip(q, u_rows)):
                row = list(row)
                col = offsets[m].get((l, i))
                if col is not None and col < len(row):
                    row[col] ^= 1
                if row != u_row:
                    return False
        return True

    build = builder or (lambda u_rows, m: _assemble(u_rows, n, k, offsets[m]))
    counters: dict[int, list[dict[tuple[int, ...], int]]] = {
        m: [dict() for _ in range(n)] for m in range(1, f + 1)
    }
    construction_ok = True
    for flat in itertools.product(range(order), repeat=k * width):
        u_rows = [list(flat[i * width : (i + 1) * width]) for i in range(k)]
        for m in range(1, f + 1):
            queries = build(u_rows, m)
            if len(queries) < n:
                raise ProtocolViolationError(
                    f"builder returned {len(queries)} node queries for file {m}, expected {n}"
                )
            if construction_ok:
                construction_ok = is_mask_plus_selection(queries, u_rows, m)
            for s in range(n):
                if len(queries[s]) < k:
                    raise ProtocolViolationError(
                        f"builder returned {len(queries[s])} rows at node {s} for file {m}, "
                        f"expected {k}"
                    )
                key = tuple(itertools.chain.from_iterable(queries[s]))
                bucket = counters[m][s]
                bucket[key] = bucket.get(key, 0) + 1
    first = counters[1]
    multisets_ok = all(counters[m] == first for m in range(2, f + 1))
    return multisets_ok, construction_ok


_TRIAL_BLOCK = 64  # trials drawn per _draws call in verify_privacy


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
    uniformity test on every mask entry. A node's query entry is the mask
    entry XOR a fixed 0/1 selection value, which only relabels histogram
    bins, so each entry's one statistic is shared by every node; the
    Bonferroni correction still counts a test per entry of every node's
    query. That queries are assembled this way at fixture size is covered
    by the `QuerySet` construction test. Each entry counts only the values
    drawn, so time and memory follow `trials`, not the field order.

    The masks are the ones rng.randrange(order) per entry would give, in
    trial, row, column order from random.Random(seed): _draws fetches them
    a block of trials at a time and leaves the generator where those calls
    would.
    Raises ValueError unless 0 < significance < 1.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 < significance < 1:
        raise ValueError(f"significance {significance!r} outside the open interval (0, 1)")
    from scipy.stats import chi2 as _chi2

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
    tests = f * n * entries
    never_drawn = trials * trials  # numerator share of each bin no draw hit
    p_values: dict[float, float] = {}
    min_p = 1.0
    for m in range(1, f + 1):
        # per mask entry, a counter per value drawn: at most `trials` counters
        counts = [Counter() for _ in range(entries)]
        for start in range(0, trials, _TRIAL_BLOCK):
            # one trial's masks are `entries` consecutive draws, entry-major
            drawn = _draws(rng, order, min(_TRIAL_BLOCK, trials - start) * entries)
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
                p = p_values[stat] = float(_chi2.sf(stat, order - 1))
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


def random_file(field, beta: int, k: int, ell: int, rng: random.Random) -> list[list[StorageSymbol]]:
    """A beta x k file matrix of uniformly random symbols, drawn as
    rng.randrange(field.order) per component would draw them (_draws), one
    stripe at a time."""
    file = []
    for _ in range(beta):
        drawn = _draws(rng, field.order, k * ell)
        file.append([StorageSymbol(field, drawn[i * ell : (i + 1) * ell]) for i in range(k)])
    return file
