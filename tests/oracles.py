"""Self-contained reference implementations used only by the tests.

Everything here is deliberately independent of the package under test:
tiny hardcoded field tables, peasant multiplication, cofactor determinants,
and plain enumeration. Slow but obviously correct.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

# GF(4) with modulus x^2 + x + 1: elements 0..3
_GF4_MUL = {
    (a, b): v
    for a, row in enumerate([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
    for b, v in enumerate(row)
}


class TinyField:
    """Hand-rolled GF(2) or GF(4) arithmetic for oracle use."""

    def __init__(self, order: int):
        assert order in (2, 4)
        self.order = order

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        if self.order == 2:
            return a & b
        return _GF4_MUL[(a, b)]

    def inv(self, a):
        assert a != 0
        for b in range(1, self.order):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError


def peasant_mul(a: int, b: int, modulus: int, width: int) -> int:
    """Shift-and-add product in GF(2^width), reduced bit by bit."""
    acc = 0
    for i in range(width):
        if (b >> i) & 1:
            acc ^= a << i
    top = modulus.bit_length() - 1
    for i in range(2 * width - 2, top - 1, -1):
        if (acc >> i) & 1:
            acc ^= modulus << (i - top)
    return acc


def det(rows, field: TinyField) -> int:
    """Cofactor-expansion determinant over a tiny field."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        total ^= field.mul(rows[0][j], det(minor, field))  # char 2: signs vanish
    return total


def brute_rank(rows, field: TinyField) -> int:
    """Size of the largest square submatrix with nonzero determinant."""
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for rsel in itertools.combinations(range(nr), size):
            for csel in itertools.combinations(range(nc), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det(sub, field) != 0:
                    return size
    return 0


def nullspace_vectors(p_rows, field: TinyField) -> list[tuple[int, ...]]:
    """All vectors x with P x = 0, via own elimination then enumeration."""
    nr, nc = len(p_rows), len(p_rows[0])
    a = [list(r) for r in p_rows]
    pivots = []
    piv = 0
    for col in range(nc):
        sel = next((r for r in range(piv, nr) if a[r][col]), None)
        if sel is None:
            continue
        a[piv], a[sel] = a[sel], a[piv]
        ic = field.inv(a[piv][col])
        a[piv] = [field.mul(ic, x) for x in a[piv]]
        for r in range(nr):
            if r != piv and a[r][col]:
                m = a[r][col]
                a[r] = [x ^ field.mul(m, y) for x, y in zip(a[r], a[piv])]
        pivots.append(col)
        piv += 1
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fcol in free:
        v = [0] * nc
        v[fcol] = 1
        for i, p in enumerate(pivots):
            v[p] = a[i][fcol]
        basis.append(v)
    words = []
    for coeffs in itertools.product(range(field.order), repeat=len(basis)):
        w = [0] * nc
        for c, vec in zip(coeffs, basis):
            if c:
                w = [x ^ field.mul(c, y) for x, y in zip(w, vec)]
        words.append(tuple(w))
    return words


def support_mask(vec) -> int:
    m = 0
    for i, v in enumerate(vec):
        if v:
            m |= 1 << i
    return m


def ml_correctable_oracle(codeword_masks, pattern_support_mask: int) -> bool:
    """Erasure pattern is correctable iff no two distinct codewords agree on
    every non-erased position; for a linear code that means no nonzero
    codeword lives entirely inside the erased set."""
    for mask in codeword_masks:
        if mask and mask & ~pattern_support_mask == 0:
            return False
    return True


def min_weight_oracle(p_rows, n: int, k: int, field: TinyField) -> int:
    """Minimum codeword weight by enumerating all q^k messages of (x | Px)."""
    best = n + 1
    for msg in itertools.product(range(field.order), repeat=k):
        if not any(msg):
            continue
        w = sum(1 for v in msg if v)
        for prow in p_rows:
            s = 0
            for c, x in zip(prow, msg):
                if c and x:
                    s ^= field.mul(c, x)
            if s:
                w += 1
        if w < best:
            best = w
    return best


# -- per-component protocol maps ---------------------------------------------
#
# The package runs encoding, responses and recovery on bit-sliced payloads.
# These are the same three maps written one payload component at a time,
# on plain component tuples, with peasant multiplication.


class PeasantField:
    """GF(2^width) from a modulus alone: shift-and-add products, Fermat inverse."""

    def __init__(self, modulus: int, width: int):
        self.modulus, self.width = modulus, width
        self.order = 1 << width

    def mul(self, a: int, b: int) -> int:
        return peasant_mul(a, b, self.modulus, self.width)

    def inv(self, a: int) -> int:
        assert a != 0
        result, e = 1, (1 << self.width) - 2
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


def combine_components(coeffs, vectors, field) -> tuple[int, ...]:
    """sum_s coeffs[s] * vectors[s], component by component."""
    acc = [0] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            acc = [a ^ field.mul(c, x) for a, x in zip(acc, vec)]
    return tuple(acc)


def encode_oracle(p_rows, file_rows, field):
    """Codeword rows (x | P x) of a file given as component tuples."""
    return [list(row) + [combine_components(prow, row, field) for prow in p_rows] for row in file_rows]


def response_oracle(q_rows, column, field):
    """A node's answer: its query rows times its stored component tuples."""
    return [combine_components(qrow, column, field) for qrow in q_rows]


def solve_components(a_rows, b_rows, field):
    """Gauss-Jordan solve of A X = B with B's entries component tuples.

    A must have full column rank and the system must be consistent.
    """
    a = [list(r) for r in a_rows]
    b = [list(r) for r in b_rows]
    nrows, ncols = len(a), len(a[0])
    piv = 0
    for col in range(ncols):
        sel = next((r for r in range(piv, nrows) if a[r][col]), None)
        assert sel is not None, "rank-deficient system"
        a[piv], a[sel] = a[sel], a[piv]
        b[piv], b[sel] = b[sel], b[piv]
        ic = field.inv(a[piv][col])
        a[piv] = [field.mul(ic, x) for x in a[piv]]
        b[piv] = [tuple(field.mul(ic, c) for c in x) for x in b[piv]]
        for r in range(nrows):
            if r != piv and a[r][col]:
                m = a[r][col]
                a[r] = [x ^ field.mul(m, y) for x, y in zip(a[r], a[piv])]
                b[r] = [
                    tuple(c ^ field.mul(m, d) for c, d in zip(x, y)) for x, y in zip(b[r], b[piv])
                ]
        piv += 1
    assert not any(any(x) for r in b[ncols:] for x in r), "inconsistent system"
    return b[:ncols]


def recover_oracle(p_rows, e_rows, pi, z, beta, responses, field):
    """The beta x k file of component tuples, from responses[node][subquery]."""
    k = len(e_rows)
    grid = [[None] * k for _ in range(beta)]
    for t in range(k):
        selected = [l for l in range(k) if e_rows[t][l]]
        rhs = []
        for r, prow in enumerate(p_rows):
            acc = responses[k + r][t]
            for l in range(k):
                if l not in selected and prow[l]:
                    scaled = [field.mul(prow[l], x) for x in responses[l][t]]
                    acc = tuple(a ^ s for a, s in zip(acc, scaled))
            rhs.append([acc])
        a_rows = [[prow[l] for l in selected] for prow in p_rows]
        noise = solve_components(a_rows, rhs, field)
        for idx, l in enumerate(selected):
            stripe = pi[z[t][l]]
            grid[stripe - 1][l] = tuple(a ^ b for a, b in zip(responses[l][t], noise[idx][0]))
    return grid


# -- randomized pattern listing ----------------------------------------------
#
# The package lists patterns on support masks, with greedy pivot insertion
# and a reduced-column independence test. This is the same listing written
# the direct way: a full row reduction of the column-permuted parity-check
# matrix per round, and a fresh rank computation per cyclic shift, on plain
# rows.


def _gf2_rank(vectors) -> int:
    """Rank of GF(2) vectors given as bitmask ints."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return len(rows)


def column_rank(p_rows, support, field: TinyField) -> int:
    """Rank of the columns of P that `support` lists."""
    if field.order == 2:
        return _gf2_rank(support_mask([row[j] for row in p_rows]) for j in support)
    sub = [[row[j] for j in support] for row in p_rows]
    return len(pivot_columns(sub, field)) if support else 0


def rref_oracle(rows, field) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """(R, rank, pivot columns) of the reduced row echelon form, one entry at a time.

    `field` is a TinyField or PeasantField; pivoting picks the first row
    with a nonzero entry in the current column.
    """
    a = [list(r) for r in rows]
    nr, nc = len(a), len(a[0])
    pivots = []
    piv = 0
    for col in range(nc):
        sel = next((r for r in range(piv, nr) if a[r][col]), None)
        if sel is None:
            continue
        a[piv], a[sel] = a[sel], a[piv]
        ic = field.inv(a[piv][col])
        a[piv] = [field.mul(ic, x) for x in a[piv]]
        for r in range(nr):
            if r != piv and a[r][col]:
                m = a[r][col]
                a[r] = [x ^ field.mul(m, y) for x, y in zip(a[r], a[piv])]
        pivots.append(col)
        piv += 1
        if piv == nr:
            break
    return a, len(pivots), tuple(pivots)


def pivot_columns(rows, field: TinyField) -> list[int]:
    """Leading-one columns of the reduced row echelon form, in order."""
    return list(rref_oracle(rows, field)[2])


def min_distance_oracle(rows, field) -> int | None:
    """Size of the smallest linearly dependent set of columns, trying every
    column subset in order of size; None when all columns are independent.

    `field` is a TinyField or PeasantField; ranks come from rref_oracle.
    """
    ncols = len(rows[0])
    for size in range(1, ncols + 1):
        for sub in itertools.combinations(range(ncols), size):
            if rref_oracle([[row[j] for j in sub] for row in rows], field)[1] < size:
                return size
    return None


def independent_subsets_oracle(rows, beta, field) -> set[int]:
    """Support masks of every independent beta-subset of the columns.

    Column j of a k-column matrix is bit k-1-j, as in ErasurePattern.mask;
    every C(k, beta) subset is ranked by rref_oracle.
    """
    k = len(rows[0])
    return {
        sum(1 << (k - 1 - j) for j in sub)
        for sub in itertools.combinations(range(k), beta)
        if rref_oracle([[row[j] for j in sub] for row in rows], field)[1] == beta
    }


def shift_period_oracle(p_rows, field) -> int:
    """Smallest s in 1..k whose column rotation keeps P's row space.

    Tries every s, divisor of k or not, and compares the rank of P stacked
    on its rotation with the rank of P, by this module's own elimination
    over a TinyField or PeasantField.
    """
    k = len(p_rows[0])

    def rank(rows):
        if field.order == 2:
            return _gf2_rank(support_mask(row) for row in rows)
        return len(pivot_columns(rows, field))

    base = rank(p_rows)
    for s in range(1, k + 1):
        rotated = [list(row[k - s:]) + list(row[: k - s]) for row in p_rows]
        if rank([list(row) for row in p_rows] + rotated) == base:
            return s
    raise AssertionError("rotating by k is the identity")


def row_shift_oracle(p_rows) -> int:
    """Smallest s in 1..k whose column rotation (column c to (c + s) mod k)
    turns P's rows into P's rows, counted with repeats.

    Tries every s, divisor of k or not, and compares the multisets of rows.
    """
    k = len(p_rows[0])
    rows = Counter(map(tuple, p_rows))
    for s in range(1, k + 1):
        if Counter(tuple(row[k - s:]) + tuple(row[: k - s]) for row in p_rows) == rows:
            return s
    raise AssertionError("rotating by k is the identity")


def randomized_listing_oracle(p_rows, field: TinyField, beta, budget, seed) -> set[tuple]:
    """Weight-beta correctable patterns found by `budget` seeded rounds.

    Each round shuffles the columns, row-reduces the permuted matrix, draws
    beta of its pivot columns, and keeps every cyclic shift of that pattern
    whose columns have full rank. The random calls (one shuffle, one
    sample per round) match the package's listing.
    """
    k = len(p_rows[0])
    rng = random.Random(seed)
    found: set[tuple] = set()
    for _ in range(budget):
        perm = list(range(k))
        rng.shuffle(perm)
        pivots = pivot_columns([[row[j] for j in perm] for row in p_rows], field)
        support = {perm[j] for j in rng.sample(pivots, beta)}
        base = tuple(1 if j in support else 0 for j in range(k))
        for s in range(k):
            cand = base[-s:] + base[:-s] if s else base
            if cand in found:
                continue
            chosen = [j for j in range(k) if cand[j]]
            if column_rank(p_rows, chosen, field) == beta:
                found.add(cand)
    return found


# -- regular-subset search ---------------------------------------------------
#
# The package keeps its column counts bit-sliced over k-bit masks. This is
# the same take/skip search with plain per-column lists: a table of how
# many rows from index i on cover each column, and a scan of every column
# at every node. It counts nodes the same way, so the two agree on where a
# budget runs out.


def regular_subset_oracle(rows, k, beta, budget):
    """(outcome, nodes) of the depth-first search for k of the rows (k-bit
    masks, position j at bit k-1-j) with every column sum beta.

    `outcome` is the chosen rows, None when none exist, or "exhausted" when
    node `budget` + 1 was reached; `nodes` is the count expanded.
    """
    n_rows = len(rows)
    if n_rows < k:
        return None, 0
    supports = [[j for j in range(k) if r >> (k - 1 - j) & 1] for r in rows]
    suffix = [[0] * k for _ in range(n_rows + 1)]
    for i in range(n_rows - 1, -1, -1):
        suffix[i] = suffix[i + 1][:]
        for j in supports[i]:
            suffix[i][j] += 1
    colsum = [0] * k
    chosen = []
    nodes = 0

    class Exhausted(Exception):
        pass

    def dfs(i):
        nonlocal nodes
        while True:
            nodes += 1
            if nodes > budget:
                raise Exhausted
            need = k - len(chosen)
            if need == 0:
                return True
            if n_rows - i < need:
                return False
            if any(colsum[j] + suffix[i][j] < beta for j in range(k)):
                return False
            if all(colsum[j] < beta for j in supports[i]):
                for j in supports[i]:
                    colsum[j] += 1
                chosen.append(i)
                if dfs(i + 1):
                    return True
                chosen.pop()
                for j in supports[i]:
                    colsum[j] -= 1
            i += 1

    try:
        found = dfs(0)
    except Exhausted:
        return "exhausted", nodes - 1
    return ([rows[i] for i in chosen] if found else None), nodes


# -- width scan --------------------------------------------------------------
#
# The package proves most randomized widths feasible with one circulant
# orbit and builds a matrix only for the widths it keeps. This is the scan
# run eagerly: every width is listed, searched and turned into a matrix as
# it is reached. It borrows the listing, the search and the result type
# from the package, so it pins the scan's control flow and bookkeeping.


def eager_scan_oracle(code, cfg):
    """OptimizationResult of listing and searching every width in turn."""
    import math
    from fractions import Fraction

    from codedpir import (
        EMatrix,
        OptimizationResult,
        compute_erasure_pattern_list,
        derived_code,
        min_distance,
        theta_bounds,
    )
    from codedpir.optimizer import _search_matrix

    def matrix(masks, beta):
        return EMatrix(tuple(tuple(m >> (k - 1 - j) & 1 for j in range(k)) for m in masks), beta)

    derived = derived_code(code)
    k = code.k
    dtm = cfg.d_tilde_min if cfg.d_tilde_min is not None else min_distance(code.p, cfg.min_distance_cap)
    dm = cfg.d_min if cfg.d_min is not None else min_distance(code.h, cfg.min_distance_cap)
    bounds = theta_bounds(code, dm, dtm)
    e_opt = ext_e = ext_beta = None
    beta_opt = iterations = 0
    exhaustive, stopped = True, False
    for beta in range(dtm - 1, code.parity_rank + 1):
        if not stopped:
            iterations += 1
        mode = "exhaustive" if math.comb(k, beta) <= cfg.exhaustive_limit else "randomized"
        seed = cfg.seed * 1_000_003 + beta
        listed = compute_erasure_pattern_list(derived, beta, mode, cfg.pattern_budget, seed)
        exhaustive = exhaustive and listed.exhaustive
        if not listed.masks:
            continue
        rows, complete = _search_matrix(listed.masks, k, beta, cfg.exact_budget, seed,
                                        cfg.subset_threshold, cfg.subset_tries)
        exhaustive = exhaustive and complete
        if rows is not None:
            if stopped:
                ext_e, ext_beta = matrix(rows, beta), beta
            else:
                e_opt, beta_opt = matrix(rows, beta), beta
        elif not stopped:
            stopped = True
            if not cfg.keep_going:
                break
    return OptimizationResult(
        e_opt=e_opt,
        beta_opt=beta_opt,
        theta_opt=Fraction(code.n, beta_opt),
        theta_non_opt=bounds.non_optimized,
        theta_lb=bounds.lower_bound,
        theta_baseline=bounds.baseline,
        iterations=iterations,
        exhaustive=exhaustive,
        d_min=dm,
        d_tilde_min=dtm,
        extended_e=ext_e,
        extended_beta=ext_beta,
    )


# -- query layout ----------------------------------------------------------


def selection_grid_oracle(e, f, m, pi=None, z=None):
    """Node l's k x beta*f 0/1 selection block for file m, l = 1..k.

    Subquery i takes slot z[i][l] at node l (by default the rank of row i
    among the rows of E that select column l, counted down the column) and
    puts its 1 at stripe pi[slot] of file m.
    """
    k, beta = len(e.rows), e.beta
    perm = tuple(range(beta + 1)) if pi is None else tuple(pi)
    grids = [[[0] * (beta * f) for _ in range(k)] for _ in range(k)]
    for l in range(k):
        rank = 0
        for i in range(k):
            if e.rows[i][l]:
                rank += 1
                slot = rank if z is None else z[i][l]
                grids[l][i][(m - 1) * beta + perm[slot] - 1] = 1
    return grids


# -- exact privacy check -----------------------------------------------------
#
# The package counts nothing while every query matches the construction and
# derives equal multisets from that match. This is the check done the direct
# way: every node's queries counted for every mask and file, and every query
# compared row by row with an untouched copy of the mask plus the selection
# grid above.


def exact_privacy_oracle(code, e, f, builder, pi=None, z=None):
    """(multisets_ok, construction_ok) of `builder`'s queries over every mask.

    builder(u_rows, m) gets its own list-of-lists copy of each mask and
    returns the n node queries for file m, as exact_privacy_check's
    builder does. Only the first n queries are counted, each by its entries
    row after row. Node l's query matches when, as k lists of entries, it
    is the mask plus node l's selection grid for file m (l = 1..k), or the
    bare mask (l > k).
    """
    k, n = code.k, code.n
    order = code.field.order
    width = e.beta * f
    zero = [[0] * width for _ in range(k)]
    grids = {m: selection_grid_oracle(e, f, m, pi, z) + [zero] * (n - k) for m in range(1, f + 1)}
    counts = {m: [Counter() for _ in range(n)] for m in range(1, f + 1)}
    construction_ok = True
    for flat in itertools.product(range(order), repeat=k * width):
        mask = [flat[i * width : (i + 1) * width] for i in range(k)]
        for m in range(1, f + 1):
            queries = builder([list(row) for row in mask], m)
            expected = [
                [[u ^ g for u, g in zip(row, grid_row)] for row, grid_row in zip(mask, grid)]
                for grid in grids[m]
            ]
            sent = [[list(row) for row in q] for q in queries]
            construction_ok = construction_ok and sent == expected
            for s in range(n):
                counts[m][s][tuple(itertools.chain.from_iterable(queries[s]))] += 1
    multisets_ok = all(counts[m] == counts[1] for m in range(2, f + 1))
    return multisets_ok, construction_ok


# -- statistical privacy check -----------------------------------------------
#
# The package counts each mask entry once per file index and lets every
# node share its statistic. This is the same check counted the direct way:
# every entry of every node's query, trial by trial, with the selection
# grid above. It borrows the exact check and the report type from the
# package, so it pins the counting and the test statistics.


def verify_privacy_oracle(code, e, f, trials, seed, pi=None, significance=0.01,
                          exact_limit=1 << 16):
    """PrivacyReport from per-node counts, with the package's random calls."""
    from scipy.stats import chi2

    from codedpir.protocol import PrivacyReport, exact_privacy_check

    k, n = code.k, code.n
    beta = e.beta
    order = code.field.order
    width = beta * f
    exact_performed = order ** (k * width) <= exact_limit
    multisets_ok = construction_ok = None
    if exact_performed:
        multisets_ok, construction_ok = exact_privacy_check(
            code, e, f, pi=pi, limit=exact_limit
        )
    rng = random.Random(seed)
    counts = [[[[0] * order for _ in range(width)] for _ in range(k)] for _ in range(f * n)]
    for m in range(1, f + 1):
        grids = selection_grid_oracle(e, f, m, pi)
        for _ in range(trials):
            u_rows = [[rng.randrange(order) for _ in range(width)] for _ in range(k)]
            for s in range(n):
                for i in range(k):
                    for j in range(width):
                        v = grids[s][i][j] if s < k else 0
                        counts[(m - 1) * n + s][i][j][u_rows[i][j] ^ v] += 1
    expected = trials / order
    tests = f * n * k * width
    min_p = 1.0
    for node_counts in counts:
        for row in node_counts:
            for cell in row:
                stat = sum((c - expected) ** 2 for c in cell) / expected
                min_p = min(min_p, float(chi2.sf(stat, order - 1)))
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
