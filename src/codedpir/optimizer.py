"""Search for the widest regular, correctable access matrix.

Each retrieval subquery touches one message symbol on each node of an
erasure-correctable set; stacking k such patterns into a k x k binary
matrix E with constant row and column weight beta lets one run of the
protocol pull beta*k distinct symbols while every node still answers k
subqueries. The download price n/beta therefore falls as beta grows, and
the scan below climbs beta from just under the derived code's minimum
distance (where every pattern works) up to the rank of its parity-check
matrix (past which no correctable pattern exists). A width listed at
random is usually proven feasible, without being listed, by one seeded
round whose support has k distinct, correctable rotations (a circulant
orbit); the matrix of a width the scan keeps is the circulant of the
smallest such orbit over all its rounds. Only the widths no round proves
feasible are listed and searched.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, islice
from operator import or_
from typing import Callable, Iterator, Literal, NamedTuple, Sequence

from .algebra import _extends, _reduce_by
from .codes import (
    DerivedCode,
    ErasurePattern,
    LinearCode,
    _mask_bytes,
    derived_code,
    is_ml_correctable,
    min_distance,
)


@dataclass(frozen=True)
class EMatrix:
    """Square binary access matrix with constant row and column weight."""

    rows: tuple[tuple[int, ...], ...]
    beta: int

    def __post_init__(self):
        k = len(self.rows)
        if any(len(r) != k for r in self.rows):
            raise ValueError("access matrix must be square")
        if any(b not in (0, 1) for r in self.rows for b in r):
            raise ValueError("access matrix entries must be 0 or 1")
        if any(sum(r) != self.beta for r in self.rows):
            raise ValueError(f"every row must have exactly {self.beta} ones")
        if any(sum(col) != self.beta for col in zip(*self.rows)):
            raise ValueError(f"every column must have exactly {self.beta} ones")

    @property
    def k(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class PatternList:
    """Correctable erasure patterns of one weight, held as support masks.

    `masks` are length-`k` support masks of weight `beta` (see
    ErasurePattern.mask); the `patterns` view builds the ErasurePattern
    objects on first access, so the width scan never makes them.
    `exhaustive` is True when the list provably contains every correctable
    pattern of that weight.
    """

    masks: frozenset[int]
    k: int
    beta: int
    exhaustive: bool

    @cached_property
    def patterns(self) -> frozenset[ErasurePattern]:
        return frozenset(ErasurePattern._of(m, self.k) for m in self.masks)


def compute_erasure_pattern_list(
    derived: DerivedCode,
    beta: int,
    mode: Literal["exhaustive", "randomized"] = "exhaustive",
    budget: int = 64,
    seed: int = 0,
) -> PatternList:
    """Collect weight-beta erasure patterns the derived code can correct.

    Exhaustive mode walks every linearly independent beta-subset of the
    parity-check columns, which equals filtering all C(k, beta) patterns
    through the correctability test. The walk chooses columns in
    increasing order, and each node carries the later columns reduced
    modulo the span of its chosen ones (_reduce_by, as in min_distance):
    a later column keeps the choice independent exactly when its residual
    is nonzero, so a node's children are its nonzero residuals, and the
    last level lists one pattern per nonzero residual without reducing
    anything. Randomized mode runs up to `budget`
    rounds of: permute the columns at random, take the leading-one columns
    of the permuted matrix's reduced row echelon form, pick beta of them (an
    independent set by construction), map them back through the
    permutation, then keep every correctable cyclic shift of the resulting
    pattern. The leading-one columns of a column-permuted matrix are its
    greedy independent prefix, so a round feeds the columns of rref(P),
    which have P's dependencies, to one incremental elimination (_extends)
    in permuted order instead of row-reducing, at every field width. Shifts
    that differ by a multiple of the code's `shift_period` g have the same
    verdict, so only shifts 0..g-1 of a round's pattern run the
    correctability test and shift s reuses the verdict of shift s mod g;
    the random calls and the listed set are those of testing every shift.
    Patterns stay support masks throughout (see PatternList). An empty list
    is a valid result.
    """
    k = derived.n_tilde
    if not 1 <= beta <= k:
        raise ValueError(f"beta must be in 1..{k}, got {beta}")
    if mode not in ("exhaustive", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    rank = k - derived.k_tilde
    if beta > rank:
        # no beta columns can be independent; this emptiness is proven
        return PatternList(frozenset(), k, beta, exhaustive=True)

    if mode == "exhaustive":
        field = derived.field
        nonzero = any if field.width != 1 else bool
        top = 1 << (k - 1)  # position 0
        found: list[int] = []

        def walk(rest: list, first: int, depth: int, mask: int) -> None:
            # rest[i]: column first + i reduced modulo the chosen columns
            room = k - (beta - depth) - first + 1  # later picks must still fit
            if depth == beta - 1:
                found.extend(
                    mask | top >> (first + i) for i, u in enumerate(rest[:room]) if nonzero(u)
                )
                return
            for i, v in enumerate(rest[:room]):
                if nonzero(v):
                    later = _reduce_by(field, v, rest[i + 1 :])
                    walk(later, first + i + 1, depth + 1, mask | top >> (first + i))

        walk(derived._column_reps, 0, 0, 0)
        return PatternList(frozenset(found), k, beta, exhaustive=True)

    independent = derived.independent
    period = derived.shift_period
    seen: dict[int, bool] = {}  # mask -> verdict
    found = []
    for rotations in _rounds(derived, beta, budget, seed):
        for s, cand in enumerate(rotations):
            if cand not in seen:
                # rotation s mod period came first and has the same verdict
                ok = seen[cand] = independent(cand) if s < period else seen[rotations[s % period]]
                if ok:
                    found.append(cand)
    return PatternList(frozenset(found), k, beta, exhaustive=False)


def _rounds(derived: DerivedCode, beta: int, budget: int, seed: int) -> Iterator[list[int]]:
    """The seeded rounds of the randomized listing, each as the k rotations
    of its drawn support (see compute_erasure_pattern_list); 1 <= beta <= rank(P).

    A round's pivots are the first rank(P) columns, in shuffled order,
    that _extends finds outside the span of the ones before them; the
    columns are DerivedCode._reduced_columns, the same packed columns of
    rref(P) that `independent` tests, at every field width. The random
    calls per round are one shuffle and one sample, so every consumer of
    these rounds sees the same stream.
    """
    k = derived.n_tilde
    cols, _, rank, _ = derived._reduced_columns
    rng = random.Random(seed)
    for _ in range(budget):
        perm = list(range(k))
        rng.shuffle(perm)
        # the permuted matrix's pivots (its greedy independent prefix),
        # already mapped back to columns of P; sample() picks by position,
        # so it draws the same columns either way
        fresh = _extends(derived.field, rank, map(cols.__getitem__, perm))
        pivots = list(islice(compress(perm, fresh), rank))
        base = 0
        for j in rng.sample(pivots, beta):
            base |= 1 << (k - 1 - j)
        yield _rotations(base, k)


def _complete_orbits(derived: DerivedCode, beta: int, budget: int, seed: int) -> Iterator[int]:
    """The smallest rotation of each seeded round whose k rotations are all
    distinct and all correctable, in round order.

    Such an orbit is complete in the randomized listing at the same seed,
    which keeps every correctable rotation of every round, so the first
    yield proves the width feasible without listing it. Rotations
    s >= shift_period reuse the verdict of s mod shift_period.
    """
    k = derived.n_tilde
    period = derived.shift_period
    independent = derived.independent
    for rotations in _rounds(derived, beta, budget, seed):
        if len(set(rotations)) == k and all(map(independent, rotations[:period])):
            yield min(rotations)


def _rotations(mask: int, k: int) -> list[int]:
    """The k cyclic shifts of a support mask; shift s moves position j to (j + s) mod k."""
    full = (1 << k) - 1
    double = mask | mask << k
    return [double >> s & full for s in range(k)]


class _BudgetExhausted(Exception):
    pass


def _exact_regular_subset(
    rows: Sequence[int], k: int, beta: int, budget: int
) -> list[int] | None:
    """Depth-first search for k distinct rows with every column sum beta.

    Rows are scanned in the given order with a take/skip branch per row.
    Pruning: a column already at beta rejects any further one there, and a
    column that cannot reach beta even if all remaining rows covering it
    are taken cuts the branch. Raises _BudgetExhausted after `budget` node
    expansions.

    Both tests run on bit-sliced counters over k-bit masks (plane b holds
    bit b of every column's count), so a node costs O(log n_rows) int
    operations. `room` is beta minus the column sum; `slack` is the column
    sum plus the remaining rows covering the column minus beta, and the
    branch is cut once it goes below zero somewhere. Taking a row lowers
    room on its support and leaves slack as it is; skipping it lowers slack
    there.
    """
    n_rows = len(rows)
    if n_rows < k:
        return None
    full = (1 << k) - 1
    slack: list[int] = []
    for r in rows:
        slack = _add_one(slack, r)  # the rows covering each column
    below = 0
    for _ in range(beta):
        slack, under = _sub_one(slack, full)
        below |= under
    room = [full if beta >> b & 1 else 0 for b in range(beta.bit_length())]
    chosen: list[int] = []
    nodes = 0

    def dfs(i: int, room: list[int], slack: list[int], below: int) -> bool:
        # recursion only on the take branch, so the depth stays below k;
        # skipping a row iterates in place
        nonlocal nodes
        while True:
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            need = k - len(chosen)
            if need == 0:
                return True
            if n_rows - i < need:
                return False
            if below:
                return False
            sup = rows[i]
            if sup & reduce(or_, room) == sup:
                chosen.append(i)
                if dfs(i + 1, _sub_one(room, sup)[0], slack, 0):
                    return True
                chosen.pop()
            slack, below = _sub_one(slack, sup)
            i += 1

    if dfs(0, room, slack, below):
        return [rows[i] for i in chosen]
    return None


def _add_one(planes: list[int], mask: int) -> list[int]:
    """Add 1 at the columns of `mask` to a bit-sliced counter, growing a
    plane when the carry runs out."""
    out = planes[:]
    for b, plane in enumerate(planes):
        out[b] = plane ^ mask
        mask &= plane
        if not mask:
            return out
    out.append(mask)
    return out


def _sub_one(planes: list[int], mask: int) -> tuple[list[int], int]:
    """Subtract 1 at the columns of `mask` from a bit-sliced counter.

    Returns the new planes and the columns that went below zero (their
    borrow ran out of the planes).
    """
    out = planes[:]
    for b, plane in enumerate(planes):
        out[b] = plane ^ mask
        mask &= ~plane
        if not mask:
            return out, 0
    return out, mask


def _search_matrix(
    patterns: Sequence[int],
    k: int,
    beta: int,
    exact_budget: int,
    seed: int,
    subset_threshold: int,
    subset_tries: int,
) -> tuple[list[int] | None, bool]:
    """Assemble a k x k beta-regular matrix from listed patterns.

    Tries, in order: the circulant shortcut, exact backtracking over the
    whole (deduplicated) list when it is small enough, and otherwise exact
    backtracking over several random subsets. Patterns are length-k support
    masks (see ErasurePattern.mask), which sort in the order of their bit
    tuples. Returns the k rows of the matrix found as masks, or None when
    nothing is found within budget (a valid "infeasible or unknown"
    outcome), and whether the search was complete: True only when
    infeasibility (or the found solution) is proven, because the exact
    search ran on the full pattern list and finished within budget.
    """
    rows = sorted(set(patterns))
    if not rows:
        return None, True
    # circulant shortcut: a pattern whose k cyclic shifts are all distinct
    # and all present yields a regular matrix immediately. Every rotation of
    # a pattern has the same orbit, so one check per orbit decides them all.
    row_set = set(rows)
    checked: set[int] = set()
    for p in rows:
        if p in checked:
            continue
        shifts = _rotations(p, k)
        if len(set(shifts)) == k and all(s in row_set for s in shifts):
            return shifts, True
        checked.update(shifts)

    if len(rows) <= subset_threshold:
        try:
            return _exact_regular_subset(rows, k, beta, exact_budget), True
        except _BudgetExhausted:
            return None, False

    rng = random.Random(seed)
    per_try = max(1, exact_budget // max(1, subset_tries))
    size = min(len(rows), max(4 * k, 64))
    for _ in range(subset_tries):
        subset = sorted(rng.sample(rows, size))
        try:
            sol = _exact_regular_subset(subset, k, beta, per_try)
        except _BudgetExhausted:
            sol = None
        if sol is not None:
            return sol, False
    return None, False


def _e_matrix(masks: Sequence[int], k: int, beta: int) -> EMatrix:
    return EMatrix(tuple(tuple(_mask_bytes(m, k)) for m in masks), beta)


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    exhaustive_limit: int = 1_000_000
    pattern_budget: int = 48
    exact_budget: int = 20_000
    subset_threshold: int = 4_000
    subset_tries: int = 6
    min_distance_cap: int = 25
    keep_going: bool = False
    d_min: int | None = None
    d_tilde_min: int | None = None


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the width scan plus the download-price reference values.

    `extended_e`/`extended_beta` are only set by keep-going runs that found
    a wider matrix after the point where the faithful scan stops; e_opt and
    beta_opt always describe the faithful result.
    """

    e_opt: EMatrix
    beta_opt: int
    theta_opt: Fraction
    theta_non_opt: Fraction
    theta_lb: Fraction
    theta_baseline: Fraction
    iterations: int
    exhaustive: bool
    d_min: int
    d_tilde_min: int
    extended_e: EMatrix | None = None
    extended_beta: int | None = None


def _randomized(k: int, beta: int, cfg: OptimizerConfig) -> bool:
    return math.comb(k, beta) > cfg.exhaustive_limit


def _iter_seed(cfg: OptimizerConfig, beta: int) -> int:
    return cfg.seed * 1_000_003 + beta


def _list_and_search(
    derived: DerivedCode, beta: int, cfg: OptimizerConfig
) -> tuple[PatternList, list[int] | None, bool]:
    """One width of the scan, listed and searched in full: the pattern list,
    the matrix rows found or None, and whether the search was complete (an
    empty list is not searched)."""
    k = derived.n_tilde
    mode = "randomized" if _randomized(k, beta, cfg) else "exhaustive"
    seed = _iter_seed(cfg, beta)
    L = compute_erasure_pattern_list(derived, beta, mode, cfg.pattern_budget, seed)
    if not L.masks:
        return L, None, True
    rows, complete = _search_matrix(
        L.masks, k, beta, cfg.exact_budget, seed, cfg.subset_threshold, cfg.subset_tries
    )
    return L, rows, complete


def optimize_cpop(code: LinearCode, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Scan widths beta = d_tilde_min - 1 .. rank(P) for the widest matrix.

    Each iteration lists correctable patterns and tries to assemble a
    regular matrix from them; a nonempty list that yields no matrix stops
    the scan (keep_going continues it, reporting any later success
    separately). The first iteration always succeeds: below the derived
    minimum distance every pattern is correctable and any shift-variant
    pattern closes into a circulant.

    A randomized width is first replayed round by round, and the first
    round whose support has k distinct, correctable rotations proves it
    feasible (see _complete_orbits); such a width is neither listed nor
    searched. A width the scan keeps (e_opt, and extended_e under
    keep_going) gets the circulant _rotations(p, k), where p is the
    smallest yield of that round and of every later round. That is the
    matrix listing and searching the width would give: the listing keeps
    every correctable rotation of every round and a rotation's verdict
    depends only on its mask, so an orbit is complete in the list exactly
    when it is the orbit of a round that certifies; and _search_matrix's
    circulant shortcut returns _rotations(p, k) for the smallest row p of
    any complete orbit. Widths no round certifies are listed and searched
    as they are reached. `iterations` and `exhaustive` keep their meaning:
    a certified width counts as an iteration, and its list, being
    randomized, is not exhaustive.
    """
    cfg = config or OptimizerConfig()
    derived = derived_code(code)
    dtm = cfg.d_tilde_min if cfg.d_tilde_min is not None else min_distance(
        code.p, cfg.min_distance_cap
    )
    dm = cfg.d_min if cfg.d_min is not None else min_distance(code.h, cfg.min_distance_cap)
    rank_p = derived.n_tilde - derived.k_tilde
    if dtm < 2:
        raise ValueError(
            "derived code has minimum distance 1: some message symbol appears in no "
            "parity equation, so no retrieval width is available"
        )
    check_distances(code, dm, dtm)
    bounds = theta_bounds(code, dm, dtm)
    k = code.k
    iterations = 0
    exhaustive = True
    stopped = False
    # the widest success before and after the faithful stop, as (beta, a
    # function giving its matrix rows): a certified width's later rounds
    # run only if it is kept
    opt: tuple[int, Callable[[], list[int]]] | None = None
    ext: tuple[int, Callable[[], list[int]]] | None = None

    for beta in range(dtm - 1, rank_p + 1):
        if not stopped:
            iterations += 1
        orbits = _complete_orbits(derived, beta, cfg.pattern_budget, _iter_seed(cfg, beta))
        first = next(orbits, None) if _randomized(k, beta, cfg) else None
        if first is not None:
            exhaustive = False  # as the randomized list it stands for would set
            found = beta, lambda first=first, later=orbits: _rotations(min([first, *later]), k)
        else:
            listed, rows, complete = _list_and_search(derived, beta, cfg)
            exhaustive = exhaustive and listed.exhaustive and complete
            if not listed.masks:
                continue  # nothing to search: neither a success nor a stop
            if rows is None:
                if not stopped:
                    stopped = True
                    if not cfg.keep_going:
                        break
                continue
            found = beta, lambda rows=rows: rows
        if stopped:
            ext = found
        else:
            opt = found

    if opt is None:
        raise RuntimeError(
            "no access matrix found even at the guaranteed initial width; "
            "raise pattern_budget"
        )

    def built(beta: int, rows: Callable[[], list[int]]) -> EMatrix:
        return _e_matrix(rows(), k, beta)

    beta_opt, e_opt = opt[0], built(*opt)
    ext_beta, ext_e = (ext[0], built(*ext)) if ext else (None, None)
    return OptimizationResult(
        e_opt=e_opt,
        beta_opt=beta_opt,
        theta_opt=cpop(code.n, k, beta_opt, k),
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


def cpop(n: int, d: int, beta: int, k: int) -> Fraction:
    """Downloaded symbols per retrieved symbol: n*d / (beta*k), exact."""
    if min(n, d, beta, k) <= 0:
        raise ValueError("all of n, d, beta, k must be positive")
    return Fraction(n * d, beta * k)


class ThetaBounds(NamedTuple):
    lower_bound: Fraction
    non_optimized: Fraction
    baseline: Fraction


def check_distances(code: LinearCode, d_min: int, d_tilde_min: int) -> None:
    """Raise ValueError when d_min and d_tilde_min, searched or hinted,
    cannot both be the code's: d_tilde_min above rank(P) + 1, or d_min above
    d_tilde_min."""
    rank_p = code.parity_rank
    if d_tilde_min > rank_p + 1:
        raise ValueError(
            f"d_tilde_min {d_tilde_min} exceeds rank(P) + 1 = {rank_p + 1}: any rank(P) + 1 "
            "columns of P are dependent"
        )
    if d_min > d_tilde_min:
        raise ValueError(
            f"d_min {d_min} exceeds d_tilde_min {d_tilde_min}: a derived codeword x gives the "
            "codeword (x, 0)"
        )


def theta_bounds(code: LinearCode, d_min: int, d_tilde_min: int) -> ThetaBounds:
    """Reference download prices for a code, each cpop at d = k.

    lower_bound is 1/(1 - R), the price at width n - k; non_optimized is
    the price at width d_tilde_min - 1, available without any search;
    baseline is the price n/(d_min - 1) of the scheme driven by the code's
    own minimum distance, which the width scan never exceeds.
    """
    if d_min < 2 or d_tilde_min < 2:
        raise ValueError("reference prices need d_min >= 2 and d_tilde_min >= 2")
    n, k = code.n, code.k
    return ThetaBounds(
        lower_bound=cpop(n, k, n - k, k),
        non_optimized=cpop(n, k, d_tilde_min - 1, k),
        baseline=cpop(n, k, d_min - 1, k),
    )


def e_matrix_violations(e: EMatrix, derived: DerivedCode) -> list[str]:
    """Independent re-check of the three access-matrix conditions.

    Works from the raw entries only, so it exercises none of the search
    code above: row regularity, column regularity, and per-row erasure
    correctability by the derived code.
    """
    problems = []
    k = len(e.rows)
    if derived.n_tilde != k:
        return [f"matrix size {k} does not match code length {derived.n_tilde}"]
    for i, row in enumerate(e.rows):
        w = sum(1 for b in row if b)
        if w != e.beta:
            problems.append(f"row {i} has weight {w}, expected {e.beta}")
    for j in range(k):
        w = sum(1 for row in e.rows if row[j])
        if w != e.beta:
            problems.append(f"column {j} has weight {w}, expected {e.beta}")
    for i in range(k):
        if not is_ml_correctable(derived, ErasurePattern(e.rows[i])):
            problems.append(f"row {i} is not a correctable erasure pattern")
    return problems


def assert_valid_e_matrix(e: EMatrix, derived: DerivedCode) -> None:
    problems = e_matrix_violations(e, derived)
    if problems:
        raise ValueError("invalid access matrix: " + "; ".join(problems))
