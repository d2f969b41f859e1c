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
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, islice, tee
from typing import Callable, Iterator, Literal, NamedTuple, Sequence

from .algebra import (
    _eliminate, _nonzero, _pair_keys, _proportional_keys, _reduce_by, _walk_tables,
)
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
    """Square binary access matrix with constant row and column weight.

    Its rows are held as tuples of ints, whatever sequences they were given
    as, so a matrix is hashable and its cached layout cannot go stale.
    """

    rows: tuple[tuple[int, ...], ...]
    beta: int

    def __post_init__(self):
        if type(self.beta) is not int:  # a bool is no weight either
            raise ValueError(f"access matrix weight {self.beta!r} is not an integer")
        rows = tuple(map(tuple, self.rows))
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ValueError("access matrix must be square")
        try:
            entries = bytes(chain.from_iterable(rows))
            bits = not entries.translate(None, b"\x00\x01")
        except (TypeError, ValueError):  # an entry that is no int in 0..255
            bits = False
        if not bits:
            raise ValueError("access matrix entries must be 0 or 1")
        if self.beta < 1:
            raise ValueError(f"access matrix weight {self.beta} is below 1")
        rows = tuple(tuple(entries[i * k : (i + 1) * k]) for i in range(k))
        object.__setattr__(self, "rows", rows)
        for kind, lines in (("row", rows), ("column", zip(*rows))):
            for i, line in enumerate(lines):
                if sum(line) != self.beta:
                    raise ValueError(
                        f"{kind} {i} has weight {sum(line)}, expected {self.beta}"
                    )

    @property
    def k(self) -> int:
        return len(self.rows)

    @cached_property
    def canonical_slots(self) -> tuple[tuple[int, ...], ...]:
        """The default stripe-slot assignment z, rank order down each column:
        column l lists its selected rows in increasing order and hands them
        slots 1..beta, so z[i][l] is row i's slot on column l (0 where row i
        does not select l). Every column uses each slot exactly once, which
        makes the beta*k recovered coordinates distinct."""
        used = [0] * self.k  # slots handed out so far, per column
        z = []
        for row in self.rows:
            slots = [0] * self.k
            for l in compress(range(self.k), row):
                used[l] += 1
                slots[l] = used[l]
            z.append(tuple(slots))
        return tuple(z)

    @cached_property
    def _canonical_lanes(self) -> array:
        """_selection_lanes of canonical_slots."""
        return _selection_lanes(self.canonical_slots, self.beta)

    @cached_property
    def _canonical_picks(self) -> dict:
        """protocol.collect_responses' selection masks of canonical_slots,
        by lane stride, each built once (protocol._selection_masks)."""
        return {}

    @cached_property
    def _recovery_plans(self) -> dict:
        """protocol.recover_file's plans for the canonical layout, by code row
        shift, each derived once (protocol._recovery_plan)."""
        return {}


def _selection_lanes(z: Sequence[Sequence[int]], beta: int) -> array:
    """The selection list (row i, node l, slot z[i][l]) of a k x k slot
    assignment, compact: one int per (i, l), row-major.

    Lay the payloads a selection draws out slot by slot, k lanes to a slot,
    and one zero lane after them. Entry i*k + l is then the lane row i
    draws from node l, (z[i][l] - 1)*k + l, or beta*k, the zero lane, where
    row i selects no node l.
    """
    k = len(z)
    return array(
        "I", [(s - 1) * k + l if s else beta * k for row in z for l, s in enumerate(row)]
    )


# one width's seeded rounds (_rounds): (drawn support, the round's verdict memo)
_RoundStream = Iterator[tuple[int, dict[int, bool]]]


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
    rounds: _RoundStream | None = None,
) -> PatternList:
    """Collect weight-beta erasure patterns the derived code can correct.

    Exhaustive mode walks every linearly independent beta-subset of the
    parity-check columns, which equals filtering all C(k, beta) patterns
    through the correctability test. The walk chooses columns in
    increasing order, and each node carries the later columns reduced
    modulo the span of its chosen ones (_reduce_by, as in min_distance):
    a later column keeps the choice independent exactly when its residual
    is nonzero, so a node's children are its nonzero residuals. The last
    two picks reduce nothing: nonzero residuals u and a later u' complete
    a pattern exactly when u' is no multiple of u, so each nonzero residual
    is keyed by its direction once (_proportional_keys, as in min_distance's
    pair test) and the pairs with distinct keys are listed. Past GF(2^8),
    at the pick before those two, a residual of three entries whose first
    is nonzero is not reduced: _pair_keys keys the later residuals straight
    from it, and a zero residual's marker drops that column from the pairs,
    as in min_distance. Up to GF(2^8)
    the columns are byte lanes (column_vectors). Randomized mode runs up to `budget`
    rounds of: permute the columns at random, take the leading-one columns
    of the permuted matrix's reduced row echelon form, pick beta of them (an
    independent set by construction), map them back through the
    permutation, then keep every correctable cyclic shift of the resulting
    pattern. The leading-one columns of a column-permuted matrix are its
    greedy independent prefix, so a round feeds the columns of rref(P),
    which have P's dependencies, to one forward elimination (_eliminate)
    in permuted order instead of row-reducing, at every field width. Shifts
    that differ by a multiple of the code's row shift g
    (DerivedCode.row_shift) have the same verdict, so only shifts 1..g-1 of
    a round's pattern run the correctability test (shift 0, the drawn
    support, is independent by construction), each mask at most once per
    round (the memo of _rounds), and shift s reuses the verdict of shift
    s mod g; the random calls and the listed set are those of testing every
    shift. `rounds`, when given, is this width's stream (_rounds) at this
    budget and seed, which optimize_cpop's certificate has already drawn in
    full; the listing reuses the verdicts the certificate left in its memo.
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
        tables, nonzero = _walk_tables(field), _nonzero(field)
        fuse = beta - 3 if field.width > 8 else -1  # the depth that keys with _pair_keys
        top = 1 << (k - 1)  # position 0
        found: list[int] = []

        def pairs(live: list, keys: list, mask: int) -> None:
            # the last two picks: nonzero residuals u at column live[a], then
            # u' after it, extend the choice exactly when u' is no multiple of
            # u (the last live column has none after it)
            for a, (j, key) in enumerate(zip(live[:-1], keys)):
                pick = mask | top >> j
                later = zip(live[a + 1 :], keys[a + 1 :])
                found.extend(pick | top >> j2 for j2, key2 in later if key2 != key)

        def walk(rest: list, first: int, depth: int, mask: int) -> None:
            # rest[i]: column first + i reduced modulo the chosen columns
            room = k - (beta - depth) - first + 1  # later picks must still fit
            if depth == beta - 1:  # beta = 1: every nonzero column
                found.extend(
                    mask | top >> (first + i) for i, u in enumerate(rest[:room]) if nonzero(u)
                )
                return
            if depth == beta - 2:
                live = [first + i for i, u in enumerate(rest) if nonzero(u)]
                pairs(live, _proportional_keys(field, tables, list(filter(nonzero, rest))), mask)
                return
            for i, v in enumerate(rest[:room]):
                if not nonzero(v):
                    continue
                pick = mask | top >> (first + i)
                if depth == fuse and len(v) == 3 and v[0]:
                    # the child's pair listing, on keys read straight from the residuals
                    keys = _pair_keys(field, tables, v, rest[i + 1 :])
                    live = [first + i + 1 + t for t, key in enumerate(keys) if key is not None]
                    pairs(live, [key for key in keys if key is not None], pick)
                else:
                    later = _reduce_by(field, tables, v, rest[i + 1 :])
                    walk(later, first + i + 1, depth + 1, pick)

        walk(derived._column_reps, 0, 0, 0)
        return PatternList(frozenset(found), k, beta, exhaustive=True)

    g = derived.row_shift[0]
    found = []
    for base, verdicts in rounds or _rounds(derived, beta, budget, seed):
        rotations = _rotations(base, k)
        ok = [_tested(derived, verdicts, m) for m in rotations[:g]]
        # rotation s has the verdict of rotation s mod g, and g divides k
        found += compress(rotations, ok * (k // g))
    return PatternList(frozenset(found), k, beta, exhaustive=False)


def _rounds(derived: DerivedCode, beta: int, budget: int, seed: int) -> _RoundStream:
    """One width's stream of seeded rounds (see compute_erasure_pattern_list),
    each as its drawn support and its verdict memo, a dict from the masks of
    its rotations to their correctability; 1 <= beta <= rank(P).

    A round's pivots are the first rank(P) columns, in shuffled order,
    that _eliminate finds outside the span of the ones before them; the
    columns are DerivedCode._reduced_columns, the same packed columns of
    rref(P) that `independent` tests, at every field width. The random
    calls per round are one shuffle and one sample, so every consumer of
    these rounds sees the same stream. The drawn support is beta of the
    round's greedy pivots, independent by construction: the memo records it
    correctable when it is drawn, without a test. optimize_cpop shares one
    stream between the certificate (_complete_orbits) and, at a width no
    round certifies, the listing, so each round is drawn once and no
    rotation of it is tested twice (_tested). The memo is per round, not
    per width: a width the scan keeps draws its later rounds at the end of
    the scan, and one memo for all of them would keep every verdict they
    found; a mask that two rounds of a short code share is tested by each.
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
        fresh = _eliminate(derived.field, rank, [0] * (rank + 1), map(cols.__getitem__, perm))
        pivots = list(islice(compress(perm, fresh), rank))
        base = 0
        for j in rng.sample(pivots, beta):
            base |= 1 << (k - 1 - j)
        yield base, {base: True}


def _tested(derived: DerivedCode, verdicts: dict[int, bool], mask: int) -> bool:
    """Whether a rotation of a round is correctable, tested once and kept
    in the round's memo (_rounds)."""
    ok = verdicts.get(mask)
    if ok is None:
        ok = verdicts[mask] = derived.independent(mask)
    return ok


def _complete_orbits(derived: DerivedCode, rounds: _RoundStream) -> Iterator[int]:
    """The smallest rotation of each round of a width's stream (_rounds)
    whose k rotations are all distinct and all correctable, in round order.

    Such an orbit is complete in the randomized listing at the same seed,
    which keeps every correctable rotation of every round, so the first
    yield proves the width feasible without listing it. Rotations s >= g
    (DerivedCode.row_shift) have the verdict of s mod g, so only the first
    g are tested.
    """
    k = derived.n_tilde
    g = derived.row_shift[0]
    for base, verdicts in rounds:
        rotations = _rotations(base, k)
        if len(set(rotations)) == k and all(_tested(derived, verdicts, m) for m in rotations[:g]):
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

    The second test depends only on which rows remain, so it is a deadline:
    `last[c][r]` is the index of the r-th row from the end that covers
    column c (-1 when fewer than r do), and a column with room r (beta
    minus its sum) is dead at row i exactly when i > last[c][r]. A frame
    (one per taken row) fixes the room of every column, hence the columns
    still open (`avail`) and the first row past which the branch is dead:
    the minimum deadline, or the row past which too few rows are left.
    Skipping a row then costs a few integer compares, and taking one copies
    the room list.
    """
    n_rows = len(rows)
    if n_rows < k:
        return None
    # last[c][0] = n_rows: a full column sets no deadline; the backward walk
    # stops once every column has beta rows
    last = [[n_rows] for _ in range(k)]
    short = full = (1 << k) - 1
    for i in range(n_rows - 1, -1, -1):
        if not short:
            break
        m = rows[i] & short
        while m:
            c = m.bit_length() - 1
            m ^= 1 << c
            last[c].append(i)
            if len(last[c]) > beta:
                short ^= 1 << c
    for at in last:
        at.extend([-1] * (beta + 1 - len(at)))
    chosen: list[int] = []
    nodes = 0

    def dfs(i: int, room: list[int], avail: int, need: int) -> bool:
        # recursion only on the take branch, so the depth stays below k;
        # skipping a row iterates in place
        nonlocal nodes
        if need == 0:
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            return True
        limit = min(n_rows - need, *map(list.__getitem__, last, room))
        while True:
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            if i > limit:
                return False
            sup = rows[i]
            if sup & avail == sup:
                after = room[:]
                left = avail
                while sup:
                    c = sup.bit_length() - 1
                    sup ^= 1 << c
                    after[c] -= 1
                    if not after[c]:
                        left ^= 1 << c
                chosen.append(i)
                if dfs(i + 1, after, left, need - 1):
                    return True
                chosen.pop()
            i += 1

    if dfs(0, [beta] * k, full, k):
        return [rows[i] for i in chosen]
    return None


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

    def __post_init__(self):
        for name in (
            "exhaustive_limit", "pattern_budget", "exact_budget", "subset_threshold",
            "subset_tries", "min_distance_cap",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")


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


def optimize_cpop(code: LinearCode, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Scan widths beta = d_tilde_min - 1 .. rank(P) for the widest matrix.

    Each iteration lists correctable patterns and tries to assemble a
    regular matrix from them; a nonempty list that yields no matrix stops
    the scan (keep_going continues it, reporting any later success
    separately). The first iteration always succeeds: below the derived
    minimum distance every pattern is correctable and any shift-variant
    pattern closes into a circulant.

    A randomized width's rounds are drawn one by one, and the first round
    whose support has k distinct, correctable rotations proves it feasible
    (see _complete_orbits); such a width is neither listed nor searched. A
    width the scan keeps (e_opt, and extended_e under keep_going) gets the
    circulant _rotations(p, k), where p is the smallest yield of that round
    and of every later round. That is the matrix listing and searching the
    width would give: the listing keeps every correctable rotation of every
    round and a rotation's verdict depends only on its mask, so an orbit is
    complete in the list exactly when it is the orbit of a round that
    certifies; and _search_matrix's circulant shortcut returns
    _rotations(p, k) for the smallest row p of any complete orbit. Widths no round
    certifies are listed and searched as they are reached. One stream of
    rounds (_rounds) serves both: it is teed, and the listing reads its copy
    only after the certificate has drawn every round, so each round is drawn
    once and no rotation of it is tested twice. `iterations` and
    `exhaustive` keep their meaning: a certified width counts as an
    iteration, and its list, being randomized, is not exhaustive.
    """
    cfg = config or OptimizerConfig()
    derived = derived_code(code)
    dtm = cfg.d_tilde_min if cfg.d_tilde_min is not None else min_distance(
        code.p, cfg.min_distance_cap
    )
    dm = cfg.d_min if cfg.d_min is not None else min_distance(code.h, cfg.min_distance_cap)
    rank_p = derived.n_tilde - derived.k_tilde
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
        seed = _iter_seed(cfg, beta)
        mode, replay, first = "exhaustive", None, None
        if _randomized(k, beta, cfg):
            mode = "randomized"
            drawn, replay = tee(_rounds(derived, beta, cfg.pattern_budget, seed))
            orbits = _complete_orbits(derived, drawn)
            first = next(orbits, None)  # None only once every round is drawn
        if first is not None:
            exhaustive = False  # as the randomized list it stands for would set
            found = beta, lambda first=first, later=orbits: _rotations(min([first, *later]), k)
        else:
            listed = compute_erasure_pattern_list(
                derived, beta, mode, cfg.pattern_budget, seed, replay
            )
            exhaustive = exhaustive and listed.exhaustive
            if not listed.masks:
                continue  # nothing to search: neither a success nor a stop
            rows, complete = _search_matrix(
                listed.masks, k, beta, cfg.exact_budget, seed, cfg.subset_threshold,
                cfg.subset_tries,
            )
            exhaustive = exhaustive and complete
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
    leave no retrieval width or cannot both be the code's: d_tilde_min
    below 2 or above rank(P) + 1, or d_min above d_tilde_min."""
    if d_tilde_min < 2:
        raise ValueError(
            "derived code has minimum distance 1: some message symbol appears in no "
            "parity equation, so no retrieval width is available"
        )
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
