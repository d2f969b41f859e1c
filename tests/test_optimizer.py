import collections
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import codedpir.optimizer as optimizer_module
from codedpir import (
    DerivedCode,
    EMatrix,
    ErasurePattern,
    FieldMatrix,
    FieldSpec,
    OptimizerConfig,
    PatternList,
    compute_erasure_pattern_list,
    cpop,
    derived_code,
    e_matrix_violations,
    is_ml_correctable,
    matrix_rank,
    optimize_cpop,
    theta_bounds,
)
from codedpir.optimizer import _e_matrix, _search_matrix
from codedpir.workbench import parse_code_file

from conftest import (
    FIXTURES_DIR,
    GF2,
    GF4,
    GF8,
    c1_code,
    cauchy18_rows,
    make_code,
    mds53_code,
    pair_level_matrix,
    planted_matrix,
    quasi_cyclic_code,
    random_systematic_code,
    tall_planted_matrix,
)
from oracles import (
    PeasantField,
    TinyField,
    eager_scan_oracle,
    independent_subsets_oracle,
    randomized_listing_oracle,
    regular_subset_oracle,
)


def all_patterns(k, beta):
    return [ErasurePattern.from_support(k, sup) for sup in itertools.combinations(range(k), beta)]


class TestPatternList:
    def test_c1_weight_two_exhaustive(self):
        d = derived_code(c1_code())
        pl = compute_erasure_pattern_list(d, 2)
        assert pl.exhaustive
        assert pl.patterns == {
            ErasurePattern((1, 1, 0)),
            ErasurePattern((1, 0, 1)),
            ErasurePattern((0, 1, 1)),
        }

    def test_c1_weight_three_empty(self):
        d = derived_code(c1_code())
        pl = compute_erasure_pattern_list(d, 3)
        assert pl.patterns == frozenset()
        assert pl.exhaustive

    def test_below_derived_distance_all_patterns_present(self):
        rng = random.Random(9)
        for _ in range(10):
            code = random_systematic_code(rng, GF2, n_lo=5, n_hi=12)
            from codedpir import min_distance

            d = derived_code(code)
            beta = min_distance(code.p) - 1
            if beta < 1:
                continue
            pl = compute_erasure_pattern_list(d, beta)
            assert pl.patterns == frozenset(all_patterns(code.k, beta))

    @pytest.mark.parametrize("field_key", ["gf2", "gf4"])
    def test_exhaustive_equals_brute_filter(self, field_key):
        from conftest import GF4

        field = GF2 if field_key == "gf2" else GF4
        rng = random.Random(len(field_key))
        for _ in range(8):
            code = random_systematic_code(rng, field, n_lo=4, n_hi=10)
            d = derived_code(code)
            for beta in range(1, min(code.k, code.n - code.k) + 1):
                pl = compute_erasure_pattern_list(d, beta)
                brute = frozenset(
                    p for p in all_patterns(code.k, beta) if is_ml_correctable(d, p)
                )
                assert pl.patterns == brute

    @pytest.mark.parametrize("width", range(1, 17))
    def test_exhaustive_equals_brute_subset_scan_at_every_width(self, width):
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        rng = random.Random(5000 + width)
        for _ in range(12):
            r = rng.randint(1, 4)
            p_rows = planted_matrix(rng, peasant, r, rng.randint(r + 1, 7))
            d = derived_code(make_code(field, p_rows))
            for beta in range(1, d.n_tilde + 1):
                pl = compute_erasure_pattern_list(d, beta)
                assert pl.exhaustive
                assert pl.masks == independent_subsets_oracle(p_rows, beta, peasant)

    @pytest.mark.parametrize("width", [1, 2, 7, 8])
    def test_exhaustive_equals_brute_subset_scan_past_eight_lanes(self, width):
        # 9-12 rows: byte-lane columns longer than one 64-bit word
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        rng = random.Random(5100 + width)
        for _ in range(8):
            rank = rng.randint(2, 5)
            p_rows = tall_planted_matrix(
                rng, peasant, rng.randint(9, 12), rank, rng.randint(rank + 1, 9)
            )
            # P has more rows than columns here, so no systematic code of
            # rate above 1/2 has it: build the derived code directly
            h = FieldMatrix(field, p_rows)
            d = DerivedCode(field, h.ncols, h.ncols - matrix_rank(h), h)
            for beta in range(1, d.n_tilde + 1):
                pl = compute_erasure_pattern_list(d, beta)
                assert pl.exhaustive
                assert pl.masks == independent_subsets_oracle(p_rows, beta, peasant)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_keys_one_level_above_the_pair_listing_match_oracle(self, width, monkeypatch):
        # at beta = nrows the walk's residuals have three entries one level
        # above its pair listing. Past GF(2^8) their keys come straight from
        # the pick (_pair_keys): a zero residual drops a column there and a
        # repeated key a pair, and a pick whose first entry is zero is
        # reduced first; byte lanes never take that branch
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        outcomes, fallback = collections.Counter(), collections.Counter()
        real_keys, real_reduce = optimizer_module._pair_keys, optimizer_module._reduce_by

        def keys(*args):
            out = real_keys(*args)
            outcomes["zero"] += None in out
            outcomes["repeat"] += len(set(out) - {None}) < len(out) - out.count(None)
            return out

        def reduce(field_, tables, v, rest):
            fallback[isinstance(v, tuple) and len(v) == 3 and not v[0]] += 1
            return real_reduce(field_, tables, v, rest)

        monkeypatch.setattr(optimizer_module, "_pair_keys", keys)
        monkeypatch.setattr(optimizer_module, "_reduce_by", reduce)
        rng = random.Random(5200 + width)
        for _ in range(12):
            nrows = rng.randint(3, 4)
            p_rows = pair_level_matrix(rng, peasant, nrows, rng.randint(nrows + 1, nrows + 3))
            d = derived_code(make_code(field, p_rows))
            for beta in range(1, d.n_tilde + 1):
                pl = compute_erasure_pattern_list(d, beta)
                assert pl.exhaustive
                assert pl.masks == independent_subsets_oracle(p_rows, beta, peasant)
        if width > 8:
            assert outcomes["zero"] and outcomes["repeat"] and fallback[True]
        else:
            assert not outcomes

    def test_wide_field_cauchy_code_lists_every_pattern(self):
        d = derived_code(make_code(FieldSpec(16), cauchy18_rows()))
        pl = compute_erasure_pattern_list(d, 6)
        assert pl.exhaustive and len(pl.masks) == math.comb(12, 6) == 924
        assert compute_erasure_pattern_list(d, 7).masks == frozenset()

    def test_randomized_subset_of_exhaustive_and_deterministic(self):
        rng = random.Random(77)
        code = random_systematic_code(rng, GF2, n_lo=10, n_hi=14)
        d = derived_code(code)
        beta = 2
        exhaustive = compute_erasure_pattern_list(d, beta).patterns
        r1 = compute_erasure_pattern_list(d, beta, mode="randomized", budget=10, seed=3)
        r2 = compute_erasure_pattern_list(d, beta, mode="randomized", budget=10, seed=3)
        assert not r1.exhaustive
        assert r1.patterns == r2.patterns
        assert r1.patterns <= exhaustive
        assert r1.patterns

    def test_beta_above_rank_is_provably_empty(self):
        code = make_code(GF2, [[1, 1, 1], [1, 1, 1]])  # rank(P) = 1
        d = derived_code(code)
        pl = compute_erasure_pattern_list(d, 2, mode="randomized", budget=5, seed=0)
        assert pl.patterns == frozenset()
        assert pl.exhaustive

    def test_unknown_mode_rejected_even_above_rank(self):
        # above rank(P) the list is provably empty, but only for a real mode
        d = derived_code(c1_code())
        with pytest.raises(ValueError, match="unknown mode"):
            compute_erasure_pattern_list(d, 3, mode="bogus")
        with pytest.raises(ValueError, match="unknown mode"):
            compute_erasure_pattern_list(d, 2, mode="bogus")

    def test_bad_beta(self):
        d = derived_code(c1_code())
        with pytest.raises(ValueError):
            compute_erasure_pattern_list(d, 0)
        with pytest.raises(ValueError):
            compute_erasure_pattern_list(d, 4)

    def test_listing_keeps_masks_and_builds_patterns_on_demand(self):
        d = derived_code(c1_code())
        pl = compute_erasure_pattern_list(d, 2)
        assert "patterns" not in pl.__dict__
        assert (pl.masks, pl.k) == (frozenset({0b110, 0b101, 0b011}), 3)
        assert {p.mask for p in pl.patterns} == pl.masks
        # the cached view takes no part in equality or hashing
        plain = PatternList(frozenset(pl.masks), 3, 2, True)
        assert pl == plain and hash(pl) == hash(plain)


class TestListingOracle:
    """Randomized listing against the row-reduce-per-round oracle."""

    @pytest.mark.parametrize("name", ["c6_array", "c7_array"])
    def test_fixture_widths_match_oracle(self, name):
        cf = parse_code_file(FIXTURES_DIR / f"{name}.pchk")
        d = derived_code(cf.code)
        rows = [list(r) for r in cf.code.p.values()]
        low, rank = cf.d_tilde_min_hint - 1, cf.code.parity_rank
        for beta in (low, (low + rank) // 2, rank):
            seed = 1_000_003 + beta
            got = compute_erasure_pattern_list(d, beta, "randomized", budget=4, seed=seed)
            expected = randomized_listing_oracle(rows, TinyField(2), beta, 4, seed)
            assert expected
            assert {p.bits for p in got.patterns} == expected

    def test_quasi_cyclic_gf4_code_matches_oracle(self):
        # row shift 4 of k = 20: shift s reuses the verdict of s mod 4
        code = quasi_cyclic_code(5)
        d = derived_code(code)
        assert d.row_shift[0] < code.k
        rows = [list(r) for r in code.p.values()]
        for beta in range(1, code.parity_rank + 1):
            got = compute_erasure_pattern_list(d, beta, "randomized", budget=4, seed=beta)
            expected = randomized_listing_oracle(rows, TinyField(4), beta, 4, beta)
            assert expected
            assert {p.bits for p in got.patterns} == expected

    def test_c1_random_listing_matches_oracle(self):
        # rotating c1's columns by 1 keeps P's row space (the even-weight
        # words) but turns (0, 1, 1) into (1, 0, 1), no row of P: the scan
        # reads the row shift 3 = k and so tests every rotation
        code = c1_code()
        d = derived_code(code)
        assert d.row_shift == (3, (0, 1))
        rows = [list(r) for r in code.p.values()]
        cfg = OptimizerConfig(seed=7, exhaustive_limit=0)
        res = optimize_cpop(code, cfg)
        assert not res.exhaustive
        expected = {}
        for beta in range(1, code.parity_rank + 1):
            seed = optimizer_module._iter_seed(cfg, beta)
            got = compute_erasure_pattern_list(d, beta, "randomized", cfg.pattern_budget, seed)
            expected[beta] = randomized_listing_oracle(
                rows, TinyField(2), beta, cfg.pattern_budget, seed
            )
            assert expected[beta]
            assert {p.bits for p in got.patterns} == expected[beta]
        # the certified width's circulant is made of rows its listing keeps
        assert set(res.e_opt.rows) <= expected[res.beta_opt]

    @pytest.mark.parametrize("width", range(1, 17))
    def test_small_codes_match_oracle_at_every_width(self, width):
        # planted dependencies make the rounds' greedy pivots skip columns
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        rng = random.Random(8000 + width)
        for _ in range(4):
            r = rng.randint(1, 4)
            rows = planted_matrix(rng, peasant, r, rng.randint(r + 1, 8))
            d = derived_code(make_code(field, rows))
            for beta in range(1, d.n_tilde - d.k_tilde + 1):
                got = compute_erasure_pattern_list(d, beta, "randomized", budget=4, seed=beta)
                expected = randomized_listing_oracle(rows, peasant, beta, 4, beta)
                assert expected
                assert {p.bits for p in got.patterns} == expected

    def test_gf4_code_forced_randomized_matches_oracle(self, code_corpus):
        code = next(c for c in code_corpus[100:] if c.parity_rank >= 3)
        d = derived_code(code)
        rows = [list(r) for r in code.p.values()]
        for beta in range(1, code.parity_rank + 1):
            got = compute_erasure_pattern_list(d, beta, "randomized", budget=4, seed=beta)
            expected = randomized_listing_oracle(rows, TinyField(4), beta, 4, beta)
            assert expected
            assert {p.bits for p in got.patterns} == expected


class TestComputeMatrix:
    """The matrix search, _search_matrix, on support masks."""

    @staticmethod
    def _search(patterns, k, beta, seed=0):
        cfg = OptimizerConfig()
        return _search_matrix([p.mask for p in patterns], k, beta, cfg.exact_budget, seed,
                              cfg.subset_threshold, cfg.subset_tries)

    def test_all_weight_two_patterns_of_length_three(self):
        rows, complete = self._search(all_patterns(3, 2), 3, 2)
        assert rows is not None and complete
        assert e_matrix_violations(_e_matrix(rows, 3, 2), derived_code(c1_code())) == []

    def test_column_never_reachable(self):
        assert self._search([ErasurePattern((1, 1, 0))], 3, 2) == (None, True)

    def test_weight_one_gives_permutation(self):
        rows, _ = self._search(all_patterns(5, 1), 5, 1)
        assert sorted(rows) == [1 << j for j in range(5)]

    def test_budget_exhaustion_reported_incomplete(self):
        # no full shift orbit here, so the exact search must actually run
        rows = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)]
        rows = [ErasurePattern(r).mask for r in rows]
        found, complete = _search_matrix(rows, 4, 2, exact_budget=1, seed=0,
                                         subset_threshold=100, subset_tries=2)
        assert found is None and not complete
        found, complete = _search_matrix(rows, 4, 2, exact_budget=10_000, seed=0,
                                         subset_threshold=100, subset_tries=2)
        assert found is not None and complete

    def test_too_few_rows_is_proven_infeasible(self):
        rows = [ErasurePattern(r).mask for r in [(1, 0, 1), (0, 1, 1)]]
        found, complete = _search_matrix(rows, 3, 2, exact_budget=1,
                                         seed=0, subset_threshold=100, subset_tries=2)
        assert found is None and complete

    def test_circulant_shortcut_used_for_full_shift_orbits(self):
        k = 7
        orbit = {ErasurePattern.from_support(k, ((s + j) % k for j in (0, 2, 3)))
                 for s in range(k)}
        rows, complete = self._search(orbit, k, 3)
        assert complete
        assert set(rows) == {p.mask for p in orbit}

    @staticmethod
    def _first_full_orbit(rows, k):
        """Rotations of the first row, in sorted order, whose k rotations are
        distinct and all listed; rotation s moves position j to (j + s) mod k."""
        listed = set(rows)
        for p in sorted(listed):
            bits = format(p, f"0{k}b")
            rots = [int(bits[k - s:] + bits[:k - s], 2) for s in range(k)]
            if len(set(rots)) == k and listed.issuperset(rots):
                return rots
        return None

    @pytest.mark.parametrize("seed", range(24))
    def test_circulant_shortcut_matches_brute_reference(self, seed, monkeypatch):
        rng = random.Random(seed)
        k, beta, periodic = [(8, 4, (0, 2, 4, 6)), (9, 3, (0, 3, 6)), (12, 4, (0, 3, 6, 9))][seed % 3]
        orbits = {}
        while len(orbits) < 6:
            bits = format(sum(1 << (k - 1 - j) for j in rng.sample(range(k), beta)), f"0{k}b")
            orbit = sorted({int(bits[k - s:] + bits[:k - s], 2) for s in range(k)})
            if len(orbit) == k:
                orbits[orbit[0]] = orbit
        rows = []
        for orbit in orbits.values():  # every orbit misses one rotation
            dropped = rng.choice(orbit)
            rows += [m for m in orbit if m != dropped]
        if seed % 2:
            # one orbit complete: the one whose first row sorts last
            rows += orbits[max(orbits)]
        # a complete orbit of a periodic support sorts first but has repeats
        rows += [sum(1 << (k - 1 - (j + s) % k) for j in periodic) for s in range(k)]
        expected = self._first_full_orbit(rows, k)
        assert (expected is None) == (seed % 2 == 0)
        calls = []
        real = optimizer_module._rotations
        monkeypatch.setattr(optimizer_module, "_rotations",
                            lambda m, n: calls.append(m) or real(m, n))
        found, _ = _search_matrix(rows, k, beta, exact_budget=0, seed=0,
                                  subset_threshold=len(rows), subset_tries=1)
        assert found == expected
        assert len(calls) <= len(orbits) + 1  # one check per orbit

    def test_deterministic(self):
        patterns = all_patterns(6, 2)
        assert self._search(patterns, 6, 2, seed=5) == self._search(patterns, 6, 2, seed=5)


class TestRegularSubsetOracle:
    """The deadline search against the suffix-table oracle, node for node."""

    @staticmethod
    def _agree(rows, k, beta, budgets):
        for budget in budgets:
            try:
                got = optimizer_module._exact_regular_subset(rows, k, beta, budget)
            except optimizer_module._BudgetExhausted:
                got = "exhausted"
            assert got == regular_subset_oracle(rows, k, beta, budget)[0], budget

    def _pin(self, rows, k, beta):
        """Agree at budgets up to the oracle's node count N: exhausted below
        it, the same outcome from N on."""
        outcome, nodes = regular_subset_oracle(rows, k, beta, 10**6)
        assert outcome != "exhausted"
        sweep = range(1, nodes + 2) if nodes <= 300 else (1, nodes // 2, nodes - 1, nodes)
        self._agree(rows, k, beta, sweep)
        return outcome

    def test_seeded_small_instances(self):
        rng = random.Random(11)
        outcomes = set()
        for _ in range(60):
            k = rng.randint(3, 9)
            beta = rng.randint(1, k - 1)
            pool = [ErasurePattern.from_support(k, c).mask
                    for c in itertools.combinations(range(k), beta)]
            rows = sorted(rng.sample(pool, min(len(pool), rng.randint(k, 3 * k))))
            outcomes.add(type(self._pin(rows, k, beta)))
        assert outcomes == {list, type(None)}

    @pytest.mark.parametrize("name,beta", [("c6_array", 30), ("c6_array", 31), ("c7_array", 61)])
    def test_fixture_stop_width_lists(self, name, beta):
        # the scan's stop widths at seed 7, and c6's keep-going width: the
        # exact search runs out of budget, here on either side of the default
        d = derived_code(parse_code_file(FIXTURES_DIR / f"{name}.pchk").code)
        listed = compute_erasure_pattern_list(d, beta, "randomized", 48, 7 * 1_000_003 + beta)
        rows = sorted(listed.masks)
        assert len(rows) <= OptimizerConfig().subset_threshold
        budgets = (1, 2, 121, 122, 1_000, 3_333, 19_999, 20_000, 20_001)
        self._agree(rows, d.n_tilde, beta, budgets)
        # one full orbit plus a few listed rows: found after ~10^3 nodes
        orbit = optimizer_module._rotations(rows[0], d.n_tilde)
        mixed = sorted(set(orbit) | set(random.Random(3).sample(rows, 5)))
        assert isinstance(self._pin(mixed, d.n_tilde, beta), list)

    def test_column_short_of_beta_dead_at_the_root(self):
        # column 3 is covered twice, so no choice reaches beta = 3 there
        k, beta = 5, 3
        rows = sorted(ErasurePattern.from_support(k, c).mask
                      for c in itertools.combinations(range(k), beta) if 3 in c)[:2]
        rows += [ErasurePattern.from_support(k, c).mask
                 for c in itertools.combinations(range(k), beta) if 3 not in c]
        rows.sort()
        assert regular_subset_oracle(rows, k, beta, 10**6) == (None, 1)
        self._agree(rows, k, beta, (0, 1, 2))

    def test_every_column_full_before_the_rows_run_out(self):
        # all 15 weight-2 rows of length 6: the last 10 alone cover every
        # column beta times, so no deadline reaches back to the first 5
        k, beta = 6, 2
        rows = sorted(ErasurePattern.from_support(k, c).mask
                      for c in itertools.combinations(range(k), beta))
        later = rows[5:]
        assert all(sum(r >> c & 1 for r in later) >= beta for c in range(k))
        assert isinstance(self._pin(rows, k, beta), list)


class TestEagerScanOracle:
    def test_random_codes_match_eager_scan(self):
        # every width randomized, so most are certified by one orbit; small
        # listings make some scans stop early and a few succeed again later
        rng = random.Random(5)
        results = []
        for i in range(24):
            code = random_systematic_code(rng, (GF2, GF4)[i % 2], n_lo=8, n_hi=20,
                                          oracle_cap_bits=40)
            for keep_going in (False, True):
                cfg = OptimizerConfig(seed=i, exhaustive_limit=0, pattern_budget=4,
                                      keep_going=keep_going)
                res = optimize_cpop(code, cfg)
                assert res == eager_scan_oracle(code, cfg)
                results.append((res, code.parity_rank))
        assert any(res.beta_opt < rank for res, rank in results)
        assert any(res.extended_beta is not None for res, _ in results)

    def test_support_with_repeating_rotations_certifies_nothing(self):
        # columns 0, 1 and columns 2, 3 are equal; at width 2 a one-round
        # listing draws {0, 2} or {1, 3} (rotations repeat after 2 shifts)
        # or {0, 3} or {1, 2}, and each lists two rows: no 4 x 4 matrix
        code = make_code(GF2, [[1, 1, 0, 0], [0, 0, 1, 1]])
        for seed in range(8):
            cfg = OptimizerConfig(seed=seed, exhaustive_limit=0, pattern_budget=1)
            res = optimize_cpop(code, cfg)
            assert res == eager_scan_oracle(code, cfg)
            assert (res.beta_opt, res.iterations) == (1, 2)


class TestRotationZero:
    """Rotation 0 of a seeded round is beta of its greedy pivots, so
    _rounds records it correctable without testing it."""

    @pytest.mark.parametrize("name", ["c6_array", "c7_array"])
    def test_drawn_supports_are_independent(self, name):
        d = derived_code(parse_code_file(FIXTURES_DIR / f"{name}.pchk").code)
        rank = d.n_tilde - d.k_tilde
        for beta in (1, rank // 4, rank // 2, 3 * rank // 4, rank):
            supports = [base for base, _ in optimizer_module._rounds(d, beta, 16, beta)]
            assert len(supports) == 16
            for base in supports:
                assert bin(base).count("1") == beta
                assert d.independent(base), (beta, base)

    def test_seeded_rounds_record_rotation_zero_untested(self, monkeypatch):
        d = derived_code(parse_code_file(FIXTURES_DIR / "c6_array.pchk").code)
        tested = []
        monkeypatch.setattr(type(d), "independent", lambda self, mask: tested.append(mask))
        rounds = list(optimizer_module._rounds(d, 10, 4, 3))
        assert len(rounds) == 4
        assert [verdicts for _, verdicts in rounds] == [{base: True} for base, _ in rounds]
        assert tested == []


class TestScanWork:
    """Each randomized width draws one stream of at most pattern_budget
    rounds, which its certificate and its listing share, and no rotation of
    a round is tested twice."""

    @pytest.fixture
    def work(self, monkeypatch):
        """Runs a scan and checks its work: streams opened and rounds drawn
        per width, and the masks tested for independence."""
        streams, drawn, tested = collections.Counter(), collections.Counter(), []
        # how often each mask may be tested: once per round that has it
        # among its first g rotations and did not draw it
        allowed = collections.Counter()
        real_rounds, real_independent = optimizer_module._rounds, DerivedCode.independent

        def rounds(derived, beta, *args):
            streams[beta] += 1
            g = derived.row_shift[0]
            for base, verdicts in real_rounds(derived, beta, *args):
                drawn[beta] += 1
                allowed.update(set(optimizer_module._rotations(base, derived.n_tilde)[:g]) - {base})
                yield base, verdicts

        def independent(self, mask):
            tested.append(mask)
            return real_independent(self, mask)

        monkeypatch.setattr(optimizer_module, "_rounds", rounds)
        monkeypatch.setattr(DerivedCode, "independent", independent)

        def scan(code, cfg):
            for kept in (streams, drawn, tested, allowed):
                kept.clear()
            res = optimize_cpop(code, cfg)
            # every width here is randomized, and a scan tries them in turn
            low = res.d_tilde_min - 1
            assert all(optimizer_module._randomized(code.k, beta, cfg) for beta in streams)
            assert sorted(streams) == list(range(low, low + len(streams)))
            assert set(streams.values()) == {1}
            assert max(drawn.values()) <= cfg.pattern_budget
            assert collections.Counter(tested) <= allowed
            return tested, sum(drawn.values())

        return scan

    @pytest.mark.parametrize("name,keep_going,tests,rounds", [
        ("c6_array", False, 904, 124),
        ("c6_array", True, 1_384, 172),
        ("c7_array", False, 1_119, 147),
        ("c7_array", True, 1_119, 147),
    ])
    def test_fixture_scans_at_seed_7(self, work, name, keep_going, tests, rounds):
        cf = parse_code_file(FIXTURES_DIR / f"{name}.pchk")
        cfg = OptimizerConfig(seed=7, keep_going=keep_going, d_min=cf.d_min_hint,
                              d_tilde_min=cf.d_tilde_min_hint)
        tested, n_rounds = work(cf.code, cfg)
        assert len(set(tested)) == len(tested)  # no mask tested twice
        assert (len(tested), n_rounds) == (tests, rounds)

    def test_random_codes(self, work):
        # TestEagerScanOracle's codes: at these lengths rounds of one width
        # share rotations, and each round tests its own
        rng = random.Random(5)
        repeats = 0
        for i in range(24):
            code = random_systematic_code(rng, (GF2, GF4)[i % 2], n_lo=8, n_hi=20,
                                          oracle_cap_bits=40)
            for keep_going in (False, True):
                cfg = OptimizerConfig(seed=i, exhaustive_limit=0, pattern_budget=4,
                                      keep_going=keep_going)
                tested, _ = work(code, cfg)
                repeats += len(tested) - len(set(tested))
        assert repeats  # so the per-round bound, not distinctness, is checked here


class TestKeptWidths:
    """A certified width's matrix, built from its complete orbits, against
    the listing and search the scan no longer runs there."""

    @staticmethod
    def _searched_rows(d, beta, cfg):
        """The rows listing and searching the width give, checked against its
        smallest complete orbit; also whether the first orbit differs."""
        assert optimizer_module._randomized(d.n_tilde, beta, cfg)
        seed = optimizer_module._iter_seed(cfg, beta)
        found = list(optimizer_module._complete_orbits(
            d, optimizer_module._rounds(d, beta, cfg.pattern_budget, seed)))
        assert found, f"width {beta} is not certified"
        listed = compute_erasure_pattern_list(d, beta, "randomized", cfg.pattern_budget, seed)
        rows, complete = _search_matrix(listed.masks, d.n_tilde, beta, cfg.exact_budget, seed,
                                        cfg.subset_threshold, cfg.subset_tries)
        assert complete
        assert optimizer_module._rotations(min(found), d.n_tilde) == rows
        return rows, found[0] != min(found)

    def _check_widths(self, code, cfg, widths):
        d = derived_code(code)
        checked = {beta: self._searched_rows(d, beta, cfg) for beta in widths}
        # at some width the first certifying round is not the one the search takes
        assert any(first_differs for _, first_differs in checked.values())
        res = optimize_cpop(code, cfg)  # the kept width is among those checked
        assert res.e_opt == _e_matrix(checked[res.beta_opt][0], code.k, res.beta_opt)

    @pytest.mark.parametrize("name", ["c6_array", "c7_array"])
    def test_fixture_orbits_give_the_searched_matrix(self, name):
        cf = parse_code_file(FIXTURES_DIR / f"{name}.pchk")
        cfg = OptimizerConfig(seed=7, d_min=cf.d_min_hint, d_tilde_min=cf.d_tilde_min_hint)
        low, kept = cf.d_tilde_min_hint - 1, {"c6_array": 29, "c7_array": 60}[name]
        self._check_widths(cf.code, cfg, (low, (low + kept) // 2, kept))

    def test_quasi_cyclic_orbits_give_the_searched_matrix(self):
        # shift period 4 of k = 20; every width forced randomized
        code = quasi_cyclic_code(5)
        cfg = OptimizerConfig(seed=0, exhaustive_limit=0, pattern_budget=8,
                              d_min=5, d_tilde_min=7)  # this code's distances
        self._check_widths(code, cfg, range(1, code.parity_rank + 1))

    @pytest.mark.parametrize("name,keep_going,listed", [
        ("c6_array", False, [30]),
        ("c7_array", False, [61]),
        ("c6_array", True, [30, 31]),
        ("c7_array", True, [61]),
    ])
    def test_scan_lists_only_uncertified_widths(self, name, keep_going, listed, monkeypatch):
        cf = parse_code_file(FIXTURES_DIR / f"{name}.pchk")
        widths = []
        real = optimizer_module.compute_erasure_pattern_list

        def listing(derived, beta, *args):
            widths.append(beta)
            return real(derived, beta, *args)

        monkeypatch.setattr(optimizer_module, "compute_erasure_pattern_list", listing)
        optimize_cpop(cf.code, OptimizerConfig(seed=7, keep_going=keep_going,
                                               d_min=cf.d_min_hint,
                                               d_tilde_min=cf.d_tilde_min_hint))
        assert widths == listed


class TestEMatrix:
    def test_regularity_enforced(self):
        for rows, beta, message in [
            (((1, 1), (1, 0)), 1, "row 0 has weight 2, expected 1"),
            (((1, 0, 0), (0, 1, 0), (0, 1, 1)), 1, "row 2 has weight 2, expected 1"),
            (((1, 0), (1, 0)), 1, "column 0 has weight 2, expected 1"),
            (((1, 0), (0, 2)), 1, "entries must be 0 or 1"),
            # entries are held as ints: a float, a string or a list is no entry
            (((1.0, 0), (0, 1)), 1, "entries must be 0 or 1"),
            (((1, "0"), (0, 1)), 1, "entries must be 0 or 1"),
            ((([1], 0), (0, 1)), 1, "entries must be 0 or 1"),
            # weight 0 would build queries with no columns and no privacy tests
            (((0, 0, 0),) * 3, 0, "access matrix weight 0 is below 1"),
        ]:
            with pytest.raises(ValueError, match=message):
                EMatrix(rows, beta=beta)

    @pytest.mark.parametrize("beta", [1.0, True, "1", None])
    def test_weight_that_is_no_int_named(self, beta):
        # a float or bool weight used to pass, and building queries then
        # failed with an unnamed TypeError
        message = f"^access matrix weight {re.escape(repr(beta))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            EMatrix(((1, 0), (0, 1)), beta=beta)

    def test_list_rows_are_held_as_tuples_of_ints(self):
        # rows given as lists are copied into tuples: the matrix hashes like
        # its tuple twin, and changing the lists cannot reach it or its
        # cached layout
        rows = [[1, 0], [0, 1]]
        e = EMatrix(rows, beta=1)
        twin = EMatrix(((1, 0), (0, 1)), beta=1)
        assert e.rows == twin.rows and all(type(row) is tuple for row in e.rows)
        assert e == twin and hash(e) == hash(twin)
        z = e.canonical_slots
        rows[0][0], rows[0][1] = 0, 1
        assert e.rows == ((1, 0), (0, 1)) and e.canonical_slots is z == ((1, 0), (0, 1))
        bools = EMatrix([(True, False), (False, True)], beta=1)
        assert bools == twin and {type(b) for row in bools.rows for b in row} == {int}

    def test_validator_catches_uncorrectable_rows(self):
        code = make_code(GF2, [[1, 1, 0], [1, 1, 1]])  # columns 1 and 2 equal
        d = derived_code(code)
        bad = EMatrix(((1, 1, 0), (1, 0, 1), (0, 1, 1)), beta=2)
        problems = e_matrix_violations(bad, d)
        assert any("row 0" in p for p in problems)

    def test_validator_accepts_optimizer_output(self):
        res = optimize_cpop(c1_code(), OptimizerConfig(seed=0))
        assert e_matrix_violations(res.e_opt, derived_code(c1_code())) == []


class TestOptimize:
    def test_c1(self):
        res = optimize_cpop(c1_code(), OptimizerConfig(seed=0))
        assert res.beta_opt == 2
        assert res.theta_opt == Fraction(5, 2)
        assert res.iterations == 1
        assert res.exhaustive
        assert (res.d_min, res.d_tilde_min) == (2, 3)
        assert res.theta_non_opt == Fraction(5, 2)
        assert res.theta_lb == Fraction(5, 2)
        assert res.theta_baseline == Fraction(5, 1)

    def test_mds_runs_one_iteration(self):
        res = optimize_cpop(mds53_code(), OptimizerConfig(seed=0))
        assert res.iterations == 1
        assert res.beta_opt == 2  # n - k
        assert res.theta_opt == res.theta_lb == Fraction(5, 2)

    def test_second_mds_code(self):
        code = make_code(GF8, [[1, 1, 1, 1], [1, 2, 4, 3]])  # (6,4) Vandermonde parity
        from codedpir import min_distance

        assert min_distance(code.h) == 3
        res = optimize_cpop(code, OptimizerConfig(seed=0))
        assert res.iterations == 1
        assert res.beta_opt == 2

    def test_rank_deficient_loop_bound(self):
        code = make_code(GF2, [[1, 1, 1], [1, 1, 1]])
        res = optimize_cpop(code, OptimizerConfig(seed=0))
        assert code.parity_rank == 1 < code.n - code.k
        assert res.beta_opt == 1
        assert res.iterations == 1
        assert res.theta_opt == Fraction(5, 1)

    def test_no_matrix_at_the_initial_width_raises(self):
        # no rounds at all: every width, the initial one too, lists nothing
        cf = parse_code_file(FIXTURES_DIR / "c6_array.pchk")
        cfg = OptimizerConfig(pattern_budget=0, d_min=cf.d_min_hint,
                              d_tilde_min=cf.d_tilde_min_hint)
        with pytest.raises(RuntimeError, match=r"^no access matrix found even at the "
                           r"guaranteed initial width; raise pattern_budget$"):
            optimize_cpop(cf.code, cfg)

    def test_unprotected_symbol_rejected(self):
        code = make_code(GF2, [[1, 1, 0], [1, 0, 0]])  # column 3 of P is zero
        with pytest.raises(ValueError, match="no parity"):
            optimize_cpop(code, OptimizerConfig(seed=0))

    def test_early_return_on_infeasible_width(self):
        # columns 1 and 2 of P are equal, so width 2 has patterns but no
        # regular matrix; the scan must return the width-1 result after
        # two iterations
        code = make_code(GF2, [[1, 1, 0], [0, 0, 1]])
        res = optimize_cpop(code, OptimizerConfig(seed=0))
        assert res.beta_opt == 1
        assert res.iterations == 2
        assert res.extended_beta is None

    def test_hints_override_search(self):
        res = optimize_cpop(c1_code(), OptimizerConfig(seed=0, d_min=2, d_tilde_min=3))
        assert res.beta_opt == 2

    def test_impossible_hints_rejected(self):
        # c1 has rank(P) = 2, so any three columns of P are dependent
        with pytest.raises(ValueError, match=r"d_tilde_min 4 exceeds rank\(P\) \+ 1 = 3"):
            optimize_cpop(c1_code(), OptimizerConfig(seed=0, d_min=2, d_tilde_min=4))
        # a derived codeword x gives the codeword (x, 0)
        with pytest.raises(ValueError, match="d_min 3 exceeds d_tilde_min 2"):
            optimize_cpop(c1_code(), OptimizerConfig(seed=0, d_min=3, d_tilde_min=2))

    @pytest.mark.parametrize("name", [
        "exact_budget", "subset_threshold", "subset_tries", "pattern_budget",
        "exhaustive_limit", "min_distance_cap",
    ])
    def test_negative_search_sizes_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 0, got -1$"):
            OptimizerConfig(**{name: -1})
        assert getattr(OptimizerConfig(**{name: 0}), name) == 0

    def test_keep_going_reports_later_success_separately(self, monkeypatch):
        rng = random.Random(0)
        while True:
            code = random_systematic_code(rng, GF2, n_lo=8, n_hi=14)
            from codedpir import min_distance

            if min_distance(code.p) != 2 or code.parity_rank < 3:
                continue
            base = optimize_cpop(code, OptimizerConfig(seed=0))
            if base.beta_opt >= 3:
                break
        real_search = optimizer_module._search_matrix

        def failing_at_two(patterns, k, beta, *args, **kwargs):
            if beta == 2:
                return None, True
            return real_search(patterns, k, beta, *args, **kwargs)

        monkeypatch.setattr(optimizer_module, "_search_matrix", failing_at_two)
        faithful = optimize_cpop(code, OptimizerConfig(seed=0))
        assert faithful.beta_opt == 1
        assert faithful.iterations == 2
        extended = optimize_cpop(code, OptimizerConfig(seed=0, keep_going=True))
        assert extended.beta_opt == 1  # faithful result unchanged
        assert extended.iterations == 2
        assert extended.extended_beta == base.beta_opt
        assert e_matrix_violations(extended.extended_e, derived_code(code)) == []

    def test_random_codes_always_return_valid_matrices(self):
        rng = random.Random(31)
        for field in (GF2,):
            for _ in range(15):
                code = random_systematic_code(rng, field)
                res = optimize_cpop(code, OptimizerConfig(seed=1))
                d = derived_code(code)
                assert e_matrix_violations(res.e_opt, d) == []
                assert res.theta_opt <= res.theta_non_opt
                assert res.theta_opt >= res.theta_lb
                assert res.theta_opt <= res.theta_baseline
                if res.beta_opt == code.parity_rank:
                    assert res.theta_opt == Fraction(code.n, code.parity_rank)


class TestPriceFormulas:
    def test_cpop_values(self):
        assert cpop(5, 3, 2, 3) == Fraction(5, 2)
        assert float(cpop(154, 121, 5, 121)) == 30.8
        assert cpop(7, 4, 7, 4) == 1

    def test_cpop_validation(self):
        with pytest.raises(ValueError):
            cpop(5, 3, 0, 3)

    def test_reference_prices(self):
        code_11_6 = make_code(GF2, [[0] * 6 for _ in range(5)])
        lb, non_opt, baseline = theta_bounds(code_11_6, 4, 4)
        assert non_opt == Fraction(11, 3)
        assert lb == Fraction(11, 5)
        assert float(lb) == 2.2
        assert baseline == Fraction(11, 3)

        code_187_121 = make_code(GF2, [[0] * 121 for _ in range(66)])
        lb, non_opt, _ = theta_bounds(code_187_121, 7, 16)
        assert non_opt == Fraction(187, 15)
        assert lb == Fraction(187, 66)

    def test_lower_bound_identity(self):
        rng = random.Random(4)
        for _ in range(10):
            code = random_systematic_code(rng, GF2)
            lb, _, _ = theta_bounds(code, 2, 2)
            assert lb * (code.n - code.k) == code.n

    def test_reference_prices_need_real_distances(self):
        with pytest.raises(ValueError):
            theta_bounds(c1_code(), 1, 3)
