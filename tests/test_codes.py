import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedpir import (
    ErasurePattern,
    FieldMatrix,
    FieldSpec,
    MinDistanceCapError,
    NotSystematicError,
    PackedFile,
    RateError,
    StorageSymbol,
    code_from_parity_check,
    derived_code,
    encode_file,
    is_ml_correctable,
    min_distance,
)

from codedpir.algebra import bit_slices
from codedpir.workbench import parse_code_file

from conftest import (
    FIXTURES_DIR,
    GF2,
    GF4,
    GF8,
    GF16,
    c1_code,
    cauchy18_rows,
    make_code,
    mds53_code,
    planted_matrix,
    quasi_cyclic_code,
    random_systematic_code,
    tall_planted_matrix,
)
from oracles import (
    PeasantField,
    TinyField,
    column_rank,
    combine_components,
    encode_oracle,
    ml_correctable_oracle,
    min_distance_oracle,
    min_weight_oracle,
    nullspace_vectors,
    row_shift_oracle,
    support_mask,
)


class TestCodeConstruction:
    def test_c1(self):
        code = c1_code()
        assert (code.n, code.k) == (5, 3)
        assert code.p.values() == ((1, 1, 0), (0, 1, 1))
        assert code.parity_rank == 2

    def test_rate_one_half_rejected(self):
        h = FieldMatrix(GF2, [[1, 0, 1, 0], [0, 1, 0, 1]])  # (I | I)
        with pytest.raises(RateError):
            code_from_parity_check(h)

    def test_non_identity_right_block_rejected(self):
        h = FieldMatrix(GF2, [[1, 1, 0, 1, 0], [0, 1, 1, 1, 1]])
        with pytest.raises(NotSystematicError):
            code_from_parity_check(h)

    def test_rate_property(self):
        from fractions import Fraction

        assert c1_code().rate == Fraction(3, 5)


class TestDerivedCode:
    def test_c1_dimensions(self):
        d = derived_code(c1_code())
        assert (d.n_tilde, d.k_tilde) == (3, 1)
        assert d.h_tilde.values() == ((1, 1, 0), (0, 1, 1))

    def test_mds_dimensions(self):
        d = derived_code(mds53_code())
        assert (d.n_tilde, d.k_tilde) == (3, 1)

    def test_zero_parity_part(self):
        code = make_code(GF2, [[0, 0, 0], [0, 0, 0]])
        assert derived_code(code).k_tilde == 3

    @pytest.mark.parametrize("field", [GF2, GF16])
    def test_zero_parity_part_has_no_independent_column(self, field):
        # rank(P) = 0: the reduced columns are packed at length 0
        d = derived_code(make_code(field, [[0, 0, 0], [0, 0, 0]]))
        assert d.independent(0) and not d.independent(0b100)


class TestMinDistance:
    def test_c1_derived_distance(self):
        assert min_distance(c1_code().p) == 3

    def test_c1_code_distance(self):
        assert min_distance(c1_code().h) == 2

    def test_zero_column_gives_one(self):
        m = FieldMatrix(GF2, [[0, 1, 1], [0, 0, 1]])
        assert min_distance(m) == 1

    def test_mds_distances(self):
        code = mds53_code()
        assert min_distance(code.h) == 3
        assert min_distance(code.p) == 3

    def test_cap_exceeded_mentions_hints(self):
        wide = FieldMatrix(GF2, [[1] * 26])
        with pytest.raises(MinDistanceCapError, match="hint"):
            min_distance(wide)
        assert min_distance(FieldMatrix(GF2, [[1] * 26]), cap=30) == 2

    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_codeword_enumeration_oracle(self, order):
        field = GF2 if order == 2 else GF4
        tiny = TinyField(order)
        rng = random.Random(order * 31)
        for _ in range(15):
            code = random_systematic_code(rng, field, n_lo=4, n_hi=10)
            if code.k > 6:
                continue  # keep the q^k message enumeration small
            p_rows = [list(r) for r in code.p.values()]
            assert min_distance(code.h) == min_weight_oracle(p_rows, code.n, code.k, tiny)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_matches_brute_force_subset_scan_at_every_width(self, width):
        # planted zero columns, proportional pairs and span-of-two columns
        # make the zero test and the proportional-pair test decide
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        rng = random.Random(4000 + width)
        for _ in range(30):
            rows = planted_matrix(rng, peasant, rng.randint(1, 5), rng.randint(2, 7))
            expected = min_distance_oracle(rows, peasant)
            if expected is None:
                with pytest.raises(ValueError, match="trivial"):
                    min_distance(FieldMatrix(field, rows))
            else:
                assert min_distance(FieldMatrix(field, rows)) == expected

    @pytest.mark.parametrize("width", [1, 2, 7, 8])
    def test_matches_brute_force_on_columns_past_eight_lanes(self, width):
        # 9-12 rows: byte-lane columns longer than one 64-bit word
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        rng = random.Random(4100 + width)
        for _ in range(25):
            rank = rng.randint(2, 6)
            rows = tall_planted_matrix(
                rng, peasant, rng.randint(9, 12), rank, rng.randint(rank + 1, 10)
            )
            assert min_distance(FieldMatrix(field, rows)) == min_distance_oracle(rows, peasant)

    @pytest.mark.parametrize("width", [9, 12, 16])
    def test_two_coordinate_pair_test_matches_oracle(self, width):
        # 2-4 rows, so the pair test meets residuals of two coordinates; a
        # quarter of the entries 0, so many residuals have a zero in either
        # coordinate; a planted proportional pair or a column in the span
        # of two others
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        rng = random.Random(4200 + width)

        def entry():
            return rng.randrange(1, field.order) if rng.random() < 0.75 else 0

        for _ in range(40):
            nrows = rng.randint(2, 4)
            ncols = rng.randint(nrows + 1, nrows + 3)
            cols = [[entry() for _ in range(nrows)] for _ in range(ncols)]
            a, b, c = rng.sample(range(len(cols)), 3)
            x, y = rng.randrange(1, field.order), rng.choice([0, rng.randrange(1, field.order)])
            cols[c] = [peasant.mul(x, s) ^ peasant.mul(y, t) for s, t in zip(cols[a], cols[b])]
            rows = [[col[i] for col in cols] for i in range(nrows)]
            expected = min_distance_oracle(rows, peasant)
            assert min_distance(FieldMatrix(field, rows)) == expected

    def test_a_column_in_the_span_of_two_others(self):
        # rank 4 starts the search at 5; the set {0, 1, 2} closes by the
        # pair test at the node holding column 0
        rows = [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        assert min_distance(FieldMatrix(GF2, rows)) == 3
        rows = [[1, 0, 3, 0, 0], [0, 1, 2, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        assert min_distance(FieldMatrix(GF4, rows)) == 3

    def test_independent_columns_are_a_trivial_code(self):
        with pytest.raises(ValueError, match="trivial"):
            min_distance(FieldMatrix(GF4, [[1, 0], [0, 1], [1, 1]]))

    def test_wide_field_cauchy_code_is_mds(self):
        code = make_code(FieldSpec(16), cauchy18_rows())
        assert code.h == parse_code_file(FIXTURES_DIR / "cauchy18_gf65536.pchk").code.h
        assert min_distance(code.h) == 7
        assert min_distance(code.p) == 7


class TestMlCorrectable:
    def test_c1_examples(self):
        d = derived_code(c1_code())
        assert is_ml_correctable(d, ErasurePattern((1, 0, 1)))
        assert not is_ml_correctable(d, ErasurePattern((1, 1, 1)))
        assert is_ml_correctable(d, ErasurePattern((0, 0, 0)))

    def test_length_mismatch(self):
        d = derived_code(c1_code())
        with pytest.raises(ValueError):
            is_ml_correctable(d, ErasurePattern((1, 0)))

    @pytest.mark.parametrize("mask", [8, -8, 1 << 40, -1])
    def test_masks_outside_the_code_rejected(self, mask):
        # c1 has k = 3: a mask must lie in 0..7
        with pytest.raises(ValueError, match=rf"support mask {mask} .*\(k = 3\)"):
            derived_code(c1_code()).independent(mask)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_independent_matches_column_rank_at_every_width(self, width):
        # planted dependencies make both verdicts occur at every weight
        field = FieldSpec(width)
        peasant = PeasantField(field.modulus, width)
        rng = random.Random(7000 + width)
        for _ in range(8):
            r = rng.randint(1, 4)
            k = rng.randint(r + 1, 8)
            rows = planted_matrix(rng, peasant, r, k)
            d = derived_code(make_code(field, rows))
            for mask in rng.sample(range(1 << k), min(1 << k, 48)):
                support = [j for j in range(k) if mask >> (k - 1 - j) & 1]
                expected = column_rank(rows, support, peasant) == len(support)
                assert d.independent(mask) == expected, (rows, support)

    @pytest.mark.parametrize("order", [2, 4])
    def test_agrees_with_codeword_oracle(self, order):
        field = GF2 if order == 2 else GF4
        tiny = TinyField(order)
        rng = random.Random(order * 77)
        for _ in range(12):
            code = random_systematic_code(rng, field, n_lo=4, n_hi=10)
            d = derived_code(code)
            words = [support_mask(w) for w in
                     nullspace_vectors([list(r) for r in code.p.values()], tiny)]
            k = code.k
            for bits in itertools.product((0, 1), repeat=k):
                pattern = ErasurePattern(bits)
                expected = ml_correctable_oracle(words, support_mask(bits))
                assert is_ml_correctable(d, pattern) == expected

    def test_all_patterns_below_derived_distance_correctable(self):
        rng = random.Random(5)
        for field in (GF2, GF4):
            for _ in range(10):
                code = random_systematic_code(rng, field, n_lo=4, n_hi=12)
                d = derived_code(code)
                dt = min_distance(code.p)
                for w in range(dt):
                    for sup in itertools.combinations(range(code.k), w):
                        assert is_ml_correctable(
                            d, ErasurePattern.from_support(code.k, sup)
                        )

    C7 = parse_code_file(FIXTURES_DIR / "c7_array.pchk").code
    C7_ROWS = [list(r) for r in C7.p.values()]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_agrees_with_oracle_rank_at_fixture_size(self, data):
        # every width from 1 to rank(P) + 1 on the (187,121) array code,
        # half the draws made dependent on purpose by swapping in a column
        # from the span of the others (none exists below d_tilde = 16)
        code, rows, gf2 = self.C7, self.C7_ROWS, TinyField(2)
        k, rank = code.k, code.parity_rank
        beta = data.draw(st.integers(1, rank + 1), label="beta")
        support = data.draw(st.permutations(range(k)), label="order")[:beta]
        if beta >= 2 and data.draw(st.booleans(), label="make dependent"):
            others = support[:-1]
            base = column_rank(rows, others, gf2)
            in_span = [
                j for j in range(k)
                if j not in others and column_rank(rows, others + [j], gf2) == base
            ]
            if in_span:
                support = others + [data.draw(st.sampled_from(in_span), label="span column")]
                assert column_rank(rows, support, gf2) < beta
        expected = column_rank(rows, support, gf2) == beta
        pattern = ErasurePattern.from_support(k, support)
        assert is_ml_correctable(derived_code(code), pattern) == expected

    def test_code_distance_never_exceeds_derived_distance(self):
        rng = random.Random(6)
        for field in (GF2, GF4, GF8):
            for _ in range(10):
                code = random_systematic_code(rng, field, n_lo=4, n_hi=12)
                assert min_distance(code.h) <= min_distance(code.p)


class TestShiftPeriod:
    """The code's one shift symmetry as the width scan reads it
    (DerivedCode.row_shift), the basis of the listing's verdict reuse."""

    QC = quasi_cyclic_code(5)
    C7 = parse_code_file(FIXTURES_DIR / "c7_array.pchk").code

    @pytest.mark.parametrize(
        "name", ["c2like", "c3like", "c4like", "c5like", "c6_array", "c7_array", "qc_gf4"]
    )
    def test_matches_oracle(self, name):
        if name == "qc_gf4":
            code = self.QC
        else:
            code = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code
        # the scan's detector is recovery's, on the same P
        g, perm = derived_code(code).row_shift
        assert (g, perm) == code.row_shift
        assert g == row_shift_oracle(code.p.values())
        assert code.k % g == 0
        if name in ("c6_array", "c7_array", "qc_gf4"):
            assert g < code.k

    @pytest.mark.parametrize("name", ["c7_array", "qc_gf4"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rotation_by_period_keeps_independence(self, name, data):
        code = self.C7 if name == "c7_array" else self.QC
        d = derived_code(code)
        # weights around rank(P), where both verdicts occur
        k, g, rank = code.k, d.row_shift[0], code.parity_rank
        beta = data.draw(st.integers(max(1, rank - 4), min(k, rank + 1)), label="beta")
        support = data.draw(st.permutations(range(k)), label="order")[:beta]
        s = g * data.draw(st.integers(0, k // g - 1), label="multiple")
        mask = ErasurePattern.from_support(k, support).mask
        rotated = ErasurePattern.from_support(k, [(j + s) % k for j in support]).mask
        assert d.independent(rotated) == d.independent(mask)


class TestRowShift:
    """LinearCode.row_shift: the smallest column shift that maps P's rows
    onto P's rows, and the row permutation it makes."""

    @staticmethod
    def _check(code):
        g, perm = code.row_shift
        rows = code.p.values()
        k = code.k
        assert g == row_shift_oracle(rows)
        assert sorted(perm) == list(range(len(rows)))
        for i, row in enumerate(rows):
            assert all(rows[perm[i]][(c + g) % k] == row[c] for c in range(k)), i
        return g, perm

    @pytest.mark.parametrize("name", ["c6_array", "c7_array"])
    def test_array_codes_shift_by_eleven(self, name):
        code = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code
        g, perm = self._check(code)
        assert g == 11
        assert perm != tuple(range(len(perm)))

    @pytest.mark.parametrize(
        "name", ["c2like", "c3like", "c4like", "c5like", "cauchy18_gf65536"]
    )
    def test_no_shift_below_k(self, name):
        code = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code
        assert self._check(code) == (code.k, tuple(range(code.n - code.k)))

    def test_repeated_rows_matched_one_to_one(self):
        a, b = [1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0]
        code = make_code(GF2, [a, a, b, b])
        g, perm = self._check(code)
        assert g == 3
        assert sorted(perm[:2]) == [2, 3] and sorted(perm[2:]) == [0, 1]

    def test_repeats_must_match_in_number(self):
        # rotating by 3 swaps a and b, but a appears twice and b once
        a, b = [1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0]
        code = make_code(GF2, [a, a, b])
        assert self._check(code) == (6, (0, 1, 2))

    @pytest.mark.parametrize("width", [1, 2, 4, 16])
    def test_quasi_cyclic_codes(self, width):
        code = quasi_cyclic_code(width, field=FieldSpec(width), size=3)
        g, _ = self._check(code)
        assert 4 % g == 0


class TestEncodeFile:
    def _symbols(self, field, values, ell=1):
        return [StorageSymbol(field, (v,) * ell) for v in values]

    def test_c1_parity_columns(self):
        code = c1_code()
        x = [self._symbols(GF2, [1, 0, 1]), self._symbols(GF2, [0, 1, 1])]
        enc = encode_file(code, x)
        for row in enc:
            # a sum of symbols is the XOR of their packed bits
            assert row[3].bits == row[0].bits ^ row[1].bits
            assert row[4].bits == row[1].bits ^ row[2].bits

    def test_zero_file(self):
        code = c1_code()
        x = [[StorageSymbol.from_bits(GF2, 4, 0)] * 3 for _ in range(2)]
        enc = encode_file(code, x)
        assert all(sym.bits == 0 for row in enc for sym in row)

    # widths 1, 2, 7, 8, 9 and 16; payloads of 1, 3, 64 and 65 components,
    # whose w*ell bits fill part of a lane's last 64-bit word, all of it, or
    # spill one bit into the next; one stripe (a stack of one lane) or five;
    # the file given as nested symbols or packed
    @pytest.mark.parametrize("order", [2, 4, 128, 256, 512, 65536])
    def test_rows_satisfy_parity_checks(self, order):
        field = FieldSpec(order.bit_length() - 1)
        oracle = PeasantField(field.modulus, field.width)
        rng = random.Random(order)
        for ell, stripes, packed in itertools.product((1, 3, 64, 65), (1, 5), (False, True)):
            # nothing here enumerates the derived code, so its size is not capped
            code = random_systematic_code(rng, field, n_lo=4, n_hi=10, oracle_cap_bits=1 << 10)
            x = [
                [tuple(rng.randrange(field.order) for _ in range(ell)) for _ in range(code.k)]
                for _ in range(stripes)
            ]
            if packed:
                pack = bit_slices(field, ell).pack
                given = PackedFile(field, ell, code.k, [pack(v) for row in x for v in row])
            else:
                given = [[StorageSymbol(field, v) for v in row] for row in x]
            encoded = encode_file(code, given)
            expected = encode_oracle(code.p.values(), x, oracle)
            assert isinstance(encoded, PackedFile) and (encoded.ell, encoded.k) == (ell, code.n)
            assert [[sym.components for sym in row] for row in encoded] == expected
            for row in expected:
                # syndrome computed directly from H with oracle arithmetic
                for hrow in code.h.values():
                    assert combine_components(hrow, row, oracle) == (0,) * ell

    def test_dimension_mismatch(self):
        code = c1_code()
        with pytest.raises(ValueError):
            encode_file(code, [self._symbols(GF2, [1, 0])])

    def test_wrong_field_rejected(self):
        code = c1_code()
        with pytest.raises(ValueError):
            encode_file(code, [self._symbols(GF4, [1, 0, 1])])


class TestSymbolsAndPatterns:
    def test_symbol_arithmetic(self):
        # a symbol has no arithmetic of its own: the library XORs and scales
        # its packed bits, which must be the component-wise sum and product
        oracle = PeasantField(GF8.modulus, GF8.width)
        slices = bit_slices(GF8, 3)
        a = StorageSymbol(GF8, (1, 2, 3))
        b = StorageSymbol(GF8, (4, 0, 3))
        total = StorageSymbol.from_bits(GF8, 3, a.bits ^ b.bits)
        assert total.components == combine_components([1, 1], [a.components, b.components], oracle)
        assert total.components == (5, 2, 0)
        for c in range(GF8.order):
            scaled = slices.unpack(slices.scale(a.bits, c))
            assert scaled == combine_components([c], [a.components], oracle)

    def test_symbol_mismatches(self):
        # one payload per (field, length): symbols over another field or of
        # another length are other symbols, and an empty one is no symbol
        assert StorageSymbol(GF2, (1,)) != StorageSymbol(GF2, (1, 0))
        assert StorageSymbol(GF2, (1,)) != StorageSymbol(GF4, (1,))
        assert StorageSymbol(GF4, (1, 2)) == StorageSymbol.from_bits(GF4, 2, 0b1001)
        with pytest.raises(ValueError):
            StorageSymbol(GF2, ())
        with pytest.raises(ValueError, match="does not fit 2 planes of 2 bits"):
            StorageSymbol.from_bits(GF4, 2, 1 << 4)

    def test_pattern_helpers(self):
        p = ErasurePattern((1, 0, 1, 0))
        assert p.weight == 2
        assert p.support() == (0, 2)
        assert ErasurePattern.from_support(4, (0, 2)) == p
        with pytest.raises(ValueError):
            ErasurePattern((2, 0))
