import ast
import itertools
import pickle
import random
from array import array
from pathlib import Path

import pytest

from codedpir.algebra import (
    DEFAULT_MODULI,
    FieldMatrix,
    FieldMismatchError,
    FieldSpec,
    ReducibleModulusError,
    SingularSystemError,
    _eliminate,
    _lane_keys,
    _lane_product,
    _left_inverse,
    _product_tables,
    _proportional_keys,
    _reduce_by,
    _row_keys,
    _stack,
    _stride,
    _walk_tables,
    bit_slices,
    column_vectors,
    field_new,
    matrix_rank,
    poly_str,
    rref,
    solve,
)

from codedpir.codes import StorageSymbol
from codedpir.workbench import parse_code_file

from conftest import FIXTURES_DIR, planted_matrix
from oracles import PeasantField, TinyField, brute_rank, combine_components, peasant_mul, rref_oracle


class TestFieldConstruction:
    def test_every_default_width_builds(self):
        for w in range(1, 17):
            spec = field_new(w)
            assert spec.order == 1 << w
            assert spec.modulus == DEFAULT_MODULI[w]

    def test_gf2_is_plain_xor_field(self):
        f = field_new(1)
        assert f.add(1, 1) == 0
        assert f.mul(1, 1) == 1
        assert f.mul(1, 0) == 0

    def test_explicit_irreducible_modulus_accepted(self):
        spec = field_new(3, 0b1011)  # x^3 + x + 1
        assert spec.width == 3

    def test_reducible_modulus_names_a_factor(self):
        with pytest.raises(ReducibleModulusError, match=r"reducible: divisible by x\+1"):
            field_new(3, 0b1001)  # x^3 + 1 = (x+1)(x^2+x+1)

    def test_width_out_of_range(self):
        with pytest.raises(ValueError):
            field_new(0)
        with pytest.raises(ValueError):
            field_new(17)

    def test_modulus_degree_must_match_width(self):
        with pytest.raises(ValueError, match="degree"):
            field_new(3, 0b10011)

    def test_poly_str(self):
        assert poly_str(0b1011) == "x^3+x+1"
        assert poly_str(0b11) == "x+1"
        assert poly_str(0b10) == "x"


class TestFieldArithmetic:
    def test_gf8_mul_example(self):
        # x * x^2 = x^3 = x + 1 under modulus x^3 + x + 1
        f = field_new(3, 0b1011)
        assert f.mul(0b010, 0b100) == 0b011

    @pytest.mark.parametrize("width", range(2, 17))
    def test_mul_matches_peasant_oracle(self, width):
        f = field_new(width)
        rng = random.Random(width)
        for _ in range(300):
            a = rng.randrange(f.order)
            b = rng.randrange(f.order)
            assert f.mul(a, b) == peasant_mul(a, b, f.modulus, width)

    # irreducible moduli whose root x is not a generator: x has order 5,
    # 73 and 21845 in GF(16), GF(512) and GF(65536)
    @pytest.mark.parametrize("width, modulus", [(4, 0b11111), (9, 0x203), (16, 0x1002B)])
    def test_non_primitive_modulus_matches_oracle(self, width, modulus):
        f = field_new(width, modulus)
        oracle = PeasantField(modulus, width)
        rng = random.Random(modulus)
        pairs = (
            itertools.product(range(f.order), repeat=2) if width <= 4
            else [(rng.randrange(f.order), rng.randrange(1, f.order)) for _ in range(300)]
        )
        for a, b in pairs:
            assert f.mul(a, b) == oracle.mul(a, b)
            if b:
                assert f.inv(b) == oracle.inv(b)

    @pytest.mark.parametrize("width, modulus", [(1, None), (4, None), (4, 0b11111), (16, None)])
    def test_pickle_round_trip(self, width, modulus):
        f = field_new(width, modulus)
        data = pickle.dumps(f)
        g = pickle.loads(data)
        assert g == f and g.modulus == f.modulus
        assert len(data) < 100  # width and modulus; the tables are rebuilt on load
        rng = random.Random(width)
        for _ in range(50):
            a, b = rng.randrange(f.order), rng.randrange(f.order)
            assert g.mul(a, b) == peasant_mul(a, b, f.modulus, width)

    def test_specs_of_one_field_share_tables(self):
        for width, modulus in [(16, None), (16, 0x1002B), (4, None)]:
            a, b = field_new(width, modulus), FieldSpec(width, modulus)
            assert a._exp is b._exp and a._log is b._log
        assert field_new(16)._exp is not field_new(16, 0x1002B)._exp

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_field_axioms_exhaustive(self, width):
        f = field_new(width)
        elems = range(f.order)
        for a, b in itertools.product(elems, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, a) == 0

    @pytest.mark.parametrize("width", range(1, 17))
    def test_inverse_law(self, width):
        f = field_new(width)
        oracle = PeasantField(f.modulus, width)
        values = range(1, f.order) if width <= 6 else random.Random(width).sample(
            range(1, f.order), 64
        )
        for a in values:
            assert f.inv(a) == oracle.inv(a)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            field_new(4).inv(0)
        with pytest.raises(ZeroDivisionError):
            field_new(16).div(5, 0)

    @pytest.mark.parametrize("width, value", [(4, -1), (4, 16), (16, 70000), (16, -1), (1, 2)])
    def test_mul_rejects_out_of_range(self, width, value):
        f = field_new(width)
        with pytest.raises(ValueError, match=rf"value {value} outside GF\(2\^{width}\)"):
            f.mul(value, 1)
        with pytest.raises(ValueError, match=rf"value {value} outside"):
            f.mul(1, value)

    @pytest.mark.parametrize("width, value", [(4, -1), (4, 16), (16, 70000), (16, -1), (1, 2)])
    def test_inv_rejects_out_of_range(self, width, value):
        with pytest.raises(ValueError, match=rf"value {value} outside GF\(2\^{width}\)"):
            field_new(width).inv(value)

    @pytest.mark.parametrize("width, value", [(4, -1), (4, 16), (16, 70000), (16, -1), (1, 2)])
    def test_div_rejects_out_of_range(self, width, value):
        f = field_new(width)
        with pytest.raises(ValueError, match=rf"value {value} outside GF\(2\^{width}\)"):
            f.div(value, 1)
        with pytest.raises(ValueError, match=rf"value {value} outside"):
            f.div(1, value)


class TestRref:
    def test_identity_fixed_point(self):
        f = field_new(1)
        m = FieldMatrix(f, [[int(i == j) for j in range(4)] for i in range(4)])
        r, rank, pivots = rref(m)
        assert r == m
        assert rank == 4
        assert pivots == (0, 1, 2, 3)

    def test_c1_parity_part(self):
        f = field_new(1)
        p = FieldMatrix(f, [[1, 1, 0], [0, 1, 1]])
        _, rank, pivots = rref(p)
        assert rank == 2
        assert pivots == (0, 1)

    def test_zero_matrix(self):
        f = field_new(2)
        m = FieldMatrix(f, [[0] * 4 for _ in range(3)])
        r, rank, pivots = rref(m)
        assert r == m
        assert rank == 0
        assert pivots == ()

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 16])
    def test_idempotent_on_random_matrices(self, width):
        f = field_new(width)
        rng = random.Random(17 * width)
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = FieldMatrix(
                f, [[rng.randrange(f.order) for _ in range(nc)] for _ in range(nr)]
            )
            r, rank, pivots = rref(m)
            r2, rank2, pivots2 = rref(r)
            assert r2 == r
            assert (rank2, pivots2) == (rank, pivots)

    @pytest.mark.parametrize("order", [2, 4])
    def test_rank_matches_determinant_oracle(self, order):
        width = 1 if order == 2 else 2
        f = field_new(width)
        tiny = TinyField(order)
        rng = random.Random(order)
        for _ in range(25):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randrange(order) for _ in range(nc)] for _ in range(nr)]
            assert matrix_rank(FieldMatrix(f, rows)) == brute_rank(rows, tiny)

    @staticmethod
    def _agrees_with_oracle(m: FieldMatrix):
        oracle_rows, rank, pivots = rref_oracle(m.values(), PeasantField(m.field.modulus,
                                                                        m.field.width))
        r, rank2, pivots2 = rref(m)
        assert (rank2, pivots2) == (rank, pivots)
        assert r.values() == tuple(map(tuple, oracle_rows))
        assert matrix_rank(m) == rank

    @pytest.mark.parametrize("width", range(1, 17))
    def test_matches_oracle_at_every_width(self, width):
        f = field_new(width)
        mul = PeasantField(f.modulus, width).mul
        rng = random.Random(31 * width)
        for trial in range(24):
            nr, nc = rng.randint(1, 6), rng.randint(1, 10)  # often more columns than rows
            rows = [[rng.randrange(f.order) for _ in range(nc)] for _ in range(nr)]
            if trial % 3 == 0:  # a row that is a combination of two others
                a, b = rng.randrange(nr), rng.randrange(nr)
                ca, cb = rng.randrange(f.order), rng.randrange(f.order)
                rows.append([mul(ca, x) ^ mul(cb, y) for x, y in zip(rows[a], rows[b])])
                rng.shuffle(rows)
            if trial % 2 == 0:  # zero columns
                for j in rng.sample(range(nc), rng.randint(1, nc)):
                    for row in rows:
                        row[j] = 0
            self._agrees_with_oracle(FieldMatrix(f, rows))

    @pytest.mark.parametrize(
        "name",
        ["c2like", "c3like", "c4like", "c5like", "c6_array", "c7_array", "cauchy18_gf65536"],
    )
    def test_fixture_parity_parts_match_oracle(self, name):
        self._agrees_with_oracle(parse_code_file(FIXTURES_DIR / f"{name}.pchk").code.p)

    @pytest.mark.parametrize("name", ["c6_array", "c7_array"])
    @pytest.mark.parametrize("s", [1, 11])
    def test_stacked_rotations_match_oracle(self, name, s):
        # P stacked on its rotation by s: by 11, P's rows are permuted (the
        # array codes' row shift), so the stack keeps rank(P); by 1 it does not
        p = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code.p
        rows = [list(r) for r in p.values()]
        self._agrees_with_oracle(FieldMatrix(p.field, rows + [r[-s:] + r[:-s] for r in rows]))


class TestWalkKernels:
    """The distance search's and listing's column kernels: byte lanes and
    their product tables up to GF(2^8), the two-coordinate pair key above."""

    @pytest.mark.parametrize("width,modulus", [
        *((w, None) for w in range(1, 9)), (8, 0b100011011),
    ])
    def test_product_tables_match_mul(self, width, modulus):
        f = field_new(width, modulus)
        times, over = _product_tables(width, f.modulus)
        assert len(times) == len(over) == f.order
        assert all(len(t) == 256 and not any(t[f.order:]) for t in times)
        for c in range(f.order):  # every pair, 65,536 at w = 8
            assert list(times[c][: f.order]) == [f.mul(c, x) for x in range(f.order)]
        assert over[0] is times[0]
        assert all(over[c] is times[f.inv(c)] for c in range(1, f.order))

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_reduce_by_clears_the_pivot_lane(self, width):
        f = field_new(width)
        peasant = PeasantField(f.modulus, width)
        rng = random.Random(900 + width)
        for _ in range(20):
            nrows = rng.randint(1, 12)
            cols = [[rng.randrange(f.order) for _ in range(nrows)] for _ in range(6)]
            p = rng.randrange(nrows)
            v = [0] * p + [rng.randrange(1, f.order)] + cols[0][p + 1 :]
            lanes = column_vectors(FieldMatrix(f, [list(r) for r in zip(v, *cols)]))
            got = _reduce_by(f, _walk_tables(f), lanes[0], lanes[1:])
            inv = f.inv(v[p])
            expected = [
                [x ^ peasant.mul(peasant.mul(u[p], inv), y) for x, y in zip(u, v)] for u in cols
            ]
            assert got == [int.from_bytes(bytes(u), "little") for u in expected]

    @pytest.mark.parametrize("width", [9, 12, 16])
    def test_two_coordinate_keys_equal_exactly_for_proportional_pairs(self, width):
        f = field_new(width)
        rng = random.Random(950 + width)
        pairs = {(0, rng.randrange(1, f.order)), (rng.randrange(1, f.order), 0)}
        while len(pairs) < 12:
            pairs.add((rng.randrange(f.order), rng.randrange(f.order)))
        pairs.discard((0, 0))
        pairs = sorted(pairs)
        pairs += [
            (f.mul(c, a), f.mul(c, b)) for a, b in pairs for c in rng.sample(range(2, f.order), 2)
        ]
        tables = _walk_tables(f)
        keys = _proportional_keys(f, tables, pairs)
        # three coordinates take the entry-by-entry path
        longer = _proportional_keys(f, tables, [(0, a, b) for a, b in pairs])

        def proportional(u, v):  # a cross product of zero
            return f.mul(u[0], v[1]) == f.mul(u[1], v[0])

        for (u, ku, lu), (v, kv, lv) in itertools.combinations(zip(pairs, keys, longer), 2):
            assert (ku == kv) == (lu == lv) == proportional(u, v)


class TestExtends:
    """Whether _eliminate finds each vector extends the span of those before
    it, as DerivedCode.independent and the listing's rounds ask, against
    rref_oracle ranks of column prefixes."""

    @staticmethod
    def _extends(f, length, vectors, keep=-1) -> list[bool]:
        return [b > 0 for b in _eliminate(f, length, [0] * (length + 1), vectors, keep=keep)]

    @staticmethod
    def _expected(rows, field) -> list[bool]:
        # column j is new exactly when it raises the rank of columns 0..j
        ranks = [0] + [
            rref_oracle([row[: j + 1] for row in rows], field)[1] for j in range(len(rows[0]))
        ]
        return [b > a for a, b in zip(ranks, ranks[1:])]

    @pytest.mark.parametrize("width", range(1, 17))
    def test_matches_oracle_rank_at_every_width(self, width):
        f = field_new(width)
        peasant = PeasantField(f.modulus, width)
        rng = random.Random(6000 + width)
        for _ in range(20):
            nr, nc = rng.randint(1, 5), rng.randint(1, 8)
            rows = planted_matrix(rng, peasant, nr, nc)
            slices = bit_slices(f, nr)
            cols = [slices.pack([row[j] for row in rows]) for j in range(nc)]
            assert self._extends(f, nr, cols) == self._expected(rows, peasant)
            # masking rows off is the same as zeroing them first
            dropped = rng.sample(range(nr), rng.randint(0, nr))
            keep = ~(sum(1 << i for i in dropped) * slices.column_mask(0))
            zeroed = [[0] * nc if i in dropped else row for i, row in enumerate(rows)]
            assert self._extends(f, nr, cols, keep) == self._expected(zeroed, peasant)

    def test_stops_where_its_consumer_stops(self):
        # a generator: vectors past the last answer taken are never read
        f = field_new(1)
        seen = []

        def vectors():
            for v in (0b01, 0b10, 0b11):
                seen.append(v)
                yield v

        answers = _eliminate(f, 2, [0] * 3, vectors())
        assert next(answers) and next(answers)
        assert seen == [0b01, 0b10]
        assert list(answers) == [0]

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_yields_one_past_the_leading_coordinate(self, width):
        # a vector is reduced until it leads where no row does, where it is
        # stored and yields one past that coordinate, or to zero, which
        # yields 0: row 2 leads at coordinate 2, is reduced by row 1 to
        # lead at 0 and is stored there, so row 3 is reduced to zero
        f = field_new(width)
        c = 1 if width == 1 else 3
        pack = bit_slices(f, 3).pack
        table = [0] * 4
        rows = [[1, 0, c], [0, 0, c], [1, 0, 0], [0, 1, 0], [0, 1, 0]]
        assert list(_eliminate(f, 3, table, map(pack, rows))) == [3, 1, 0, 2, 0]
        assert table == [0, pack([1, 0, 0]), pack([0, 1, 0]), pack([f.inv(c), 0, 1])]


class TestSolve:
    def test_identity_returns_rhs(self):
        f = field_new(2)
        a = FieldMatrix(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        b = FieldMatrix(f, [[1, 2], [3, 0], [2, 2]])
        assert solve(a, b) == b

    def test_two_by_two_against_enumeration(self):
        f = field_new(1)
        a = FieldMatrix(f, [[1, 1], [0, 1]])
        b = FieldMatrix(f, [[1], [1]])
        solutions = []
        for x1, x2 in itertools.product((0, 1), repeat=2):
            if (x1 ^ x2, x2) == (1, 1):
                solutions.append([[x1], [x2]])
        assert solutions == [[[0], [1]]]
        assert solve(a, b).values() == ((0,), (1,))

    def test_singular_carries_rank(self):
        f = field_new(1)
        a = FieldMatrix(f, [[1, 1], [1, 1]])
        b = FieldMatrix(f, [[1], [1]])
        with pytest.raises(SingularSystemError) as exc:
            solve(a, b)
        assert exc.value.rank == 1

    @pytest.mark.parametrize("width", range(1, 17))
    def test_random_solvable_round_trips(self, width):
        f = field_new(width)
        oracle = PeasantField(f.modulus, width)
        rng = random.Random(width + 100)
        for _ in range(30):
            ncols = rng.randint(1, 4)
            nrows = rng.randint(ncols, 6)
            while True:
                a = FieldMatrix(
                    f, [[rng.randrange(f.order) for _ in range(ncols)] for _ in range(nrows)]
                )
                if matrix_rank(a) == ncols:
                    break
            x = FieldMatrix(f, [[rng.randrange(f.order) for _ in range(2)] for _ in range(ncols)])
            b = FieldMatrix(f, [combine_components(row, x.values(), oracle) for row in a.values()])
            assert solve(a, b) == x

    @pytest.mark.parametrize("width", range(1, 17))
    def test_left_inverse_and_checks_match_the_oracle(self, width):
        # inverse row p times A is the unit vector at A's p-th pivot column,
        # every check row times A is zero, and the check rows are m - rank
        # independent vectors (the oracle's rank), so they span the left kernel
        f = field_new(width)
        oracle = PeasantField(f.modulus, width)
        rng = random.Random(width + 300)
        for _ in range(12):
            ncols, nrows = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[rng.randrange(f.order) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                    for _ in range(nrows)]
            if rng.random() < 0.3:  # a repeated multiple: a rank deficiency
                rows.append([oracle.mul(3 % f.order or 1, x) for x in rows[0]])
            rank = rref_oracle(rows, oracle)[1]
            inverse, checks = _left_inverse(f, ncols, list(map(bit_slices(f, ncols).pack, rows)))
            assert (len(inverse), len(checks)) == (rank, len(rows) - rank)
            assert all(len(c) == len(rows) for c in inverse + checks)
            if rank == ncols:
                for p, c in enumerate(inverse):
                    assert combine_components(c, rows, oracle) == tuple(int(j == p) for j in range(ncols))
            for c in checks:
                assert combine_components(c, rows, oracle) == (0,) * ncols
            if checks:
                assert rref_oracle(checks, oracle)[1] == len(checks)

    def test_inconsistent_tall_system(self):
        f = field_new(1)
        a = FieldMatrix(f, [[1], [1]])
        b = FieldMatrix(f, [[1], [0]])
        with pytest.raises(ValueError, match="inconsistent"):
            solve(a, b)

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_rank_is_decided_before_consistency(self, width):
        # rank 1 and an inconsistent row: the singular verdict comes first
        f = field_new(width)
        a = FieldMatrix(f, [[1, 1], [1, 1], [0, 0]])
        b = FieldMatrix(f, [[1], [0], [1]])
        with pytest.raises(SingularSystemError) as exc:
            solve(a, b)
        assert exc.value.rank == 1

    @pytest.mark.parametrize("width", [1, 4])
    def test_right_hand_side_must_be_iterable(self, width):
        # a right-hand side is a FieldMatrix: anything else, rows of storage
        # symbols included, is a TypeError that names its kind
        f = field_new(width)
        a = FieldMatrix(f, [[1, 0], [0, 1]])
        rows = [[StorageSymbol(f, (1, 0))], [StorageSymbol(f, (0, 1))]]
        for b, kind in ((5, "an int"), (None, "a NoneType"), (2.5, "a float"), (rows, "a list")):
            with pytest.raises(TypeError) as exc:
                solve(a, b)
            assert str(exc.value) == f"right-hand side is {kind}, not a FieldMatrix"

    @pytest.mark.parametrize("name", ["rref", "matrix_rank", "solve"])
    def test_matrix_arguments_must_be_matrices(self, name):
        call = {"rref": rref, "matrix_rank": matrix_rank, "solve": lambda m: solve(m, m)}[name]
        with pytest.raises(TypeError, match="^expected a FieldMatrix$"):
            call([[1, 0], [0, 1]])


class TestFieldMatrix:
    def test_shape_validation(self):
        f = field_new(1)
        with pytest.raises(ValueError):
            FieldMatrix(f, [])
        with pytest.raises(ValueError):
            FieldMatrix(f, [[1, 0], [1]])

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            FieldMatrix(field_new(1), [[2]])

    def test_mixed_field_rejected(self):
        a = FieldMatrix(field_new(1), [[1]])
        b = FieldMatrix(field_new(2), [[1]])
        with pytest.raises(FieldMismatchError):
            solve(a, b)

    def test_accessors(self):
        f = field_new(2)
        m = FieldMatrix(f, [[1, 2, 3], [0, 1, 2]])
        assert m.row(0) == (1, 2, 3)
        assert m.column(2) == (3, 2)
        assert m.submatrix([1], [0, 2]).values() == ((0, 2),)


class TestRowKeys:
    """_row_keys encodes rows laid end to end in one bulk pass: each row's
    key must be the one worked out for that row alone, entry by entry."""

    @staticmethod
    def _expected(width, row):
        if width == 1:  # group g's index: coefficient 4g + b at bit 3 - b
            padded = [*row, *[0] * (-len(row) % 4)]
            return bytes(
                sum(padded[a + b] << (3 - b) for b in range(4)) for a in range(0, len(padded), 4)
            )
        return [bytes((c >> b) & 1 for c in row) for b in range(width)]

    @pytest.mark.parametrize("width", range(1, 17))
    def test_each_row_as_if_alone(self, width):
        field = FieldSpec(width)
        rng = random.Random(7300 + width)
        for length in (*range(1, 10), 240):
            rows = [[rng.randrange(field.order) for _ in range(length)] for _ in range(5)]
            flat = list(itertools.chain.from_iterable(rows))
            keys = _row_keys(field, flat, length)
            assert keys == [self._expected(width, row) for row in rows], length
            if width <= 7:  # as _draw_values gives them: one byte each
                assert _row_keys(field, bytes(flat), length) == keys
            if width >= 8:  # as 32-bit draws come: read by value, not as machine words
                assert _row_keys(field, array("I", flat), length) == keys
            assert _row_keys(field, rows[2], length) == keys[2:3]

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_lane_keys_built_on_the_row_keys(self, width):
        field = FieldSpec(width)
        rng = random.Random(7400 + width)
        for length in (1, 6, 61):
            row = [rng.randrange(field.order) for _ in range(length)]
            key = _row_keys(field, row, length)[0]
            if width == 1:
                # the itemgetter picks entry 16g + index g of each nonzero group
                picks = _lane_keys(field, row)(range(16 * len(key)))
                assert picks == (0, 0, *[16 * g + d for g, d in enumerate(key) if d])
            else:
                assert _lane_keys(field, row) == key


class TestTableProduct:
    """Bound to the stacks it multiplies, the GF(2) lane product looks each
    row's keys, encoded with every other row's (_row_keys), up in
    Four-Russians tables; it must equal the direct sum."""

    @pytest.mark.parametrize("ell", [64, 65])  # strides of 8 and 16 bytes
    @pytest.mark.parametrize("nstacks", [1, 3, 4, 5, 240])
    def test_equals_the_direct_sum_row_by_row(self, nstacks, ell):
        field, lanes = FieldSpec(1), 3
        stride = _stride(field, ell)
        assert stride == (8 if ell == 64 else 16)
        rng = random.Random(nstacks * 1000 + ell)
        stacks = [
            _stack([rng.getrandbits(ell) for _ in range(lanes)], stride) for _ in range(nstacks)
        ]
        direct = _lane_product(field, ell, stride, lanes)
        tables = _lane_product(field, ell, stride, lanes, stacks)
        rows = [[0] * nstacks, [1] * nstacks]
        rows += [[rng.randrange(2) for _ in range(nstacks)] for _ in range(20)]
        keys = _row_keys(field, bytes(itertools.chain.from_iterable(rows)), nstacks)
        assert len(keys) == len(rows)
        for row, key in zip(rows, keys):
            assert tables(key) == direct(stacks, row), row
        assert tables(keys[0]) == 0
        assert tables(keys[1]) == direct(stacks, [1] * nstacks) != 0

    @pytest.mark.parametrize("width", [4, 16])
    def test_wider_fields_bind_the_plane_sums(self, width):
        field, ell, lanes = FieldSpec(width), 5, 2
        stride = _stride(field, ell)
        rng = random.Random(width)
        stacks = [
            _stack([rng.getrandbits(width * ell) for _ in range(lanes)], stride) for _ in range(6)
        ]
        bound = _lane_product(field, ell, stride, lanes, stacks)
        direct = _lane_product(field, ell, stride, lanes)
        rows = [[rng.randrange(field.order) for _ in stacks] for _ in range(10)]
        keys = _row_keys(field, list(itertools.chain.from_iterable(rows)), len(stacks))
        for row, key in zip(rows, keys):
            assert bound(key) == direct(stacks, row)


class TestLayering:
    def test_algebra_imports_nothing_from_the_package(self):
        # algebra is the bottom layer: every other module builds on it, so
        # an import from the package, even a lazy one, would be a cycle
        import codedpir.algebra

        tree = ast.parse(Path(codedpir.algebra.__file__).read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] == "codedpir":
                    found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''}")
            elif isinstance(node, ast.Import):
                found += [
                    f"line {node.lineno}: import {alias.name}"
                    for alias in node.names if alias.name.split(".")[0] == "codedpir"
                ]
        assert found == []
