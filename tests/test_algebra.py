import itertools
import pickle
import random

import pytest

from codedpir.algebra import (
    DEFAULT_MODULI,
    FieldMatrix,
    FieldMismatchError,
    FieldSpec,
    ReducibleModulusError,
    RightHandSideError,
    SingularSystemError,
    _eliminate,
    bit_slices,
    field_new,
    matrix_rank,
    poly_str,
    rref,
    solve,
)

from codedpir.workbench import parse_code_file

from conftest import FIXTURES_DIR, planted_matrix
from oracles import PeasantField, TinyField, brute_rank, peasant_mul, rref_oracle


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
        m = FieldMatrix.identity(f, 4)
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
        m = FieldMatrix.zeros(f, 3, 4)
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
        # a vector reduced to lead at or below `low` is not stored: what it
        # then leads at is what _solve_packed reads as a residual
        f = field_new(width)
        c = 1 if width == 1 else 3
        pack = bit_slices(f, 3).pack
        table = [0] * 4
        rows = [[1, 0, c], [0, 0, c], [1, 0, 0], [0, 1, 0], [0, 1, 0]]
        assert list(_eliminate(f, 3, table, map(pack, rows), low=1)) == [3, 1, 1, 2, 0]
        assert table == [0, 0, pack([0, 1, 0]), pack([f.inv(c), 0, 1])]


class TestSolve:
    def test_identity_returns_rhs(self):
        f = field_new(2)
        a = FieldMatrix.identity(f, 3)
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
            b = a @ x
            assert solve(a, b) == x

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

    def test_componentwise_symbol_solving(self):
        from codedpir.codes import StorageSymbol

        f = field_new(3)
        a = FieldMatrix(f, [[1, 1], [0, 1]])
        rhs_values = [[(3, 5)], [(2, 7)]]
        b = [[StorageSymbol(f, comps) for comps in row] for row in rhs_values]
        x = solve(a, b)
        # must agree with scalar solves run one component at a time
        for comp in range(2):
            scalar = solve(a, FieldMatrix(f, [[row[0].components[comp]] for row in b]))
            assert tuple(r[0].components[comp] for r in x) == tuple(
                r[0] for r in scalar.values()
            )

    def test_symbol_rows_must_fit(self):
        from codedpir.codes import StorageSymbol

        f = field_new(3)
        a = FieldMatrix(f, [[1, 1], [0, 1]])
        sym = StorageSymbol(f, (3, 5))
        cases = {
            r"entry \(2, 1\): int 4 is not a storage symbol": [[sym], [4]],
            r"entry \(2, 1\): symbol over FieldSpec\(width=2": [
                [sym], [StorageSymbol(field_new(2), (1, 2))]
            ],
            r"entry \(2, 1\): payload length 3, right-hand side entry \(1, 1\) has 2": [
                [sym], [StorageSymbol(f, (1, 2, 3))]
            ],
            r"row 2 has 2 symbols": [[sym], [sym, sym]],
        }
        for message, b in cases.items():
            with pytest.raises(RightHandSideError, match=message):
                solve(a, b)

    def test_symbol_rows_must_be_sequences(self):
        from codedpir.codes import StorageSymbol

        f = field_new(3)
        a = FieldMatrix(f, [[1, 1], [0, 1]])
        sym = StorageSymbol(f, (3, 5))
        cases = {
            "right-hand side row 1 is an int, not a sequence of symbols": [1, 2],
            "right-hand side row 1 is a NoneType, not a sequence of symbols": [None, [sym]],
            "right-hand side row 2 is a StorageSymbol, not a sequence of symbols": [[sym], sym],
        }
        for message, b in cases.items():
            with pytest.raises(RightHandSideError) as exc:
                solve(a, b)
            assert str(exc.value) == message

    @pytest.mark.parametrize("width", [1, 4])
    def test_right_hand_side_must_be_iterable(self, width):
        a = FieldMatrix.identity(field_new(width), 2)
        for b, kind in ((5, "an int"), (None, "a NoneType"), (2.5, "a float")):
            with pytest.raises(RightHandSideError) as exc:
                solve(a, b)
            assert str(exc.value) == (
                f"right-hand side is {kind}, not a FieldMatrix or rows of symbols"
            )

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

    def test_matmul_and_add(self):
        f = field_new(2)
        a = FieldMatrix(f, [[1, 2], [0, 1]])
        i = FieldMatrix.identity(f, 2)
        assert a @ i == a
        assert (a + a).values() == ((0, 0), (0, 0))

    def test_mixed_field_rejected(self):
        a = FieldMatrix(field_new(1), [[1]])
        b = FieldMatrix(field_new(2), [[1]])
        with pytest.raises(FieldMismatchError):
            a @ b

    def test_accessors(self):
        f = field_new(2)
        m = FieldMatrix(f, [[1, 2, 3], [0, 1, 2]])
        assert m.row(0) == (1, 2, 3)
        assert m.column(2) == (3, 2)
        assert m.transpose().values() == ((1, 0), (2, 1), (3, 2))
        assert m.submatrix([1], [0, 2]).values() == ((0, 2),)
