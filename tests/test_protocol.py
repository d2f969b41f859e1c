import functools
import itertools
import math
import pickle
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest

from codedpir import (
    EMatrix,
    FieldMatrix,
    FieldSpec,
    OptimizerConfig,
    PackedFile,
    ProtocolViolationError,
    ResponseSet,
    StorageSymbol,
    build_queries,
    build_storage,
    collect_responses,
    derived_code,
    encode_file,
    exact_privacy_check,
    optimize_cpop,
    random_file,
    recover_file,
    verify_privacy,
)
from codedpir import algebra, codes, protocol
from codedpir.algebra import BitSlices, bit_slices
from codedpir.protocol import _CHUNK, _chi2_sf, _draw_values, _draws

from conftest import (
    GF2,
    GF4,
    GF8,
    GF16,
    c1_code,
    make_code,
    quasi_cyclic_code,
    random_systematic_code,
)
from oracles import (
    PeasantField,
    TinyField,
    column_rank,
    combine_components,
    encode_oracle,
    exact_privacy_oracle,
    recover_oracle,
    response_oracle,
    selection_grid_oracle,
    verify_privacy_oracle,
)

E1 = EMatrix(((1, 0, 1), (1, 1, 0), (0, 1, 1)), beta=2)
PI1 = (0, 2, 1)
Z1 = ((2, 0, 1), (1, 2, 0), (0, 1, 2))


def sym(field, *values):
    return StorageSymbol(field, values)


def nested(x):
    """A file, or stored rows, as lists of StorageSymbols."""
    return [list(row) for row in x]


def plus(a, b):
    """The sum of two symbols of one field and length: their packed bits XORed."""
    return StorageSymbol.from_bits(a.spec, a.ell, a.bits ^ b.bits)


def oracle_queries(qs):
    """The n node queries, k rows of entries each: the mask plus node l's
    selection grid for file m (selection_grid_oracle), the bare mask past
    node k."""
    u = [list(row) for row in qs.u.values()]
    grids = selection_grid_oracle(qs.e, qs.f, qs.m, qs.pi, qs.z)
    systematic = [[[a ^ b for a, b in zip(ur, gr)] for ur, gr in zip(u, grid)] for grid in grids]
    return systematic + [u] * (qs.n - qs.e.k)


def oracle_answers(qs, arr, oracle):
    """Every node's answers as component tuples: response_oracle over its
    oracle query and its stored column, arr.rows.payloads[j::n]."""
    n = arr.code.n
    unpack = bit_slices(arr.code.field, arr.ell).unpack
    return [
        response_oracle(q, [unpack(v) for v in arr.rows.payloads[j::n]], oracle)
        for j, q in enumerate(oracle_queries(qs))
    ]


def components(rs):
    """A response set's answers as component tuples, node by node."""
    return [[s.components for s in resp] for resp in rs.responses]


class TestPickle:
    def test_field_holders_round_trip(self):
        # what worker processes would be sent: a code, its derived code, a
        # stored array and a built query set, at w = 1 and w = 4
        for code in (c1_code(), make_code(GF16, [[1, 2, 3], [4, 5, 6]])):
            e = E1 if code.k == 3 else EMatrix(((1, 0, 1), (1, 1, 0), (0, 1, 1)), beta=2)
            array = build_storage(code, [random_file(code.field, 2, 3, 4, random.Random(1))] * 2)
            qs = build_queries(code, e, 2, 2, seed=5)
            got = recover_file(qs, collect_responses(qs, array), code)
            for obj in (code, derived_code(code), array, qs, got):
                assert pickle.loads(pickle.dumps(obj)) == obj
            qs_copy, array_copy = pickle.loads(pickle.dumps((qs, array)))
            assert collect_responses(qs_copy, array_copy) == collect_responses(qs, array)


class TestBuildStorage:
    def test_c1_array_layout(self):
        code = c1_code()
        rng = random.Random(1)
        x = random_file(GF2, 2, 3, 8, rng)
        arr = build_storage(code, [x])
        assert len(arr.rows) == 2
        for i in range(2):
            row = arr.rows[i]
            assert row[:3] == tuple(x[i])
            assert row[3] == plus(x[i][0], x[i][1])
            assert row[4] == plus(x[i][1], x[i][2])

    def test_two_identical_files_repeat_blocks(self):
        code = c1_code()
        x = random_file(GF2, 2, 3, 1, random.Random(2))
        arr = build_storage(code, [x, x])
        assert arr.f == 2
        assert arr.rows[:2] == arr.rows[2:]
        column = arr.rows.payloads[3 :: code.n]  # node 4's
        assert column == (arr.rows[0][3].bits, arr.rows[1][3].bits) * 2

    def test_shape_validation(self):
        code = c1_code()
        good = random_file(GF2, 2, 3, 1, random.Random(3))
        bad = random_file(GF2, 1, 3, 1, random.Random(3))
        with pytest.raises(ValueError):
            build_storage(code, [good, bad])

    def test_a_valid_store_packs_each_symbol_once(self, monkeypatch):
        import codedpir.codes as codes_module
        import codedpir.protocol as protocol_module

        packed = []
        real = codes_module.pack_symbols

        def counting(symbols, *rest):
            packed.append(len(symbols))
            return real(symbols, *rest)

        monkeypatch.setattr(codes_module, "pack_symbols", counting)
        monkeypatch.setattr(protocol_module, "pack_symbols", counting)
        files = [nested(random_file(GF2, 2, 3, 4, random.Random(s))) for s in range(2)]
        arr = build_storage(c1_code(), files)
        assert packed == [12]
        assert arr.rows == encode_file(c1_code(), files[0] + files[1])
        # stored rows given nested are packed once too, through the same path
        assert replace(arr, rows=nested(arr.rows)) == arr
        assert packed == [12, 12, 20]

    @pytest.mark.parametrize("width", range(1, 17))
    def test_nested_and_packed_files_store_alike(self, width):
        field = FieldSpec(width)
        rng = random.Random(width)
        code = random_systematic_code(rng, field, n_lo=4, n_hi=7, oracle_cap_bits=1 << 10)
        files = [random_file(field, 3, code.k, 5, rng) for _ in range(2)]
        arrays = [
            build_storage(code, given)
            for given in (files, [nested(x) for x in files], [files[0], nested(files[1])])
        ]
        for arr in arrays:
            assert isinstance(arr.rows, PackedFile)
            assert arr.rows == arrays[0].rows and arr._stacked == arrays[0]._stacked
            assert arr.rows.payloads[: code.k] == files[0].payloads[: code.k]

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_malformed_packed_file_named(self, width):
        # a PackedFile is taken unpacked: its field, row width and payload
        # range are checked, and a misfit is named where its symbol sits
        field = FieldSpec(width)
        code = make_code(field, [[1, 1, 0], [0, 1, 1]])
        good = random_file(field, 2, 3, 4, random.Random(width))
        bits = width * 4

        def with_payload(v, at=4):
            payloads = list(good.payloads)
            payloads[at] = v
            return PackedFile(field, 4, 3, payloads)

        named = {
            "file 2, stripe 2, symbol 2: packed value does not fit": with_payload(1 << bits),
            "file 2, stripe 1, symbol 3: packed value does not fit": with_payload(1 << 70, 2),
            "file 2, stripe 1, symbol 1: packed value does not fit": with_payload(-1, 0),
            "file 2, stripe 2, symbol 3: packed value does not fit": with_payload(1 << bits + 1, 5),
            "file 2, stripe 1 has 2 symbols, expected 3": PackedFile(field, 4, 2, good.payloads[:4]),
            "file 2, stripe 1, symbol 1: symbol over FieldSpec(width=": PackedFile(
                FieldSpec(width % 16 + 1), 4, 3, good.payloads
            ),
            "file 2, stripe 1, symbol 1: payload length 5, file 1, stripe 1, symbol 1 has 4":
                PackedFile(field, 5, 3, good.payloads),
        }
        for message, bad in named.items():
            with pytest.raises(ValueError) as info:
                build_storage(code, [good, bad])
            assert str(info.value).startswith(message), message
            if "does not fit" in message:
                assert str(info.value).endswith(f"does not fit {width} planes of 4 bits")
        # the top payload that fits is stored and recovered as it is
        top = with_payload((1 << bits) - 1)
        arr = build_storage(code, [good, top])
        qs = build_queries(code, E1, m=2, f=2, seed=3)
        assert recover_file(qs, collect_responses(qs, arr), code) == top

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_store_checks_each_payload_range_once(self, width, monkeypatch):
        # a PackedFile's payload range is checked where build_storage takes
        # it; neither encode_file nor the StorageArray checks it again, nor
        # the codeword rows computed from it. Nested symbols fit as built
        field = FieldSpec(width)
        rng = random.Random(width)
        code = make_code(field, [[1, 1, 0], [0, 1, 1]])
        files = [
            PackedFile(field, 5, 3, random_file(field, 2, 3, 5, rng).payloads) for _ in range(3)
        ]
        checks = Counter()
        real = codes._check_fit

        def counted(rows, at):
            checks.update((id(rows), i) for i in range(len(rows.payloads)))
            return real(rows, at)

        monkeypatch.setattr(codes, "_check_fit", counted)
        arr = build_storage(code, files)
        assert checks == Counter({(id(x), i): 1 for x in files for i in range(len(x.payloads))})
        stripes = PackedFile(field, 5, 3, [v for x in files for v in x.payloads])
        assert arr.rows == encode_file(code, stripes)
        checks.clear()
        assert build_storage(code, [nested(x) for x in files]) == arr
        assert not checks

    def test_file_without_stripes_named(self):
        x = random_file(GF2, 2, 3, 4, random.Random(1))
        for files in ([[]], [[], []], [[], x], [PackedFile(GF2, 4, 3, ())]):
            with pytest.raises(ValueError, match="^file 1 has no stripes$"):
                build_storage(c1_code(), files)

    def test_packed_file_shape_checked(self):
        for ell, k, message in (
            (0, 3, "a storage symbol needs at least one component"),
            (-1, 3, "a storage symbol needs at least one component"),
            (1.0, 3, "a storage symbol needs at least one component"),
            (4, 0, "a file row needs at least one symbol"),
            (4, 1.5, "a file row needs at least one symbol"),
            (4, 3, "4 payloads do not fill rows of k=3"),
        ):
            with pytest.raises(ValueError, match=message):
                PackedFile(GF2, ell, k, [1, 2, 3, 4])

    def test_ell_of_empty_array_is_a_named_error(self):
        arr = build_storage(c1_code(), [random_file(GF2, 2, 3, 5, random.Random(4))])
        assert arr.ell == 5
        for rows in ((), ((),)):
            with pytest.raises(ValueError, match="holds no symbols"):
                replace(arr, rows=rows).ell


class TestBuildQueries:
    def test_reproduces_reference_selection_blocks(self):
        qs = build_queries(c1_code(), E1, m=1, f=1, seed=9, pi=PI1, z=Z1)
        assert qs.v_block(1).values() == ((1, 0), (0, 1), (0, 0))
        assert qs.v_block(2).values() == ((0, 0), (1, 0), (0, 1))
        assert qs.v_block(3).values() == ((0, 1), (0, 0), (1, 0))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"z": ((5, 0, 1), (1, 2, 0), (0, 1, 2))}, r"slot 5 at \(0, 0\) outside 1..2"),
            ({"pi": (0,)}, r"pi must permute 0..2 and fix 0"),
        ],
        ids=["slot_out_of_range", "short_pi"],
    )
    def test_v_block_of_a_malformed_layout_is_a_named_error(self, change, message):
        # a malformed layout never reaches v_block: the set is refused when built
        qs = build_queries(c1_code(), E1, m=1, f=1, seed=9)
        with pytest.raises(ValueError, match=message):
            replace(qs, **change)

    def test_parity_queries_are_bare_mask(self):
        code = c1_code()
        files = [random_file(GF2, 2, 3, 8, random.Random(s)) for s in range(2)]
        arr = build_storage(code, files)
        qs = build_queries(code, E1, m=1, f=2, seed=4)
        rs = collect_responses(qs, arr)
        u, stored = qs.u.values(), [[s.components for s in row] for row in arr.rows]
        for j in (3, 4):
            expected = response_oracle(u, [row[j] for row in stored], TinyField(2))
            assert [s.components for s in rs.responses[j]] == expected, j + 1

    def test_systematic_queries_differ_only_inside_target_block(self):
        # node l's answers less the bare mask's are its symbols of file m, one
        # per stripe, and zero in the subqueries that do not select it
        f, m = 3, 2
        code = c1_code()
        files = [random_file(GF2, 2, 3, 16, random.Random(s)) for s in range(f)]
        arr = build_storage(code, files)
        qs = build_queries(code, E1, m=m, f=f, seed=4)
        rs = collect_responses(qs, arr)
        u, stored = qs.u.values(), [[s.components for s in row] for row in arr.rows]
        for l in range(3):
            bare = response_oracle(u, [row[l] for row in stored], TinyField(2))
            diff = [
                tuple(a ^ b for a, b in zip(s.components, b_row))
                for s, b_row in zip(rs.responses[l], bare)
            ]
            picked = sorted(d for d in diff if any(d))
            assert picked == sorted(files[m - 1][s][l].components for s in range(qs.beta))

    def test_canonical_slots_are_ranks(self):
        qs = build_queries(c1_code(), E1, m=1, f=1, seed=0)
        assert qs.z == ((1, 0, 1), (2, 1, 0), (0, 2, 2))

    def test_bad_inputs(self):
        code = c1_code()
        with pytest.raises(ValueError):
            build_queries(code, E1, m=2, f=1, seed=0)
        with pytest.raises(ValueError):
            build_queries(code, E1, m=1, f=1, seed=0, pi=(1, 0, 2))
        with pytest.raises(ValueError):
            build_queries(code, E1, m=1, f=1, seed=0, pi=(0, 1))
        with pytest.raises(ValueError):
            build_queries(code, E1, m=1, f=1, seed=0, z=((1, 0, 1), (2, 1, 0), (0, 1, 2)))

    def test_file_count_that_is_not_an_integer_named(self):
        with pytest.raises(ValueError, match=r"file count f = 2\.0 is a float, not an integer"):
            build_queries(c1_code(), E1, m=1, f=2.0, seed=3)

    def test_deterministic_per_seed(self):
        a = build_queries(c1_code(), E1, m=1, f=2, seed=11)
        b = build_queries(c1_code(), E1, m=1, f=2, seed=11)
        assert a.u == b.u and a == b

    @pytest.mark.parametrize("name", ["c1", "mds53", "c5like", "c6_array"])
    def test_queries_are_mask_plus_oracle_selection(self, name):
        # the construction the privacy argument rests on, on the answers to
        # the queries sent: each node answers the mask plus its oracle
        # selection grid, and v_block is that grid's file-m block
        from codedpir.workbench import parse_code_file, parse_e_matrix_text
        from conftest import FIXTURES_DIR, TESTS_DIR, mds53_code

        pi = z = None
        if name == "c1":
            code, e, pi, z = c1_code(), E1, PI1, Z1
        elif name == "c6_array":
            code = parse_code_file(FIXTURES_DIR / "c6_array.pchk").code
            e = parse_e_matrix_text((TESTS_DIR / "golden" / "c6_array_seed7_e.txt").read_text())
        elif name == "mds53":
            code = mds53_code()
            e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        else:
            code = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code
            e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        f, k, beta = 2, code.k, e.beta
        oracle = PeasantField(code.field.modulus, code.field.width)
        rng = random.Random(13)
        arr = build_storage(code, [random_file(code.field, beta, k, 1, rng) for _ in range(f)])
        sets = {m: build_queries(code, e, m=m, f=f, seed=13, pi=pi, z=z) for m in (1, 2)}
        assert sets[1].u == sets[2].u  # the mask does not depend on the file index
        for m, qs in sets.items():
            grids = selection_grid_oracle(e, f, m, pi, z)
            for l, grid in enumerate(grids, 1):
                block = tuple(tuple(row[(m - 1) * beta : m * beta]) for row in grid)
                assert qs.v_block(l).values() == block, (m, l)
            assert components(collect_responses(qs, arr)) == oracle_answers(qs, arr, oracle), m


class TestNodeResponse:
    """A node's answer to its query, as collect_responses computes it."""

    @staticmethod
    def _gf4_round(seed):
        code = make_code(GF4, [[1, 2, 0], [0, 3, 1]])
        rng = random.Random(seed)
        files = [random_file(GF4, 2, 3, 3, rng) for _ in range(2)]
        qs = build_queries(code, E1, m=2, f=2, seed=seed, pi=PI1, z=Z1)
        return code, files, build_storage(code, files), qs

    @staticmethod
    def _masked(qs, rows):
        return replace(qs, u=FieldMatrix(qs.u.field, rows))

    def test_zero_query_zero_response(self):
        code, _, arr, qs = self._gf4_round(8)
        rs = collect_responses(self._masked(qs, [[0] * 4] * 3), arr)
        assert all(s.bits == 0 for resp in rs.responses[code.k :] for s in resp)

    def test_selector_rows_return_stored_symbols(self):
        # under a zero mask, subquery i answers node l's symbol of file m at
        # stripe pi[z[i][l]], and zero where it does not select node l
        code, files, arr, qs = self._gf4_round(9)
        rs = collect_responses(self._masked(qs, [[0] * 4] * 3), arr)
        for l in range(code.k):
            for i, row in enumerate(Z1):
                got = rs.responses[l][i]
                want = files[1][PI1[row[l]] - 1][l].bits if row[l] else 0
                assert got.bits == want, (l + 1, i + 1)

    def test_linearity(self):
        # the selection 1s add the same symbols under every mask, so two
        # masks' answers sum to their sum's plus the zero mask's
        code, _, arr, qs = self._gf4_round(10)
        rng = random.Random(8)
        qa, qb = ([[rng.randrange(4) for _ in range(4)] for _ in range(3)] for _ in range(2))
        qsum = [[a ^ b for a, b in zip(ra, rb)] for ra, rb in zip(qa, qb)]
        ra, rb, rsum, rzero = (
            collect_responses(self._masked(qs, rows), arr).responses
            for rows in (qa, qb, qsum, [[0] * 4] * 3)
        )
        for j in range(code.n):
            assert [plus(x, y) for x, y in zip(ra[j], rb[j])] == [
                plus(x, y) for x, y in zip(rsum[j], rzero[j])
            ], j + 1

    def test_parity_response_is_interference_sum(self):
        # node 4 of the reference run answers with sums of the two
        # interference streams hit by each subquery
        code = c1_code()
        rng = random.Random(12)
        x = random_file(GF2, 2, 3, 4, rng)
        arr = build_storage(code, [x])
        qs = build_queries(code, E1, m=1, f=1, seed=21, pi=PI1, z=Z1)
        r4 = collect_responses(qs, arr).responses[3]
        u = qs.u.values()
        for t in range(3):
            # parity row one covers message columns 1 and 2
            vectors = [x[stripe][col].components for col in (0, 1) for stripe in range(2)]
            coeffs = [u[t][stripe] for col in (0, 1) for stripe in range(2)]
            assert r4[t].components == combine_components(coeffs, vectors, TinyField(2))

    def test_shape_mismatch(self):
        # a query of 4 columns against a node that stores 6 symbols: f = 3 files
        code, files, arr, qs = self._gf4_round(11)
        taller = build_storage(code, [*files, files[0]])
        with pytest.raises(ValueError, match="query set and storage array disagree on beta or f"):
            collect_responses(qs, taller)
        with pytest.raises(ValueError, match="query has 4 columns but the node stores 6 symbols"):
            collect_responses(qs, replace(taller, f=2))

    def test_misfit_stored_symbols_named(self):
        # one node's column holding a symbol of another field or length
        code, _, arr, qs = self._gf4_round(12)
        for misfit, named in (
            (sym(GF2, 1, 0, 1), r"symbol over FieldSpec\(width=1"),
            (sym(GF4, 1, 2), "payload length 2, node 1, stored symbol 1 has 3"),
        ):
            rows = [list(row) for row in arr.rows]
            rows[1][3] = misfit
            with pytest.raises(ValueError, match=f"^node 4, stored symbol 2: {named}"):
                collect_responses(qs, replace(arr, rows=rows))


def _c6_round(ell):
    """c6_array at the golden beta = 29 matrix: code, e, one file, its array."""
    from codedpir.workbench import parse_code_file, parse_e_matrix_text
    from conftest import FIXTURES_DIR, TESTS_DIR

    code = parse_code_file(FIXTURES_DIR / "c6_array.pchk").code
    e = parse_e_matrix_text((TESTS_DIR / "golden" / "c6_array_seed7_e.txt").read_text())
    x = random_file(code.field, e.beta, code.k, ell, random.Random(29))
    return code, e, x, build_storage(code, [x])


class TestBatchedResponses:
    """collect_responses against the per-component oracle."""

    @staticmethod
    def _agree(qs, arr, oracle):
        rs = collect_responses(qs, arr)
        expected = oracle_answers(qs, arr, oracle)
        for j, answers in enumerate(components(rs)):
            assert answers == expected[j], j + 1
        return rs

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_rows_shared_or_not(self, width):
        field = FieldSpec(width)
        oracle = PeasantField(field.modulus, width)
        rng = random.Random(7000 + width)
        code = random_systematic_code(rng, field, n_lo=4, n_hi=8, oracle_cap_bits=10**6)
        e = optimize_cpop(code, OptimizerConfig(seed=width)).e_opt
        files = [random_file(field, e.beta, code.k, 5, rng) for _ in range(2)]
        arr = build_storage(code, files)
        qs = build_queries(code, e, m=2, f=2, seed=rng.randrange(10**6))
        rs = self._agree(qs, arr, oracle)
        assert recover_file(qs, rs, code) == files[1]
        # mask rows drawn from a small pool: one row object held by several
        # rows of the mask, answered against the oracle all the same
        width_q = e.beta * 2
        pool = [[rng.randrange(field.order) for _ in range(width_q)] for _ in range(2)]
        pooled = replace(qs, u=FieldMatrix._wrap(field, [rng.choice(pool) for _ in range(code.k)]))
        assert len(set(map(id, pooled.u._rows))) < code.k
        self._agree(pooled, arr, oracle)

    def test_c6_array_round_at_fixture_size(self):
        code, e, x, arr = _c6_round(ell=3)
        oracle = PeasantField(code.field.modulus, 1)
        qs = build_queries(code, e, m=1, f=1, seed=61)
        rs = self._agree(qs, arr, oracle)
        expected = recover_oracle(code.p.values(), e.rows, qs.pi, qs.z, e.beta, components(rs), oracle)
        got = recover_file(qs, rs, code)
        assert [[s.components for s in row] for row in got] == expected
        assert got == x

    def test_c6_array_second_of_two_files_at_fixture_size(self):
        # file 2's selection 1s sit past file 1's columns, so every flipped
        # row is answered through the shared mask product at an offset
        code, e, x, _ = _c6_round(ell=2)
        y = random_file(code.field, e.beta, code.k, 2, random.Random(30))
        arr = build_storage(code, [x, y])
        oracle = PeasantField(code.field.modulus, 1)
        qs = build_queries(code, e, m=2, f=2, seed=62)
        rs = self._agree(qs, arr, oracle)
        expected = recover_oracle(code.p.values(), e.rows, qs.pi, qs.z, e.beta, components(rs), oracle)
        got = recover_file(qs, rs, code)
        assert [[s.components for s in row] for row in got] == expected
        assert got == y

    def test_mismatched_array_rejected(self):
        code = c1_code()
        arr = build_storage(code, [random_file(GF2, 2, 3, 4, random.Random(1))])
        qs = build_queries(code, E1, m=1, f=1, seed=0)
        with pytest.raises(ValueError, match="query set has 3 node queries, the code has 5"):
            collect_responses(replace(qs, n=3), arr)
        with pytest.raises(ValueError, match="query has 2 columns but the node stores 4"):
            collect_responses(qs, replace(arr, rows=[*arr.rows, *arr.rows]))
        ragged = (arr.rows[0], arr.rows[1][:4])  # row 2 misses node 5's symbol
        with pytest.raises(ValueError, match="storage row 2 holds 4 symbols, the code has 5 nodes"):
            collect_responses(qs, replace(arr, rows=ragged))
        narrow = tuple(row[:4] for row in arr.rows)
        with pytest.raises(ValueError, match="storage row 1 holds 4 symbols"):
            collect_responses(qs, replace(arr, rows=narrow))
        mixed = [list(row) for row in arr.rows]
        mixed[1][4] = StorageSymbol.from_bits(GF2, 3, 0)
        with pytest.raises(ValueError, match="node 5, stored symbol 2: payload length 3, node 1"):
            collect_responses(qs, replace(arr, rows=tuple(map(tuple, mixed))))
        for row in mixed:  # node 5's whole column is shorter than node 1's
            row[4] = StorageSymbol.from_bits(GF2, 3, 0)
        with pytest.raises(ValueError, match="node 5, stored symbol 1: payload length 3, node 1"):
            collect_responses(qs, replace(arr, rows=tuple(map(tuple, mixed))))


class TestMaskPlusUnitShortcut:
    """collect_responses answers from the shared mask products plus one
    stored payload per selection 1. A QuerySet's queries are derived from
    its mask and layout, so a set changed through dataclasses.replace is
    either refused when built or answered as its own queries say."""

    @staticmethod
    def _instance(width):
        field = FieldSpec(width)
        rng = random.Random(9100 + width)
        code = random_systematic_code(rng, field, n_lo=5, n_hi=8, oracle_cap_bits=10**6)
        e = optimize_cpop(code, OptimizerConfig(seed=width)).e_opt
        files = [random_file(field, e.beta, code.k, 3, rng) for _ in range(2)]
        arr = build_storage(code, files)
        qs = build_queries(code, e, m=2, f=2, seed=rng.randrange(10**6))
        return code, arr, qs, files

    @staticmethod
    def _agree(qs, arr):
        rs = collect_responses(qs, arr)
        field = arr.code.field
        assert components(rs) == oracle_answers(qs, arr, PeasantField(field.modulus, field.width))
        return rs

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_every_flipped_row_takes_the_shortcut(self, width, monkeypatch):
        code, arr, qs, _ = self._instance(width)
        rs = self._agree(qs, arr)
        calls = []
        real = arr._product  # bound to the stored rows by the first round, and kept
        monkeypatch.setitem(arr.__dict__, "_product", lambda row: calls.append(1) or real(row))
        assert collect_responses(qs, arr) == rs
        assert len(calls) == code.k  # one product per mask row, none per node

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_mask_row_copied_into_a_separate_object(self, width):
        # the mask copied, so no query row is one of the first set's rows
        code, arr, qs, _ = self._instance(width)
        masked = replace(qs, u=FieldMatrix(qs.u.field, qs.u.values()))
        assert masked == qs
        assert not set(map(id, masked.u._rows)) & set(map(id, qs.u._rows))
        assert self._agree(masked, arr) == collect_responses(qs, arr)

    @pytest.mark.parametrize("change, message", [
        ({"pi": (0,)}, r"pi must permute 0\.\.\d+ and fix 0"),
        ({"pi": (1, 0)}, r"pi must permute"),
        ({"z": ((0,),)}, r"slot assignment must be \d+ x \d+"),
        ({"z": ()}, r"slot assignment must be"),
        ({"m": 0}, r"file index 0 out of 1\.\.2"),
        ({"m": 3}, r"file index 3 out of 1\.\.2"),
        ({"m": -1}, r"file index -1 out of"),
        ({"m": 1.5}, r"file index 1\.5 out of"),
        ({"m": "2"}, r"file index '2' out of"),
        ({"m": 1}, None),
        ({"u_rows": 1}, r"access matrix is \d+ x \d+, code needs 1 x 1"),
    ], ids=["short_pi", "pi_moves_0", "short_z", "empty_z", "m_0", "m_past_f", "m_negative",
            "m_float", "m_str", "other_file", "short_mask"])
    def test_malformed_or_mismatched_query_set(self, change, message):
        # a layout that does not hold is refused when the set is built; one
        # that holds (another file) is answered as its own queries say
        code, arr, qs, files = self._instance(4)
        if "u_rows" in change:
            change = {"u": FieldMatrix(qs.u.field, qs.u.values()[: change["u_rows"]])}
        if message is not None:
            with pytest.raises(ValueError, match=message):
                replace(qs, **change)
            return
        other = replace(qs, **change)
        assert recover_file(other, self._agree(other, arr), code) == files[0]

    @pytest.mark.parametrize("width", [1, 4])
    def test_valid_layout_that_names_other_columns(self, width):
        # another valid pi: the replaced set's queries follow it, so they are
        # answered as they now read and recovery still returns file m
        code, arr, qs, files = self._instance(width)
        beta = qs.e.beta
        pi = (0,) + tuple(range(beta, 0, -1))
        if pi == qs.pi:
            pi = (0,) + tuple(range(2, beta + 1)) + (1,)
        assert pi != qs.pi
        other = replace(qs, pi=pi)
        assert oracle_queries(other) != oracle_queries(qs)
        assert recover_file(other, self._agree(other, arr), code) == files[1]


class TestQueryView:
    """A built query set holds the mask and its layout; its queries are
    derived from them, never stored."""

    @staticmethod
    def _instance(width, f):
        field = FieldSpec(width)
        rng = random.Random(9300 + 10 * width + f)
        code = random_systematic_code(rng, field, n_lo=5, n_hi=8, oracle_cap_bits=10**6)
        e = optimize_cpop(code, OptimizerConfig(seed=width)).e_opt
        files = [random_file(field, e.beta, code.k, 3, rng) for _ in range(f)]
        return code, e, files, build_storage(code, files), rng.randrange(10**6)

    @pytest.mark.parametrize("f", [1, 2])
    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_view_is_mask_plus_oracle_selection(self, width, f):
        code, e, _, arr, seed = self._instance(width, f)
        oracle = PeasantField(code.field.modulus, width)
        pi = (0,) + tuple(range(e.beta, 0, -1))
        for m in range(1, f + 1):
            qs = build_queries(code, e, m=m, f=f, seed=seed, pi=pi)
            grids = selection_grid_oracle(e, f, m, pi)
            for l, grid in enumerate(grids, 1):
                block = tuple(tuple(row[(m - 1) * e.beta : m * e.beta]) for row in grid)
                assert qs.v_block(l).values() == block, (m, l)
            rs = collect_responses(qs, arr)
            assert components(rs) == oracle_answers(qs, arr, oracle), m
            # no query is given: a set takes only its mask and layout
            with pytest.raises(TypeError):
                replace(qs, q=oracle_queries(qs))
            assert replace(qs) == qs and collect_responses(replace(qs), arr) == rs

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_round_assembles_no_row_and_validates_its_layout_once(self, width, monkeypatch):
        code, e, files, arr, seed = self._instance(width, 2)
        calls = Counter()

        def counted(name):
            real = getattr(protocol, name)
            return lambda *args: calls.update([name]) or real(*args)

        for name in ("_assemble", "_layout"):
            monkeypatch.setattr(protocol, name, counted(name))
        qs = build_queries(code, e, m=2, f=2, seed=seed)
        rs = collect_responses(qs, arr)
        assert recover_file(qs, rs, code) == files[1]
        assert calls == {"_layout": 1}
        # against a code with another k, the layout is validated again
        wider = make_code(code.field, [[1] * (code.k + 1)])
        message = f"query set: access matrix is {code.k} x {code.k}, code needs"
        with pytest.raises(ProtocolViolationError, match=message):
            recover_file(qs, rs, wider)

    @pytest.mark.parametrize("width", [1, 16])
    def test_view_keeps_the_shape_checks(self, width):
        code, e, files, arr, seed = self._instance(width, 1)
        qs = build_queries(code, e, m=1, f=1, seed=seed)
        short = replace(arr, rows=arr.rows[:-1])
        message = f"query has {e.beta} columns but the node stores {e.beta - 1} symbols"
        with pytest.raises(ValueError, match=message):
            collect_responses(qs, short)
        other = FieldSpec(17 - width)
        ones = make_code(other, [[1] * code.k for _ in range(code.n - code.k)])
        foreign = build_storage(ones, [random_file(other, e.beta, code.k, 3, random.Random(width))])
        with pytest.raises(ValueError, match="node 1: query over another field than the code"):
            collect_responses(qs, foreign)


class TestPackedRound:
    """Between build_storage and the recovered file, payloads stay packed."""

    def test_round_packs_no_symbols_after_the_store(self, monkeypatch):
        import codedpir.codes as codes_module

        code, e, x, arr = _c6_round(ell=4)
        packed = []
        real = codes_module.pack_symbols

        def counting(symbols, *rest):
            packed.append(len(symbols))
            return real(symbols, *rest)

        monkeypatch.setattr(codes_module, "pack_symbols", counting)
        monkeypatch.setattr(protocol, "pack_symbols", counting)
        qs = build_queries(code, e, m=1, f=1, seed=5)
        rs = collect_responses(qs, arr)
        assert recover_file(qs, rs, code) == x
        assert packed == []

    @pytest.mark.parametrize("ell", [1, 3, 8, 64])
    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_response_set_rebuilt_from_its_symbols(self, width, ell):
        # payloads of 1 to 1024 bits, in lanes of one to sixteen 64-bit words;
        # the symbols' packing and collect_responses' must agree
        field = FieldSpec(width)
        rng = random.Random(9500 + width * 100 + ell)
        code = random_systematic_code(rng, field, n_lo=5, n_hi=8, oracle_cap_bits=10**6)
        e = optimize_cpop(code, OptimizerConfig(seed=width)).e_opt
        files = [random_file(field, e.beta, code.k, ell, rng) for _ in range(2)]
        qs = build_queries(code, e, m=2, f=2, seed=rng.randrange(10**6))
        rs = collect_responses(qs, build_storage(code, files))
        rebuilt = ResponseSet(rs.responses)
        assert rebuilt == rs and hash(rebuilt) == hash(rs)
        assert rebuilt.responses == rs.responses
        assert recover_file(qs, rebuilt, code) == recover_file(qs, rs, code) == files[1]


class TestPackedFile:
    """recover_file returns a PackedFile: its rows as StorageSymbols on first
    read, equal either way round to the nested symbol lists it stands for,
    and unequal, never an error, to anything that does not fit."""

    @staticmethod
    def _round(width, ell=3):
        field = FieldSpec(width)
        rng = random.Random(9700 + width)
        code = random_systematic_code(rng, field, n_lo=5, n_hi=8, oracle_cap_bits=10**6)
        e = optimize_cpop(code, OptimizerConfig(seed=width)).e_opt
        files = [random_file(field, e.beta, code.k, ell, rng) for _ in range(2)]
        arr = build_storage(code, files)
        qs = build_queries(code, e, m=2, f=2, seed=rng.randrange(10**6))
        rs = collect_responses(qs, arr)
        answers = [[s.components for s in resp] for resp in rs.responses]
        oracle = PeasantField(field.modulus, width)
        expected = recover_oracle(code.p.values(), e.rows, qs.pi, qs.z, e.beta, answers, oracle)
        return code, arr, recover_file(qs, rs, code), files[1], expected

    @pytest.mark.parametrize("width", [1, 4, 8, 16])
    def test_rows_view_is_the_oracle_grid(self, width):
        code, _, got, x, expected = self._round(width)
        grid = [[StorageSymbol(code.field, comps) for comps in row] for row in expected]
        assert isinstance(got, PackedFile)
        assert (got.field, got.ell, got.k) == (code.field, 3, code.k)
        assert got.payloads == tuple(s.bits for row in grid for s in row)
        assert len(got) == len(grid) == len(x)
        assert [list(row) for row in got] == grid
        for i in range(-len(grid), len(grid)):
            assert list(got[i]) == grid[i]
        with pytest.raises(IndexError):
            got[len(grid)]
        # a row is built when read and kept by no one; a slice is a PackedFile
        assert got[0] == got[0] and got[0] is not got[0]
        assert isinstance(got[1:], PackedFile) and list(map(list, got[1:])) == grid[1:]
        assert got[::-2] == grid[::-2] and len(got[5:2]) == 0
        # a recovered file is a file: it stores as the one it recovers
        assert build_storage(code, [got]).rows == build_storage(code, [x]).rows

    @pytest.mark.parametrize("width", [1, 4, 8, 16])
    def test_equal_either_way_round(self, width, monkeypatch):
        code, _, got, x, _ = self._round(width)
        x = nested(x)
        field, ell = code.field, got.ell
        other = FieldSpec(16 if width < 16 else 8)
        # the last entry replaced
        last = x[-1][-1]
        changed = {
            "flipped bit": StorageSymbol.from_bits(field, ell, last.bits ^ 1),
            "other field": StorageSymbol._of(other, ell, last.bits),
            "other ell": StorageSymbol.from_bits(field, ell + 1, last.bits),
            "bits": last.bits,
            "None entry": None,
        }
        misfits = {name: [*x[:-1], [*x[-1][:-1], sym]] for name, sym in changed.items()}
        misfits.update({
            "missing row": x[:-1],
            "extra row": [*x, x[0]],
            "short rows": [row[:-1] for row in x],
            "long rows": [[*row, row[0]] for row in x],
            "no rows": [],
            "row not a sequence": [*x[:-1], last],
            "rows of text": ["a" * code.k] * len(x),
            "text": "not a file",
            "int": 5,
            "None": None,
            "reshaped": PackedFile(field, ell, len(x), got.payloads),
            "other packed ell": PackedFile(field, ell + 1, code.k, got.payloads),
            "other packed field": PackedFile(other, ell, code.k, got.payloads),
        })
        same = [x, tuple(map(tuple, x)), got, PackedFile(field, ell, code.k, got.payloads)]
        made = _count_symbols(monkeypatch)
        for name, other in [*enumerate(same), *misfits.items()]:
            assert (got == other) is (other == got) is (name in range(len(same))), name
            assert (got != other) is (other != got) is (name not in range(len(same))), name
        assert made == []  # no comparison built a symbol
        assert got == [list(row) for row in got]
        with pytest.raises(TypeError):
            hash(got)

    def test_empty_file_equals_any_empty_sequence(self):
        # rows carry the field, ell and k: with none, a file is any empty sequence
        x = random_file(GF2, 3, 4, 8, random.Random(5))
        empties = [x[5:2], PackedFile(GF2, 8, 4, []), PackedFile(GF4, 3, 2, ())]
        for empty in empties:
            for other in ([], (), *empties):
                assert empty == other and other == empty
                assert not (empty != other or other != empty)
            for other in (x, x[:1], [[]], nested(x)):
                assert empty != other and other != empty
                assert not (empty == other or other == empty)

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_a_round_builds_no_symbol(self, width, monkeypatch):
        # from the file drawn to the file recovered and compared, payloads
        # stay packed: no StorageSymbol is made, by __init__ or _of
        field = FieldSpec(width)
        code = make_code(field, [[1, 1, 0], [0, 1, 1]])
        made = _count_symbols(monkeypatch)
        rng = random.Random(width)
        files = [random_file(field, E1.beta, code.k, 5, rng) for _ in range(2)]
        arr = build_storage(code, files)
        qs = build_queries(code, E1, m=2, f=2, seed=width)
        got = recover_file(qs, collect_responses(qs, arr), code)
        assert got == files[1] and got != files[0]
        assert made == []
        # the rows view builds a row's symbols when it is read, every time
        got[0]
        assert len(made) == code.k
        assert [list(row) for row in got] == [list(row) for row in files[1]]
        assert len(made) == code.k + 2 * E1.beta * code.k

    def test_recovery_builds_no_symbol(self, monkeypatch):
        code, e, x, arr = _c6_round(ell=4)
        qs = build_queries(code, e, m=1, f=1, seed=5)
        rs = collect_responses(qs, arr)
        made = _count_symbols(monkeypatch)
        got = recover_file(qs, rs, code)
        assert got == x and made == []
        # every stored row's symbols, built when the rows are read
        assert [row[2].bits for row in arr.rows] == list(arr.rows.payloads[2 :: code.n])
        assert len(made) == len(arr.rows) * code.n


def _count_symbols(monkeypatch) -> list:
    """The StorageSymbols made from here on, by __init__ or _of: a list that
    grows by one entry each."""
    made = []
    init, of = StorageSymbol.__init__, StorageSymbol._of.__func__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    def counting_of(cls, *args):
        made.append(args)
        return of(cls, *args)

    monkeypatch.setattr(StorageSymbol, "__init__", counting_init)
    monkeypatch.setattr(StorageSymbol, "_of", classmethod(counting_of))
    return made


class TestLayoutCache:
    """An access matrix derives its canonical layout once, and query sets
    with the default z read it as it is."""

    @staticmethod
    def _count_cached(monkeypatch, built):
        for name in ("canonical_slots", "_canonical_lanes"):
            real = getattr(EMatrix, name).func
            counted = cached_property(
                lambda self, real=real, name=name: built.update([name]) or real(self)
            )
            counted.__set_name__(EMatrix, name)
            monkeypatch.setattr(EMatrix, name, counted)

    @pytest.mark.parametrize("width", [1, 16])
    def test_two_sets_build_the_layout_once(self, width, monkeypatch):
        code, e, files, arr, seed = TestQueryView._instance(width, 2)
        built = Counter()
        self._count_cached(monkeypatch, built)
        e = EMatrix(e.rows, e.beta)  # nothing cached on it yet
        sets = [build_queries(code, e, m=m, f=2, seed=seed + m) for m in (1, 2)]
        sets.append(replace(sets[0], m=2))
        for qs in sets:
            assert recover_file(qs, collect_responses(qs, arr), code) == files[qs.m - 1]
            assert qs.z is e.canonical_slots and qs._lanes is e._canonical_lanes
        assert built == {"canonical_slots": 1, "_canonical_lanes": 1}
        # an equal z given by the caller is checked and keeps its own list
        given = build_queries(code, e, m=1, f=2, seed=seed + 1, z=[list(r) for r in e.canonical_slots])
        assert given.z == e.canonical_slots and given.z is not e.canonical_slots
        assert given._lanes == e._canonical_lanes and given._lanes is not e._canonical_lanes
        assert collect_responses(given, arr) == collect_responses(sets[0], arr)

    @pytest.mark.parametrize("width", [1, 16])
    def test_recovery_plan_derived_once(self, width, monkeypatch):
        # one plan per access matrix and row shift, across rounds, files and
        # replaced sets; a caller's z reads the same plan and places the
        # solved values through its own selection list
        code, e, files, arr, seed = TestQueryView._instance(width, 2)
        built = []
        real = protocol._recovery_plan
        monkeypatch.setattr(
            protocol, "_recovery_plan", lambda *args: built.append(args) or real(*args)
        )
        e = EMatrix(e.rows, e.beta)
        qs = build_queries(code, e, m=1, f=2, seed=seed)
        pi = (0, *range(e.beta, 0, -1))
        sets = [qs, build_queries(code, e, m=2, f=2, seed=seed + 1), replace(qs, m=2),
                replace(qs, pi=pi), build_queries(code, e, m=1, f=2, seed=seed + 2, pi=pi)]
        z = tuple(tuple(s and e.beta + 1 - s for s in row) for row in e.canonical_slots)
        sets.append(build_queries(code, e, m=2, f=2, seed=seed + 3, z=z))
        for one in sets:
            assert recover_file(one, collect_responses(one, arr), code) == files[one.m - 1]
        assert len(built) == 1 and list(e._recovery_plans) == [code.row_shift]
        assert sets[1]._picks is qs._picks is e._canonical_picks

    def test_c7_round_with_a_shuffled_layout(self):
        from codedpir.workbench import parse_code_file
        from conftest import FIXTURES_DIR

        cf = parse_code_file(FIXTURES_DIR / "c7_array.pchk")
        code = cf.code
        config = OptimizerConfig(seed=7, d_min=cf.d_min_hint, d_tilde_min=cf.d_tilde_min_hint)
        e = optimize_cpop(code, config).e_opt
        assert (code.k, e.beta) == (121, 60)
        rng = random.Random(7121)
        files = [random_file(code.field, e.beta, code.k, 2, rng) for _ in range(2)]
        arr = build_storage(code, files)
        pi = (0, *rng.sample(range(1, e.beta + 1), e.beta))
        # each column hands its slots out in falling rank order
        z = tuple(tuple(s and e.beta + 1 - s for s in row) for row in e.canonical_slots)
        for m in (1, 2):
            qs = build_queries(code, e, m=m, f=2, seed=rng.randrange(10**6), pi=pi, z=z)
            assert qs.z == z != e.canonical_slots and qs.pi != tuple(range(e.beta + 1))
            assert recover_file(qs, collect_responses(qs, arr), code) == files[m - 1]
        # the shuffled pi alone, on the plan's own placement
        qs = build_queries(code, e, m=1, f=2, seed=rng.randrange(10**6), pi=pi)
        assert qs.z is e.canonical_slots
        assert recover_file(qs, collect_responses(qs, arr), code) == files[0]


class TestRecovery:
    def test_reference_run_symbol_placement(self):
        qs = build_queries(c1_code(), E1, m=1, f=1, seed=0, pi=PI1, z=Z1)
        placements = {
            t: sorted((qs.pi[qs.z[t][l]], l + 1) for l in range(3) if E1.rows[t][l])
            for t in range(3)
        }
        assert placements[0] == [(1, 1), (2, 3)]  # x11 and x23
        assert placements[1] == [(1, 2), (2, 1)]  # x12 and x21
        assert placements[2] == [(1, 3), (2, 2)]  # x13 and x22

    @pytest.mark.parametrize("ell", [1, 8])
    def test_reference_round_trip(self, ell):
        code = c1_code()
        rng = random.Random(ell)
        for seed in range(25):
            x = random_file(GF2, 2, 3, ell, rng)
            arr = build_storage(code, [x])
            qs = build_queries(code, E1, m=1, f=1, seed=seed, pi=PI1, z=Z1)
            rs = collect_responses(qs, arr)
            assert recover_file(qs, rs, code) == x

    @pytest.mark.parametrize("width", [1, 4])
    def test_set_up_is_held_per_code(self, width, monkeypatch):
        # P's packed rows and the row shift's powers are built by the first
        # recovery only; a second on the same code packs no row of P
        field = FieldSpec(width)
        code = quasi_cyclic_code(width, field=field, size=3)
        assert code.row_shift[0] < code.k
        e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        rng = random.Random(width)
        x = random_file(field, e.beta, code.k, 5, rng)
        qs = build_queries(code, e, m=1, f=1, seed=rng.randrange(10**6))
        rs = collect_responses(qs, build_storage(code, [x]))
        p_rows = code.p._rows
        packed = []
        pack = BitSlices.pack

        def counting_pack(slices, components):
            packed.extend(i for i, row in enumerate(p_rows) if components is row)
            return pack(slices, components)

        monkeypatch.setattr(BitSlices, "pack", counting_pack)
        assert recover_file(qs, rs, code) == x
        assert sorted(packed) == list(range(code.n - code.k))
        packed.clear()
        got = recover_file(qs, rs, code)
        assert packed == []
        answers = [[sym.components for sym in resp] for resp in rs.responses]
        oracle = PeasantField(field.modulus, width)
        expected = recover_oracle(code.p.values(), e.rows, qs.pi, qs.z, e.beta, answers, oracle)
        assert [[sym.components for sym in row] for row in got] == expected
        assert got == x

    def test_round_trip_is_pi_invariant(self):
        code = c1_code()
        rng = random.Random(99)
        x = random_file(GF2, 2, 3, 4, rng)
        arr = build_storage(code, [x])
        for pi in [(0, 1, 2), (0, 2, 1)]:
            qs = build_queries(code, E1, m=1, f=1, seed=5, pi=pi)
            assert recover_file(qs, collect_responses(qs, arr), code) == x

    def test_random_codes_round_trip(self, code_corpus):
        rng = random.Random(314)
        small = [c for c in code_corpus if c.k <= 8][:25]
        assert small
        for code in small:
            res = optimize_cpop(code, OptimizerConfig(seed=2))
            f = rng.randint(1, 3)
            m = rng.randint(1, f)
            files = [random_file(code.field, res.beta_opt, code.k, 2, rng) for _ in range(f)]
            arr = build_storage(code, files)
            qs = build_queries(code, res.e_opt, m=m, f=f, seed=rng.randrange(10**6))
            rs = collect_responses(qs, arr)
            assert recover_file(qs, rs, code) == files[m - 1]

    def test_uncorrectable_row_raises(self):
        # columns 1 and 2 of P are equal, so the pattern (1,1,0) is not
        # correctable even though this matrix is regular
        code = make_code(GF2, [[1, 1, 0], [1, 1, 1]])
        e = EMatrix(((1, 1, 0), (1, 0, 1), (0, 1, 1)), beta=2)
        x = random_file(GF2, 2, 3, 1, random.Random(3))
        arr = build_storage(code, [x])
        qs = build_queries(code, e, m=1, f=1, seed=0)
        rs = collect_responses(qs, arr)
        with pytest.raises(ProtocolViolationError, match="singular"):
            recover_file(qs, rs, code)

    def test_singular_subquery_reported_before_an_inconsistent_one(self):
        # the uncorrectable code again, now with a corrupted parity response:
        # the rank is decided first
        code = make_code(GF2, [[1, 1, 0], [1, 1, 1]])
        e = EMatrix(((1, 1, 0), (1, 0, 1), (0, 1, 1)), beta=2)
        x = random_file(GF2, 2, 3, 1, random.Random(3))
        qs = build_queries(code, e, m=1, f=1, seed=0)
        rs = collect_responses(qs, build_storage(code, [x]))
        responses = [list(resp) for resp in rs.responses]
        responses[4][0] = plus(responses[4][0], StorageSymbol(GF2, [1]))
        corrupted = ResponseSet(responses=tuple(map(tuple, responses)))
        with pytest.raises(ProtocolViolationError, match=r"subquery 1: .*singular \(rank 1\)"):
            recover_file(qs, corrupted, code)

    @pytest.mark.parametrize("width", [1, 4])
    def test_corrupted_parity_response_is_inconsistent(self, width):
        # three parity rows against beta = 1: subquery 1's system is P's
        # column 1 alone, (1, 0, 1), and an error in parity row 2 (node 6)
        # moves the syndrome out of its span
        field = FieldSpec(width)
        code = make_code(field, [[1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1]])
        e = EMatrix(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), beta=1)
        x = random_file(field, 1, 4, 2, random.Random(width))
        qs = build_queries(code, e, m=1, f=1, seed=4)
        rs = collect_responses(qs, build_storage(code, [x]))
        assert recover_file(qs, rs, code) == x
        responses = [list(resp) for resp in rs.responses]
        responses[5][0] = plus(responses[5][0], StorageSymbol(field, [1, 0]))
        corrupted = ResponseSet(responses=tuple(map(tuple, responses)))
        with pytest.raises(ProtocolViolationError, match="subquery 1: parity responses are inconsistent"):
            recover_file(qs, corrupted, code)

    def test_full_width_subquery_rejected(self):
        # beta = k means a subquery selects every message node and recovery
        # has no interference-only responses to work from
        code = c1_code()
        e = EMatrix(tuple((1, 1, 1) for _ in range(3)), beta=3)
        x = random_file(GF2, 3, 3, 1, random.Random(4))
        arr = build_storage(code, [x])
        qs = build_queries(code, e, m=1, f=1, seed=0)
        rs = collect_responses(qs, arr)
        with pytest.raises(ProtocolViolationError, match="below k"):
            recover_file(qs, rs, code)

    def test_zero_file_recovers_zero(self):
        code = c1_code()
        x = [[StorageSymbol.from_bits(GF2, 3, 0)] * 3 for _ in range(2)]
        arr = build_storage(code, [x])
        qs = build_queries(code, E1, m=1, f=1, seed=1)
        assert recover_file(qs, collect_responses(qs, arr), code) == x

    def _c1_run(self, ell=4):
        code = c1_code()
        x = random_file(GF2, 2, 3, ell, random.Random(5))
        qs = build_queries(code, E1, m=1, f=1, seed=6)
        return code, qs, collect_responses(qs, build_storage(code, [x]))

    def _with_node(self, rs, node, resp):
        out = list(rs.responses)
        out[node - 1] = tuple(resp)
        return ResponseSet(responses=tuple(out))

    @pytest.mark.parametrize("change,message", [
        ({"pi": (0, 2)}, r"pi must permute 0\.\.2 and fix 0"),
        ({"z": ((0, 0, 0),) * 3}, r"slot 0 at \(0, 0\) outside 1\.\.2"),
        ({"e": EMatrix(((1, 1), (1, 1)), beta=2)}, "access matrix is 2 x 2, code needs 3 x 3"),
        ({"e": EMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)), beta=1), "pi": (0, 1),
          "z": ((1, 0, 0), (0, 1, 0), (0, 0, 1))},
         r"mask has 2 columns, the layout needs beta\*f = 1"),
        ({"f": 0}, "need at least one file"),
        ({"f": 2, "m": 3}, r"file index 3 out of 1\.\.2"),
    ], ids=["short_pi", "zeroed_slots", "small_matrix", "beta_mismatch", "no_files",
            "file_index_past_f"])
    def test_malformed_query_set_rejected(self, change, message):
        # refused with a named ValueError when the set is built, so no
        # recovery ever reads a layout that does not hold
        code, qs, rs = self._c1_run()
        with pytest.raises(ValueError, match="^" + message):
            replace(qs, **change)

    def test_responses_that_are_not_a_sequence_named(self):
        code, qs, rs = self._c1_run()
        message = "responses are a NoneType, not a sequence"
        with pytest.raises(ProtocolViolationError, match=message):
            recover_file(qs, ResponseSet(responses=None), code)

    def test_wrong_node_count_rejected(self):
        code, qs, rs = self._c1_run()
        with pytest.raises(ProtocolViolationError, match="from 5 nodes, got 4"):
            recover_file(qs, ResponseSet(responses=rs.responses[:4]), code)

    def test_truncated_response_names_node_and_subquery(self):
        code, qs, rs = self._c1_run()
        short = self._with_node(rs, 4, rs.responses[3][:1])
        with pytest.raises(ProtocolViolationError, match=r"node 4: 1 symbols .*subquery 2"):
            recover_file(qs, short, code)

    def test_wrong_field_names_node_and_subquery(self):
        code, qs, rs = self._c1_run()
        resp = list(rs.responses[2])
        resp[1] = StorageSymbol(GF4, resp[1].components)
        message = r"node 3, subquery 2: symbol over FieldSpec\(width=2"
        with pytest.raises(ProtocolViolationError, match=message):
            recover_file(qs, self._with_node(rs, 3, resp), code)

    def test_wrong_payload_length_names_node_and_subquery(self):
        code, qs, rs = self._c1_run()
        resp = list(rs.responses[4])
        resp[2] = StorageSymbol.from_bits(GF2, 5, 0)
        with pytest.raises(ProtocolViolationError, match=r"node 5, subquery 3: payload length 5"):
            recover_file(qs, self._with_node(rs, 5, resp), code)

    @staticmethod
    def _measured_price(code, e, ell):
        """Downloaded over retrieved symbols of one run; checks d = k on the way."""
        x = random_file(code.field, e.beta, code.k, ell, random.Random(0))
        qs = build_queries(code, e, m=1, f=1, seed=2)
        rs = collect_responses(qs, build_storage(code, [x]))
        assert all(len(r) == code.k for r in rs.responses)  # every node answers k symbols
        recovered = recover_file(qs, rs, code)
        assert recovered == x
        downloaded = sum(s.ell for r in rs.responses for s in r)
        return Fraction(downloaded, sum(s.ell for row in recovered for s in row))

    def test_cpop_of_run(self):
        assert self._measured_price(c1_code(), E1, ell=1) == Fraction(5, 2)

    def test_cpop_of_run_width_four_code(self):
        from codedpir.workbench import parse_code_file
        from conftest import FIXTURES_DIR

        code = parse_code_file(FIXTURES_DIR / "c3like.pchk").code
        res = optimize_cpop(code, OptimizerConfig(seed=1))
        assert res.beta_opt == 4
        assert self._measured_price(code, res.e_opt, ell=3) == Fraction(3)


def _misfit_round(width):
    """A c1-shaped code over GF(2^width) with P's entries 1 and 2^width - 1
    (every row of E1 stays correctable), two ell = 3 files, the storage, a
    query set for file 2 and its responses."""
    field = FieldSpec(width)
    c = field.order - 1
    code = make_code(field, [[1, c, 0], [0, 1, c]])
    rng = random.Random(width)
    files = [random_file(field, 2, 3, 3, rng) for _ in range(2)]
    arr = build_storage(code, files)
    qs = build_queries(code, E1, m=2, f=2, seed=width, pi=PI1, z=Z1)
    return code, files, arr, qs, collect_responses(qs, arr)


def _misfit_targets(entry, width):
    """(call, error type, slots) for one entry point: slots are the (label,
    container, index) of every symbol it takes, and call runs it on the
    containers as they stand."""
    code, files, arr, qs, rs = _misfit_round(width)
    n, k, nrows = code.n, code.k, len(arr.rows)
    if entry == "encode_file":
        x = [list(row) for row in files[0]]
        slots = [(f"stripe {s + 1}, symbol {l + 1}", x[s], l) for s in range(2) for l in range(k)]
        return (lambda: encode_file(code, x)), ValueError, slots
    if entry == "build_storage":
        fs = [[list(row) for row in f] for f in files]
        slots = [
            (f"file {m + 1}, stripe {s + 1}, symbol {l + 1}", fs[m][s], l)
            for m in range(2) for s in range(2) for l in range(k)
        ]
        return (lambda: build_storage(code, fs)), ValueError, slots
    if entry == "collect_responses":
        rows = [list(row) for row in arr.rows]
        slots = [(f"node {j + 1}, stored symbol {i + 1}", rows[i], j)
                 for i in range(nrows) for j in range(n)]
        return (lambda: collect_responses(qs, replace(arr, rows=tuple(map(tuple, rows))))
                ), ValueError, slots
    resp = [list(r) for r in rs.responses]
    slots = [(f"node {j + 1}, subquery {t + 1}", resp[j], t) for j in range(n) for t in range(k)]
    return (lambda: recover_file(qs, ResponseSet(tuple(map(tuple, resp))), code)
            ), ProtocolViolationError, slots


class TestMisfitSymbolsNamed:
    """Every entry point that takes storage symbols names a misfit by its position."""

    @pytest.mark.parametrize("kind", ["non_symbol", "wrong_field", "wrong_length"])
    @pytest.mark.parametrize("width", [1, 4, 16])
    @pytest.mark.parametrize("entry", [
        "encode_file", "build_storage", "collect_responses", "recover_file",
    ])
    def test_misfit_named_by_position(self, entry, width, kind):
        call, error, slots = _misfit_targets(entry, width)
        call()  # the untouched input is accepted
        rng = random.Random(f"{entry} {width} {kind}")
        label, container, index = slots[rng.randrange(1, len(slots))]
        ell = container[index].ell
        misfit, named = {
            "non_symbol": (4, "int 4 is not a storage symbol"),
            "wrong_field": (StorageSymbol(GF4, [1] * ell), "symbol over FieldSpec(width=2"),
            "wrong_length": (StorageSymbol(FieldSpec(width), [1] * (ell + 1)),
                             f"payload length {ell + 1}, {slots[0][0]} has {ell}"),
        }[kind]
        container[index] = misfit
        with pytest.raises(error) as info:
            call()
        assert str(info.value).startswith(f"{label}: {named}")

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_flat_stripe_named(self, width):
        # a file handed as one stripe, or a stripe as one symbol: a flat list
        # of symbols where rows of them belong
        code, files, arr, qs, rs = _misfit_round(width)
        stripe = list(files[0][0])
        for call, message in (
            (lambda: build_storage(code, [stripe]),
             "file 1, stripe 1 is a StorageSymbol, not a sequence of symbols"),
            (lambda: build_storage(code, stripe),
             "file 1 is a StorageSymbol, not a sequence of stripes"),
            (lambda: encode_file(code, stripe),
             "stripe 1 is a StorageSymbol, not a sequence of symbols"),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_array_without_rows_named(self):
        code, files, arr, qs, rs = _misfit_round(1)
        with pytest.raises(ValueError, match="query has 4 columns but the node stores 0 symbols"):
            collect_responses(qs, replace(arr, rows=()))

    def test_response_that_is_not_a_sequence_named(self):
        code, files, arr, qs, rs = _misfit_round(4)
        resp = list(rs.responses)
        resp[2] = resp[2][0]  # one symbol in place of node 3's k answers
        with pytest.raises(ProtocolViolationError, match="node 3: response is a StorageSymbol, "):
            recover_file(qs, ResponseSet(tuple(resp)), code)


class TestFaultInjection:
    """One corrupted response symbol is reported whenever the code can see it."""

    @staticmethod
    def _instance(name):
        from codedpir.workbench import parse_code_file
        from conftest import FIXTURES_DIR

        if name == "c1":
            code, e, x = c1_code(), E1, random_file(GF2, 2, 3, 2, random.Random(1))
            return code, e, x, build_storage(code, [x]), TinyField(2)
        if name == "c6_array":
            code, e, x, arr = _c6_round(ell=1)
            return code, e, x, arr, TinyField(2)
        code = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code
        e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        x = random_file(code.field, e.beta, code.k, 2, random.Random(4))
        oracle = PeasantField(code.field.modulus, code.field.width)
        return code, e, x, build_storage(code, [x]), oracle

    @pytest.mark.parametrize("name", ["c1", "c4like", "c6_array"])
    def test_detected_exactly_outside_the_span(self, name):
        code, e, x, arr, oracle = self._instance(name)
        k, n, field = code.k, code.n, code.field
        h_rows = code.h.values()
        qs = build_queries(code, e, m=1, f=1, seed=17)
        rs = collect_responses(qs, arr)
        assert recover_file(qs, rs, code) == x
        rng = random.Random(k)
        ell = arr.ell
        # every (node, subquery) pair on the small codes, one subquery per node on c6
        cases = [(j, t) for j in range(n) for t in range(k)] if k <= 10 else [
            (j, rng.randrange(k)) for j in range(n)
        ]
        outcomes = set()
        for j, t in cases:
            support = [l for l in range(k) if e.rows[t][l]]
            detectable = column_rank(h_rows, support + [j], oracle) > column_rank(
                h_rows, support, oracle
            )
            error = StorageSymbol(field, [rng.randrange(field.order) for _ in range(ell)])
            if not error.bits:
                error = StorageSymbol(field, [1] * ell)
            responses = [list(resp) for resp in rs.responses]
            responses[j][t] = plus(responses[j][t], error)
            corrupted = ResponseSet(responses=tuple(map(tuple, responses)))
            try:
                recover_file(qs, corrupted, code)
                raised = None
            except ProtocolViolationError as exc:
                raised = str(exc)
            if detectable:
                assert raised and raised.startswith(f"subquery {t + 1}: "), (j, t, raised)
            else:
                assert raised is None, (j, t, raised)
            outcomes.add((j in support, detectable))
        # a selected node's error always lies in the span; on c1 (beta = n - k)
        # every error does, on the larger codes some do not
        assert (True, True) not in outcomes
        assert ((False, True) in outcomes) == (name != "c1")


def assert_matches_oracle(report, expected):
    """Every field equal, statistical_ok included, but min_p_value: the
    oracle takes its tail from scipy, and _chi2_sf agrees to 1e-9."""
    assert math.isclose(report.min_p_value, expected.min_p_value, rel_tol=1e-9)
    assert replace(report, min_p_value=0.0) == replace(expected, min_p_value=0.0)


class TestPrivacy:
    def test_exact_check_small_instances(self):
        # (3,2) code with two files: mask space 2^(2*2*2) = 2^8... k*beta*f = 2*1*2
        code = make_code(GF2, [[1, 1]])
        e = EMatrix(((1, 0), (0, 1)), beta=1)
        multi, constr = exact_privacy_check(code, e, f=2)
        assert multi and constr

    def test_exact_check_c1(self):
        multi, constr = exact_privacy_check(c1_code(), E1, f=1)
        assert multi and constr

    def test_exact_check_flags_selection_on_parity_node(self):
        code = make_code(GF2, [[1, 1]])
        e = EMatrix(((1, 0), (0, 1)), beta=1)

        def broken(u_rows, m):
            # selection block leaks into the parity node's query
            k, width = 2, 2
            out = []
            for l in range(3):
                grid = [list(r) for r in u_rows]
                if l >= k:
                    grid[0][m - 1] ^= 1
                out.append(grid)
            return out

        multi, constr = exact_privacy_check(code, e, f=2, builder=broken)
        assert not constr

    def test_exact_check_names_short_builder_output(self):
        # c1 has n = 5 nodes and k = 3 rows per query
        with pytest.raises(ProtocolViolationError, match="3 node queries for file 1, expected 5"):
            exact_privacy_check(c1_code(), E1, f=1, builder=lambda u, m: [u] * 3)
        with pytest.raises(ProtocolViolationError, match="2 rows at node 0 for file 1, expected 3"):
            exact_privacy_check(c1_code(), E1, f=1, builder=lambda u, m: [u[:2]] * 5)

    def test_exact_check_limit(self):
        with pytest.raises(ValueError, match="limit"):
            exact_privacy_check(c1_code(), E1, f=1, limit=4)

    @pytest.mark.parametrize("limit", [None, 2.5])
    def test_limit_that_is_not_an_integer_named(self, limit):
        with pytest.raises(ValueError, match=f"^limit {limit!r} is not an integer"):
            exact_privacy_check(c1_code(), E1, f=1, limit=limit)
        with pytest.raises(ValueError, match=f"^exact_limit {limit!r} is not an integer"):
            verify_privacy(c1_code(), E1, f=1, trials=10, seed=0, exact_limit=limit)

    def test_exact_check_memory_at_the_limit(self):
        # 2^16 masks of 16 entries: the shared row lists and one list of k
        # references per mask, where a tuple of entries per mask took 11 MB.
        # A correct builder adds nothing that lasts, so the table is the
        # peak. This builder stops the check at its first call: the whole
        # check, traced, peaks at 5.3 MB but runs ~13x slower
        code = make_code(GF2, [[1, 1]])
        e = EMatrix(((1, 0), (0, 1)), beta=1)

        class Stop(Exception):
            pass

        def stop(u_rows, m):
            raise Stop

        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                exact_privacy_check(code, e, f=8, builder=stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_correct_builder_counts_nothing(self, monkeypatch):
        # equal multisets follow from the construction match: no counter is
        # made unless a query fails to match
        made = []

        class Recording(Counter):
            def __init__(self, *args):
                made.append(self)
                super().__init__(*args)

        monkeypatch.setattr(protocol, "Counter", Recording)
        assert exact_privacy_check(c1_code(), E1, f=2) == (True, True)
        assert made == []

        rotated = _exact_builders(c1_code(), E1, 2, None, None)["columns rotated"]
        assert exact_privacy_check(c1_code(), E1, f=2, builder=rotated) == (True, False)
        assert len(made) == 2 * 5  # one per file and node

    @pytest.mark.parametrize("width", [1, 4])
    def test_assembly_edits_no_row_and_shares_every_row_it_does_not_flip(self, width):
        # the exact check hands the built-in assembly the mask's own rows,
        # shared between masks, and copies none for it
        code = make_code(FieldSpec(width), [[1, 1, 0], [0, 1, 1]])
        rng = random.Random(width)
        for f, pi, z in ((1, None, None), (2, None, None), (2, PI1, Z1)):
            perm, slots = protocol._layout(code.k, E1, f, pi, z)
            for m in range(1, f + 1):
                flips = protocol._selection_flips(code.k, E1.beta, m, perm, slots)
                zero = [[0] * (E1.beta * f)] * code.k
                grids = selection_grid_oracle(E1, f, m, pi, z) + [zero] * (code.n - code.k)
                for _ in range(8):
                    mask = [
                        [rng.randrange(code.field.order) for _ in range(E1.beta * f)]
                        for _ in range(code.k)
                    ]
                    before = [row.copy() for row in mask]
                    queries = protocol._assemble(mask, code.n, flips)
                    assert mask == before
                    for q, grid in zip(queries, grids, strict=True):
                        assert q == [[u ^ g for u, g in zip(*pair)] for pair in zip(mask, grid)]
                        for row, given, grid_row in zip(q, mask, grid):
                            assert (row is given) == (not any(grid_row))

    def test_builder_editing_its_rows_is_judged_against_the_mask(self):
        # the rows a builder is handed are not the reference: one that flips
        # an entry in place, then adds the selection to what it flipped, is
        # the construction for another mask
        code = make_code(GF2, [[1, 1]])
        e = EMatrix(((1, 0), (0, 1)), beta=1)
        correct = _exact_builders(code, e, 2, None, None)["correct"]

        def editing(u_rows, m):
            u_rows[0][0] ^= 1
            return correct(u_rows, m)

        assert exact_privacy_check(code, e, f=2, builder=editing) == (True, False)

    def test_statistical_check_passes_on_c1(self):
        report = verify_privacy(c1_code(), E1, f=1, trials=3000, seed=42)
        assert report.exact_performed
        assert report.exact_multisets_ok and report.exact_construction_ok
        assert report.statistical_ok
        assert report.tests == 1 * 5 * 3 * 2
        assert report.ok

    def test_statistical_check_two_files_gf4(self):
        code = make_code(GF4, [[1, 2]])
        e = EMatrix(((1, 0), (0, 1)), beta=1)
        report = verify_privacy(code, e, f=2, trials=1500, seed=7)
        assert report.statistical_ok

    @pytest.mark.parametrize("check", ["exact", "statistical"])
    def test_malformed_layout_named(self, check):
        def run(e, f):
            if check == "exact":
                return exact_privacy_check(c1_code(), e, f=f)
            return verify_privacy(c1_code(), e, f=f, trials=10, seed=0)

        with pytest.raises(ValueError, match="access matrix is 2 x 2, code needs 3 x 3"):
            run(EMatrix(((1, 0), (0, 1)), beta=1), 1)
        with pytest.raises(ValueError, match="need at least one file"):
            run(E1, 0)

    def test_trials_validation(self):
        for trials in (0, 2.5):
            with pytest.raises(ValueError, match=f"trials {trials!r} is not"):
                verify_privacy(c1_code(), E1, f=1, trials=trials, seed=0)

    @pytest.mark.parametrize("significance", [0.0, -1.0, 1.0, 2.0, float("nan")])
    def test_significance_outside_open_unit_interval_rejected(self, significance):
        # at or below 0 any draw passes, from 1 up the threshold means nothing,
        # and nan compares false with everything
        with pytest.raises(ValueError, match=f"significance {significance!r} outside"):
            verify_privacy(c1_code(), E1, f=1, trials=10, seed=0, significance=significance)

    @pytest.mark.parametrize("name", ["c1", "mds53", "c5like"])
    @pytest.mark.parametrize("seed", [5, 424242])
    @pytest.mark.parametrize("trials", [150, 400])
    def test_report_matches_per_node_oracle(self, name, seed, trials):
        from codedpir.workbench import parse_code_file
        from conftest import FIXTURES_DIR, mds53_code

        if name == "c1":
            code = c1_code()
        elif name == "mds53":
            code = mds53_code()
        else:
            code = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code
        e = E1 if name == "c1" else optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        report = verify_privacy(code, e, f=2, trials=trials, seed=seed)
        assert_matches_oracle(report, verify_privacy_oracle(code, e, f=2, trials=trials, seed=seed))

    @pytest.mark.parametrize("width", [5, 7, 8])
    def test_report_matches_oracle_across_draw_chunks(self, width):
        # 9,000 trials of 4 entries: one draw request of 36,000 values over
        # several getrandbits chunks, kept as bytes up to w = 7 and as 32-bit
        # values at w = 8
        code = make_code(FieldSpec(width), [[1, 2]])
        e = EMatrix(((1, 0), (0, 1)), beta=1)
        trials = 9000
        assert trials * code.k * e.beta * 2 > 2 * _CHUNK
        report = verify_privacy(code, e, f=2, trials=trials, seed=11)
        assert not report.exact_performed
        assert_matches_oracle(report, verify_privacy_oracle(code, e, f=2, trials=trials, seed=11))

    def test_memory_follows_the_block_not_the_trials(self):
        # c5like at f = 2 draws 144 entries per trial: 20,000 trials drawn
        # at once would hold 2.9 MB of draws, a block holds about 131 KB
        code, e = _c5like_layout()
        tracemalloc.start()
        try:
            report = verify_privacy(code, e, f=2, trials=20_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 20_000 and not report.exact_performed
        assert peak < 1_000_000

    # widths 1-4 run the exact check instead, covered by the fixtures
    @pytest.mark.parametrize("width,trials", [(w, 200 if w == 8 else 20) for w in range(5, 17)])
    def test_wide_field_report_matches_oracle_in_trial_bounded_memory(self, width, trials):
        # fewer trials than field values: only the values drawn are counted
        code = make_code(FieldSpec(width), [[1, 2]])
        e = EMatrix(((1, 0), (0, 1)), beta=1)
        tracemalloc.start()
        try:
            report = verify_privacy(code, e, f=2, trials=trials, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a counter per field value costs 4 list slots of 2^w per file:
        # 256 KB at GF(2^12), 4 MB at GF(2^16)
        assert peak < 100_000
        assert not report.exact_performed
        assert_matches_oracle(report, verify_privacy_oracle(code, e, f=2, trials=trials, seed=3))


def _exact_builders(code, e, f, pi, z):
    """Query builders for exact_privacy_check, keyed by name, written from
    the oracle's selection grids: the construction, and ways to miss it."""
    k, n = code.k, code.n
    order = code.field.order
    width = e.beta * f
    last = order ** (k * width) - 1
    grids = {m: selection_grid_oracle(e, f, m, pi, z) for m in range(1, f + 1)}

    def correct(u_rows, m):
        sent = [
            [[u ^ g for u, g in zip(row, grid_row)] for row, grid_row in zip(u_rows, grids[m][l])]
            for l in range(k)
        ]
        return sent + [[list(row) for row in u_rows] for _ in range(n - k)]

    def index(u_rows):
        j = 0
        for v in itertools.chain.from_iterable(u_rows):
            j = j * order + v
        return j

    def rows_of(j):
        digits = [j // order ** p % order for p in reversed(range(k * width))]
        return [digits[i * width : (i + 1) * width] for i in range(k)]

    def parity_leak(u_rows, m):
        queries = correct(u_rows, m)
        for q in queries[k:]:
            q[0][0] = (m - 1) % order
        return queries

    def dropped_late(u_rows, m):
        # the last mask's file-f query at node 1 leaves out its selection
        queries = correct(u_rows, m)
        if m == f and index(u_rows) == last:
            queries[0] = [list(row) for row in u_rows]
        return queries

    def exchanged_late(u_rows, m):
        # file f's queries for the last two masks are each other's
        j = index(u_rows)
        if m == f and j >= last - 1:
            return correct(rows_of(j ^ 1), m)
        return correct(u_rows, m)

    def columns_rotated(u_rows, m):
        return [[[*row[1:], row[0]] for row in q] for q in correct(u_rows, m)]

    def shifted_entry(u_rows, m):
        # row 1's first entry moved to the end of row 0: the entries, read
        # row after row, are the construction's
        return [[q[0] + q[1][:1], q[1][1:], *q[2:]] for q in correct(u_rows, m)]

    return {
        "correct": correct,
        "tuple rows": lambda u, m: [list(map(tuple, q)) for q in correct(u, m)],
        "parity leak": parity_leak,
        "dropped late": dropped_late,
        "exchanged late": exchanged_late,
        "columns rotated": columns_rotated,
        "n + 1 queries": lambda u, m: [*correct(u, m), [list(row) for row in u]],
        "k + 1 rows": lambda u, m: [[*q, [0] * width] for q in correct(u, m)],
        "long rows": lambda u, m: [[[*row, 0] for row in q] for q in correct(u, m)],
        "short rows": lambda u, m: [[row[:-1] for row in q] for q in correct(u, m)],
        "shifted entry": shifted_entry,
    }


# (3,2) codes at w = 1, 2, 3 with f = 1 and 2 (4,096 masks at w = 3), and
# c1 at beta = 2 with the pi and z overrides
_EXACT_INSTANCES = [
    (field.width, [[1, min(2, field.order - 1)]], EMatrix(((1, 0), (0, 1)), beta=1), f, None, None)
    for field in (GF2, GF4, GF8)
    for f in (1, 2)
] + [(1, None, E1, 1, PI1, Z1)]


class TestExactCheckOracle:
    """exact_privacy_check against the counting oracle, which counts every
    query and compares each with an untouched copy of the mask."""

    @pytest.mark.parametrize("width,p_rows,e,f,pi,z", _EXACT_INSTANCES)
    def test_verdicts_match_the_oracle(self, width, p_rows, e, f, pi, z):
        code = c1_code() if p_rows is None else make_code(FieldSpec(width), p_rows)
        builders = _exact_builders(code, e, f, pi, z)
        verdicts = {}
        for name, builder in builders.items():
            verdicts[name] = exact_privacy_check(code, e, f, pi=pi, z=z, builder=builder)
            assert verdicts[name] == exact_privacy_oracle(code, e, f, builder, pi=pi, z=z), name
        assert exact_privacy_check(code, e, f, pi=pi, z=z) == verdicts["correct"] == (True, True)
        assert verdicts["tuple rows"] == (True, True)
        for name in ("exchanged late", "n + 1 queries", "k + 1 rows", "long rows",
                     "short rows", "shifted entry"):
            assert verdicts[name] == (True, False), name
        if f == 2:
            assert verdicts["parity leak"] == verdicts["dropped late"] == (False, False)
        if e.beta * f > 1:  # a one-column query has nothing to rotate
            assert verdicts["columns rotated"] == (True, False)


# the smallest Bonferroni threshold of the fixtures: c7_array (n = 187,
# k = 121) at its committed beta = 60 matrix, two files
_FAR_THRESHOLD = 0.01 / (2 * 187 * 121 * 60 * 2)


class TestChi2Tail:
    """_chi2_sf against scipy at df = 2^w - 1, the degrees of freedom of
    every field width verify_privacy tests."""

    @pytest.mark.parametrize("width", range(1, 17))
    def test_matches_scipy(self, width):
        from scipy.stats import chi2

        df = (1 << width) - 1
        sd = math.sqrt(2 * df)
        switch = df + 2  # x/2 = df/2 + 1: series below, continued fraction above
        xs = [df, switch - 1, switch * (1 - 1e-12), switch, switch * (1 + 1e-12), switch + 1]
        xs += [df * t / 10 for t in range(1, 61)]
        xs += [df + s * sd for s in range(-8, 9) if df + s * sd > 0]
        xs += [float(chi2.isf(_FAR_THRESHOLD * 10.0**-j, df)) for j in range(0, 13, 3)]
        # far enough out that both tails are below 1e-300
        xs += [float(chi2.isf(1e-290, df)) * t for t in (1, 1.2, 2)]
        tiny = 0
        for x in xs:
            mine, ref = _chi2_sf(x, df), float(chi2.sf(x, df))
            if ref > 1e-300:
                assert math.isclose(mine, ref, rel_tol=1e-9), (x, mine, ref)
            else:
                tiny += 1
                assert abs(mine - ref) <= 1e-300, (x, mine, ref)
        assert tiny

    @pytest.mark.parametrize("df", [1, 15, 65535])
    def test_zero_statistic_has_tail_one(self, df):
        assert _chi2_sf(0.0, df) == 1.0


def _c5like_layout():
    from codedpir.workbench import parse_code_file
    from conftest import FIXTURES_DIR

    code = parse_code_file(FIXTURES_DIR / "c5like.pchk").code
    return code, optimize_cpop(code, OptimizerConfig(seed=7)).e_opt


class TestDraws:
    """_draws against per-entry randrange: same values, same generator state."""

    @pytest.mark.parametrize("width", range(1, 17))
    @pytest.mark.parametrize("seed", [0, 424242])
    def test_matches_randrange(self, width, seed):
        mine, ref = random.Random(seed), random.Random(seed)
        # the last count needs several getrandbits chunks
        for count in (0, 1, 2 * _CHUNK + 3, 1):
            assert _draws(mine, 1 << width, count) == [ref.randrange(1 << width) for _ in range(count)]
            assert mine.random() == ref.random()

    @pytest.mark.parametrize("width", range(8))
    def test_bytes_kernel_matches_randrange(self, width):
        # up to order 2^7 the values come as bytes, one translate per chunk
        mine, ref = random.Random(width), random.Random(width)
        for count in (0, 1, 2 * _CHUNK + 3, 1):
            drawn = _draw_values(mine, 1 << width, count)
            assert isinstance(drawn, bytes)
            assert list(drawn) == [ref.randrange(1 << width) for _ in range(count)]
            assert mine.getstate() == ref.getstate()

    @pytest.mark.parametrize("order", [0, 3, 6, 1 << 32])
    def test_order_must_be_a_power_of_two_up_to_2_31(self, order):
        with pytest.raises(ValueError, match=f"draw order {order} "):
            _draws(random.Random(0), order, 1)

    @pytest.mark.parametrize("name", ["c1", "c5like"])
    def test_query_mask_is_per_entry_randrange(self, name):
        code, e = (c1_code(), E1) if name == "c1" else _c5like_layout()
        qs = build_queries(code, e, m=2, f=2, seed=31)
        rng = random.Random(31)
        width = e.beta * 2
        expected = [[rng.randrange(code.field.order) for _ in range(width)] for _ in range(code.k)]
        assert [list(row) for row in qs.u.values()] == expected

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_random_file_is_per_component_randrange(self, width):
        field = FieldSpec(width)
        mine, ref = random.Random(17), random.Random(17)
        x = random_file(field, 3, 4, 5, mine)
        expected = [
            [[ref.randrange(field.order) for _ in range(5)] for _ in range(4)] for _ in range(3)
        ]
        assert [[list(s.components) for s in row] for row in x] == expected
        assert mine.random() == ref.random()

    def test_privacy_counts_are_per_entry_randrange(self, monkeypatch):
        # 150 trials in blocks of 64: two full blocks of draws and a partial one
        code, e = _c5like_layout()
        f, trials, order = 2, 150, code.field.order
        monkeypatch.setattr(protocol, "_BLOCK_DRAWS", 1)
        seen = set()

        def recording(stat, df):
            seen.add(stat)
            return _chi2_sf(stat, df)

        monkeypatch.setattr(protocol, "_chi2_sf", recording)
        verify_privacy(code, e, f=f, trials=trials, seed=5)
        rng = random.Random(5)
        entries = code.k * e.beta * f
        expected = set()
        for _ in range(f):
            cells = [Counter() for _ in range(entries)]
            for _ in range(trials):
                for cell in cells:
                    cell[rng.randrange(order)] += 1
            for cell in cells:
                num = sum((c * order - trials) ** 2 for c in cell.values())
                expected.add((num + (order - len(cell)) * trials * trials) / (order * trials))
        assert seen == expected


class TestWidthCoverage:
    """The bit-sliced path against the per-component oracles, every width."""

    @pytest.mark.parametrize("width", range(1, 17))
    def test_packed_path_matches_oracle(self, width):
        field = FieldSpec(width)
        oracle = PeasantField(field.modulus, width)
        rng = random.Random(4000 + width)
        code = random_systematic_code(rng, field, n_lo=4, n_hi=8, oracle_cap_bits=10**6)
        e = optimize_cpop(code, OptimizerConfig(seed=width)).e_opt
        p_rows = code.p.values()
        for ell in (1, 3, 64, 65):
            f = 2
            m = rng.randint(1, f)
            files = [random_file(field, e.beta, code.k, ell, rng) for _ in range(f)]
            comps = [[[s.components for s in row] for row in x] for x in files]
            for s in files[0][0]:  # plane b, bit i = bit b of component i
                assert all(
                    (s.bits >> (b * ell + i)) & 1 == (c >> b) & 1
                    for b in range(width)
                    for i, c in enumerate(s.components)
                )
            c = rng.randrange(1, field.order)
            slices = bit_slices(field, ell)
            scaled = slices.unpack(slices.scale(files[0][0][0].bits, c))
            assert scaled == tuple(oracle.mul(c, v) for v in comps[0][0][0])

            arr = build_storage(code, files)
            stored = [[s.components for s in row] for row in arr.rows]
            assert stored == [row for x in comps for row in encode_oracle(p_rows, x, oracle)]

            qs = build_queries(code, e, m=m, f=f, seed=rng.randrange(10**6))
            rs = collect_responses(qs, arr)
            answers = components(rs)
            assert answers == oracle_answers(qs, arr, oracle)

            got = recover_file(qs, rs, code)
            expected = recover_oracle(p_rows, e.rows, qs.pi, qs.z, e.beta, answers, oracle)
            assert [[s.components for s in row] for row in got] == expected == comps[m - 1]
            assert got == files[m - 1]

    @staticmethod
    def _lanes_match_oracle(code, e, oracle, rng):
        """Rounds at payloads within, filling and past a 64-bit word: recover_file
        against the per-component oracle and the stored file."""
        for ell in (1, 3, 64, 65):
            f = 2
            m = rng.randint(1, f)
            files = [random_file(code.field, e.beta, code.k, ell, rng) for _ in range(f)]
            qs = build_queries(code, e, m=m, f=f, seed=rng.randrange(10**6))
            rs = collect_responses(qs, build_storage(code, files))
            answers = [[s.components for s in resp] for resp in rs.responses]
            got = recover_file(qs, rs, code)
            expected = recover_oracle(
                code.p.values(), e.rows, qs.pi, qs.z, e.beta, answers, oracle
            )
            assert [[s.components for s in row] for row in got] == expected
            assert got == files[m - 1]

    @pytest.mark.parametrize("width", range(1, 17))
    def test_two_lane_class_matches_oracle(self, width):
        # P = (a b 0 0 / 0 0 a b): shifting its columns by 2 swaps its rows,
        # and the scan's rows with supports {1, 2} and {0, 3} share a class
        field = FieldSpec(width)
        rng = random.Random(6400 + width)
        a, b = rng.randrange(1, field.order), rng.randrange(1, field.order)
        code = make_code(field, [[a, b, 0, 0], [0, 0, a, b]])
        e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        assert e.beta == 2 and code.row_shift == (2, (1, 0))
        assert [(1, 0), (2, 1)] in [m for _, m in protocol._shift_classes(e.rows, 2)]
        self._lanes_match_oracle(code, e, PeasantField(field.modulus, width), rng)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_circulant_access_matches_oracle(self, width):
        # a quasi-cyclic (18,12) code and an access matrix whose row t is row
        # 0's support shifted by t: k/g lanes per class, up to perm^(k/g - 1)
        field = FieldSpec(width)
        oracle = PeasantField(field.modulus, width)
        rng = random.Random(6500 + width)
        code = quasi_cyclic_code(width, field=field, size=3)
        k, p_rows = code.k, code.p.values()
        g = code.row_shift[0]
        assert g < k
        while True:
            start = rng.sample(range(k), 3)
            supports = [[(c + t) % k for c in start] for t in range(k)]
            if all(column_rank(p_rows, s, oracle) == 3 for s in supports):
                break
        e = EMatrix(tuple(tuple(int(l in s) for l in range(k)) for s in supports), beta=3)
        classes = [m for _, m in protocol._shift_classes(e.rows, g)]
        assert len(classes) == g and all(len(m) == k // g for m in classes)
        self._lanes_match_oracle(code, e, oracle, rng)


def _corrupt(rs, cells, field):
    """The responses with an all-ones error added at each (node, subquery), 0-based."""
    responses = [list(resp) for resp in rs.responses]
    for j, t in cells:
        responses[j][t] = plus(responses[j][t], StorageSymbol(field, [1] * responses[j][t].ell))
    return ResponseSet(responses=tuple(map(tuple, responses)))


def _detectable_parity_node(code, e, t, oracle):
    """The first parity node (0-based) whose error moves subquery t's syndrome
    out of the span of P[:, S_t]."""
    h_rows = code.h.values()
    support = [l for l in range(code.k) if e.rows[t][l]]
    base = column_rank(h_rows, support, oracle)
    return next(
        j for j in range(code.k, code.n) if column_rank(h_rows, support + [j], oracle) > base
    )


class TestShiftClassErrors:
    """Subqueries that share one solve still fail one by one, in order."""

    def test_c7_inconsistent_lanes_named_in_order(self):
        from codedpir.workbench import parse_code_file
        from conftest import FIXTURES_DIR

        cf = parse_code_file(FIXTURES_DIR / "c7_array.pchk")
        code = cf.code
        config = OptimizerConfig(seed=7, d_min=cf.d_min_hint, d_tilde_min=cf.d_tilde_min_hint)
        e = optimize_cpop(code, config).e_opt
        assert e.beta == 60 and code.row_shift[0] == 11
        # subquery 12 rides in subquery 1's class, in its second lane
        classes = {m[0][0]: m for _, m in protocol._shift_classes(e.rows, 11)}
        assert classes[0][1] == (11, 1)
        x = random_file(code.field, e.beta, code.k, 2, random.Random(12))
        qs = build_queries(code, e, m=1, f=1, seed=12)
        rs = collect_responses(qs, build_storage(code, [x]))
        assert recover_file(qs, rs, code) == x
        oracle = TinyField(2)
        twelve = (_detectable_parity_node(code, e, 11, oracle), 11)
        two = (_detectable_parity_node(code, e, 1, oracle), 1)
        with pytest.raises(
            ProtocolViolationError, match=r"^subquery 12: parity responses are inconsistent"
        ):
            recover_file(qs, _corrupt(rs, [twelve], code.field), code)
        with pytest.raises(
            ProtocolViolationError, match=r"^subquery 2: parity responses are inconsistent"
        ):
            recover_file(qs, _corrupt(rs, [twelve, two], code.field), code)

    # (7,4): shifting P's columns by 2 swaps its first two rows and keeps
    # its third. Supports {0, 1} and {2, 3} are singular (rank 1); {1, 2}
    # and {0, 3} are not, with one spare equation that an error on node 5
    # (parity row 1) breaks.
    SINGULAR = r"^subquery 1: interference system is singular \(rank 1\)"

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("supports,classes,corrupted,message", [
        # subquery 2, the second lane of subquery 1's class, before the
        # singular class of subqueries 3 and 4
        (({1, 2}, {0, 3}, {0, 1}, {2, 3}), [[(0, 0), (1, 1)], [(2, 0), (3, 1)]], [1],
         r"^subquery 2: parity responses are inconsistent"),
        # the singular class of subqueries 1 and 3 before subquery 4's lane
        (({0, 1}, {1, 2}, {2, 3}, {0, 3}), [[(0, 0), (2, 1)], [(1, 0), (3, 1)]], [3], SINGULAR),
        # singular before inconsistent within subquery 1
        (({0, 1}, {1, 2}, {2, 3}, {0, 3}), [[(0, 0), (2, 1)], [(1, 0), (3, 1)]], [0, 3], SINGULAR),
        # subquery 4's lane fails in the first class solved, but the singular
        # class after it starts at subquery 2
        (({1, 2}, {0, 1}, {2, 3}, {0, 3}), [[(0, 0), (3, 1)], [(1, 0), (2, 1)]], [3],
         r"^subquery 2: interference system is singular \(rank 1\)"),
    ], ids=["lane_first", "singular_first", "singular_within", "singular_after_a_later_lane"])
    def test_smallest_failing_subquery_named(self, width, supports, classes, corrupted, message):
        field = FieldSpec(width)
        code = make_code(field, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
        assert code.row_shift == (2, (1, 0, 2))
        e = EMatrix(tuple(tuple(int(l in s) for l in range(4)) for s in supports), beta=2)
        assert [m for _, m in protocol._shift_classes(e.rows, 2)] == classes
        x = random_file(field, 2, 4, 3, random.Random(width))
        qs = build_queries(code, e, m=1, f=1, seed=5)
        rs = collect_responses(qs, build_storage(code, [x]))
        with pytest.raises(ProtocolViolationError, match=message):
            recover_file(qs, _corrupt(rs, [(4, t) for t in corrupted], field), code)


def _shift2_code(field, rng):
    """(7,4) over `field`, as fixtures/gf65536_shift2.pchk over GF(2^16):
    P = (a b 0 0 / 0 0 a b / c(a b a b)). Shifting P's columns by 2 swaps
    its first two rows and keeps the third, so supports that differ by 2
    share a class, and rank(P) = 2 leaves a subquery of weight 2 one spare
    equation: a check row in its class's decode."""
    a, b, c = (rng.randrange(1, field.order) for _ in range(3))
    ca, cb = field.mul(c, a), field.mul(c, b)
    return make_code(field, [[a, b, 0, 0], [0, 0, a, b], [ca, cb, ca, cb]])


@functools.lru_cache(maxsize=1)
def _c7_matrix():
    """c7_array's P and the scan's beta = 60 access matrix."""
    from codedpir.workbench import parse_code_file
    from conftest import FIXTURES_DIR

    cf = parse_code_file(FIXTURES_DIR / "c7_array.pchk")
    config = OptimizerConfig(seed=7, d_min=cf.d_min_hint, d_tilde_min=cf.d_tilde_min_hint)
    return cf.code.p.values(), optimize_cpop(cf.code, config).e_opt


class _Counting:
    """Calls of the round's plan-time steps and table builds, by monkeypatch:
    eliminations (algebra._eliminate), class decodes (protocol.solve),
    recovery plans, selection masks, and the stacks of every Four-Russians
    table build (algebra._tables)."""

    def __init__(self, monkeypatch):
        self.calls, self.tables = Counter(), []
        for module, name in ((algebra, "_eliminate"), (protocol, "solve"),
                             (protocol, "_recovery_plan"), (protocol, "_selection_masks")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, self._wrap(name, real))
        real_tables = algebra._tables
        monkeypatch.setattr(
            algebra, "_tables", lambda stacks: self.tables.append(list(stacks)) or real_tables(stacks)
        )

    def _wrap(self, name, real):
        return lambda *args, **kwargs: self.calls.update([name]) or real(*args, **kwargs)

    def clear(self):
        self.calls.clear()
        self.tables.clear()


class TestPlanTimeDecode:
    """recover_file decodes each shift class by the inverse and check rows
    of its coefficients, derived once per class support and kept on the
    code; the respond tables are kept with the array. A round after the
    first runs no elimination and builds no table over the stored rows."""

    @pytest.mark.parametrize("width", range(1, 17))
    def test_multi_member_and_single_member_classes_match_oracle(self, width):
        field = FieldSpec(width)
        oracle = PeasantField(field.modulus, width)
        rng = random.Random(6600 + width)
        two = 2 if width > 1 else 1
        codes_ = {
            "shift2 with a check row": _shift2_code(field, rng),
            "gf16_shift2's P": make_code(field, [[1, two, 0, 0], [0, 0, 1, two]]),
            "c1's P": make_code(field, c1_code().p.values()),
        }
        for name, code in codes_.items():
            e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
            g = code.row_shift[0]
            sizes = [len(m) for _, m in protocol._shift_classes(e.rows, g)]
            assert (max(sizes) > 1) == (g < code.k), name
            TestWidthCoverage._lanes_match_oracle(code, e, oracle, rng)
            decodes = code._class_decodes
            assert all(len(d.checks) == code.n - code.k - e.beta for d in decodes.values()), name
        assert codes_["c1's P"].row_shift[0] == 3
        assert {len(d.checks) for d in codes_["shift2 with a check row"]._class_decodes.values()} == {1}

    @pytest.mark.parametrize("width", range(1, 17))
    def test_c7_shape_recovers_the_file(self, width):
        # c7_array's binary P over GF(2^w) at the beta = 60 matrix: eleven
        # classes of eleven subqueries, six check rows each; the recovered
        # file is the stored one (an oracle solve at this size is too slow)
        p_rows, e = _c7_matrix()
        field = FieldSpec(width)
        code = make_code(field, p_rows)
        assert code.row_shift[0] == 11
        rng = random.Random(7700 + width)
        files = [random_file(field, e.beta, code.k, 3, rng) for _ in range(2)]
        arr = build_storage(code, files)
        qs = build_queries(code, e, m=2, f=2, seed=width)
        assert recover_file(qs, collect_responses(qs, arr), code) == files[1]
        decodes = code._class_decodes
        assert len(decodes) == 11
        assert all(d.rank == 60 and len(d.checks) == 6 for d in decodes.values())

    @pytest.mark.parametrize("width", range(1, 17))
    def test_corrupted_node_gives_todays_error(self, width):
        field = FieldSpec(width)
        oracle = PeasantField(field.modulus, width)
        rng = random.Random(6700 + width)
        code = _shift2_code(field, rng)
        e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        x = random_file(field, e.beta, code.k, 3, rng)
        qs = build_queries(code, e, m=1, f=1, seed=width)
        rs = collect_responses(qs, build_storage(code, [x]))
        assert recover_file(qs, rs, code) == x
        for t in range(code.k):
            node = _detectable_parity_node(code, e, t, oracle)
            with pytest.raises(ProtocolViolationError) as exc:
                recover_file(qs, _corrupt(rs, [(node, t)], field), code)
            assert str(exc.value) == (
                f"subquery {t + 1}: parity responses are inconsistent with each other\n"
                f"failing subqueries: {t + 1} (inconsistent)"
            )
        # TestShiftClassErrors' (7,4) code: the class of supports {0, 1} and
        # {2, 3} is singular, known from its decode alone
        code = make_code(field, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
        e = EMatrix(tuple(tuple(int(l in s) for l in range(4)) for s in (
            {0, 1}, {1, 2}, {2, 3}, {0, 3})), beta=2)
        qs = build_queries(code, e, m=1, f=1, seed=width)
        rs = collect_responses(qs, build_storage(code, [random_file(field, 2, 4, 3, rng)]))
        with pytest.raises(ProtocolViolationError) as exc:
            recover_file(qs, _corrupt(rs, [(4, 3)], field), code)
        assert str(exc.value) == (
            "subquery 1: interference system is singular (rank 1); the access pattern is not "
            "correctable or responses are inconsistent\nfailing subqueries: 1 (singular, rank 1), "
            "3 (singular, rank 1), 4 (inconsistent)"
        )

    def test_every_inconsistent_member_named_in_one_pass(self):
        # c7: subqueries 12 and 2 ride in two classes; both are named, the
        # smallest first, as today
        p_rows, e = _c7_matrix()
        code = make_code(GF2, p_rows)
        x = random_file(code.field, e.beta, code.k, 2, random.Random(12))
        qs = build_queries(code, e, m=1, f=1, seed=12)
        rs = collect_responses(qs, build_storage(code, [x]))
        oracle = TinyField(2)
        cells = [(_detectable_parity_node(code, e, t, oracle), t) for t in (11, 1, 23)]
        with pytest.raises(ProtocolViolationError) as exc:
            recover_file(qs, _corrupt(rs, cells, code.field), code)
        assert str(exc.value) == (
            "subquery 2: parity responses are inconsistent with each other\n"
            "failing subqueries: 2 (inconsistent), 12 (inconsistent), 24 (inconsistent)"
        )

    @pytest.mark.parametrize("name", ["c4like", "c6_array"])
    def test_flagged_exactly_where_the_span_test_detects(self, name):
        # one corrupted response in each of a random half of the subqueries:
        # the error lists exactly the subqueries whose error leaves the span
        # of P[:, S_t] (the rank oracle), and nothing when none does
        code, e, x, arr, oracle = TestFaultInjection._instance(name)
        k, n, field = code.k, code.n, code.field
        h_rows = code.h.values()
        qs = build_queries(code, e, m=1, f=1, seed=23)
        rs = collect_responses(qs, arr)
        rng = random.Random(f"flags {name}")
        named = set()
        for trial in range(6):
            cells = [(rng.randrange(n), t) for t in rng.sample(range(k), k // 2)]
            detectable = set()
            for j, t in cells:
                support = [l for l in range(k) if e.rows[t][l]]
                if column_rank(h_rows, support + [j], oracle) > column_rank(h_rows, support, oracle):
                    detectable.add(t + 1)
            try:
                recover_file(qs, _corrupt(rs, cells, field), code)
                flagged = set()
            except ProtocolViolationError as exc:
                first, listed = str(exc).split("\nfailing subqueries: ")
                flagged = {int(item.split()[0]) for item in listed.split(", ")}
                assert first.startswith(f"subquery {min(flagged)}: parity responses are inconsistent")
                assert listed.count("(inconsistent)") == len(flagged)
            assert flagged == detectable, trial
            named |= flagged
        assert len(named) > 1

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_later_round_eliminates_nothing_and_tables_no_stored_row(self, width, monkeypatch):
        field = FieldSpec(width)
        rng = random.Random(6800 + width)
        for code in (_shift2_code(field, rng), TestMaskPlusUnitShortcut._instance(width)[0]):
            e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
            files = [random_file(field, e.beta, code.k, 3, rng) for _ in range(2)]
            arr = build_storage(code, files)
            counting = _Counting(monkeypatch)
            qs = build_queries(code, e, m=1, f=2, seed=1)
            assert recover_file(qs, collect_responses(qs, arr), code) == files[0]
            classes = protocol._shift_classes(e.rows, code.row_shift[0])
            assert counting.calls["_recovery_plan"] == counting.calls["_selection_masks"] == 1
            assert counting.calls["solve"] == len(classes) and counting.calls["_eliminate"]
            # over GF(2): the stored rows' tables, kept, and one per class
            assert counting.tables.count(arr._stacked) == (width == 1)
            assert len(counting.tables) == (1 + len(classes) if width == 1 else 0)
            for m, seed in ((2, 2), (1, 3)):
                counting.clear()
                qs = build_queries(code, e, m=m, f=2, seed=seed)
                assert recover_file(qs, collect_responses(qs, arr), code) == files[m - 1]
                assert not counting.calls
                # the only tables are the round's own right-hand sides, one per class
                assert len(counting.tables) == (len(classes) if width == 1 else 0)
                assert all(len(t) == code.n - code.k for t in counting.tables)
                assert arr._stacked not in counting.tables
            monkeypatch.undo()

    @pytest.mark.parametrize("width", [1, 16])
    def test_replaced_array_and_new_matrix_get_fresh_tables_and_plans(self, width, monkeypatch):
        field = FieldSpec(width)
        rng = random.Random(6900 + width)
        code = _shift2_code(field, rng)
        e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        files = [random_file(field, e.beta, code.k, 3, rng) for _ in range(2)]
        arr = build_storage(code, files)
        qs = build_queries(code, e, m=1, f=2, seed=1)
        rs = collect_responses(qs, arr)
        assert recover_file(qs, rs, code) == files[0]
        counting = _Counting(monkeypatch)
        # the same rows again, and other files: each array binds its own product
        same = replace(arr)
        other_files = [random_file(field, e.beta, code.k, 3, rng) for _ in range(2)]
        other = replace(arr, rows=build_storage(code, other_files).rows)
        assert collect_responses(qs, same) == rs
        assert same._product is not arr._product
        got = recover_file(qs, collect_responses(qs, other), code)
        assert got == other_files[0] != files[0]
        assert counting.tables[:2] == ([same._stacked, other._stacked] if width == 1 else [])
        assert not counting.calls  # one matrix, one code: nothing planned again
        # a new matrix plans its classes and masks again; the code keeps its decodes
        fresh = EMatrix(e.rows, e.beta)
        qs = build_queries(code, fresh, m=2, f=2, seed=2)
        assert recover_file(qs, collect_responses(qs, arr), code) == files[1]
        assert counting.calls == {"_recovery_plan": 1, "_selection_masks": 1}
        # a new code decodes its classes again
        counting.clear()
        twin = replace(code)
        assert recover_file(qs, collect_responses(qs, build_storage(twin, files)), twin) == files[1]
        classes = protocol._shift_classes(e.rows, code.row_shift[0])
        assert counting.calls["solve"] == len(classes) and counting.calls["_eliminate"]
        assert counting.calls["_recovery_plan"] == 0


class TestMaskKeys:
    """collect_responses reads each mask row's lookup keys (QuerySet._keys),
    derived once per set: build_queries fills them from its draw, and a set
    built directly or by dataclasses.replace derives them from its own u."""

    @staticmethod
    def _instance(width):
        field = FieldSpec(width)
        rng = random.Random(7500 + width)
        code = random_systematic_code(rng, field, n_lo=5, n_hi=8, oracle_cap_bits=10**6)
        e = optimize_cpop(code, OptimizerConfig(seed=width)).e_opt
        files = [random_file(field, e.beta, code.k, 3, rng) for _ in range(3)]
        qs = build_queries(code, e, m=2, f=3, seed=rng.randrange(10**6))
        return rng, build_storage(code, files), qs

    @pytest.mark.parametrize("width", range(1, 17))
    def test_keys_are_each_rows_and_answers_match_oracle(self, width):
        rng, arr, qs = self._instance(width)
        field = qs.u.field
        oracle = PeasantField(field.modulus, width)
        direct = protocol.QuerySet(
            qs.n, qs.m, qs.f, FieldMatrix(field, qs.u.values()), qs.e, qs.pi, qs.z
        )
        other = [[rng.randrange(field.order) for _ in row] for row in qs.u.values()]
        replaced = replace(qs, u=FieldMatrix(field, other))
        for name, s in (("drawn", qs), ("direct", direct), ("replaced", replaced)):
            assert len(s._keys) == s.u.nrows, name
            for row, key in zip(s.u._rows, s._keys):
                lane_keys = algebra._lane_keys(field, row)
                if width == 1:  # the itemgetter picks entry 16g + index g of each nonzero group
                    picks = (0, 0, *[16 * g + d for g, d in enumerate(key) if d])
                    assert lane_keys(range(16 * len(key))) == picks, name
                else:
                    assert key == lane_keys, name
            assert components(collect_responses(s, arr)) == oracle_answers(s, arr, oracle), name
        assert direct._keys == qs._keys != replaced._keys

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_respond_encodes_no_mask_row(self, width, monkeypatch):
        _, arr, qs = self._instance(width)
        fresh = replace(qs)  # a set of its own, with qs's mask and no keys yet
        calls = Counter()
        for module, name in ((algebra, "_table_indices"), (algebra, "_lane_keys"),
                             (protocol, "_row_keys")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        # it derives its keys on its first respond, every row in one bulk pass
        expected = collect_responses(fresh, arr)
        assert calls == Counter({"_row_keys": 1, "_table_indices": int(width == 1)})
        calls.clear()
        assert collect_responses(fresh, arr) == expected
        assert not calls
        # build_queries filled qs's keys from its draw: with mask rows no
        # respond may read (bytes(), list() or len() of one raises), each
        # respond encodes nothing
        monkeypatch.setattr(qs.u, "_rows", [object()] * qs.u.nrows)
        for _ in range(2):
            assert collect_responses(qs, arr) == expected
            assert not calls


# what a refused query set or round may say: each names the part that does not hold
_TAMPER_ERRORS = (
    r"pi must permute", r"slot ", r"column \d+ does not use each stripe slot",
    r"file index ", r"need at least one file", r"node count ", r"mask has \d+ columns",
    r"query set has \d+ node queries, the code has \d+ nodes",
    r"query set and storage array disagree on beta or f",
)


def _tampered(rng, qs, code):
    """One field of qs replaced at random: (kind, the changes for replace)."""
    beta, k = qs.beta, code.k
    kind = rng.choice(["pi", "pi_moves_0", "z", "m", "f", "u", "n"])
    if kind == "pi":
        return kind, {"pi": (0, *rng.sample(range(1, beta + 1), beta))}
    if kind == "pi_moves_0":
        pi = (0,)
        while pi[0] == 0:
            pi = tuple(rng.sample(range(beta + 1), beta + 1))
        return kind, {"pi": pi}
    if kind == "z":
        z = [list(row) for row in qs.z]
        i, l = rng.randrange(k), rng.randrange(k)
        z[i][l] = rng.choice([s for s in range(beta + 2) if s != z[i][l]])
        return kind, {"z": tuple(map(tuple, z))}
    if kind == "m":
        return kind, {"m": rng.choice([v for v in (-1, 0, 1, 2, 3, 4, 1.5) if v != qs.m])}
    if kind == "f":
        return kind, {"f": rng.choice([v for v in (0, 1, 2, 3, 4) if v != qs.f])}
    if kind == "u":
        rows = [list(row) for row in qs.u.values()]
        i, c = rng.randrange(k), rng.randrange(len(rows[0]))
        rows[i][c] ^= rng.randrange(1, code.field.order)
        return kind, {"u": FieldMatrix(code.field, rows)}
    return kind, {"n": rng.choice([k - 1, k, code.n - 1, code.n + 1, float(code.n)])}


class TestTamperedQuerySets:
    """A query set changed through dataclasses.replace, one field at a time,
    either recovers the file its own m names or is refused with a named
    ValueError or ProtocolViolationError: its queries follow its layout, so
    the answers and the recovery read the same layout."""

    @pytest.mark.parametrize("name", ["c2like", "gf4_32", "gf16_shift2", "c3like"])
    def test_right_file_or_a_named_error(self, name):
        from codedpir.workbench import parse_code_file
        from conftest import FIXTURES_DIR

        code = parse_code_file(FIXTURES_DIR / f"{name}.pchk").code
        e = optimize_cpop(code, OptimizerConfig(seed=7)).e_opt
        f = 3
        rng = random.Random(f"tamper {name}")
        files = [random_file(code.field, e.beta, code.k, 2, rng) for _ in range(f)]
        arr = build_storage(code, files)
        outcomes = Counter()
        for trial in range(150):
            qs = build_queries(code, e, m=rng.randint(1, f), f=f, seed=rng.randrange(10**6))
            kind, change = _tampered(rng, qs, code)
            try:
                tampered = replace(qs, **change)
                got = recover_file(tampered, collect_responses(tampered, arr), code)
            except (ValueError, ProtocolViolationError) as exc:
                assert any(re.search(p, str(exc)) for p in _TAMPER_ERRORS), (trial, change, exc)
                outcomes[kind, "refused"] += 1
                continue
            assert got == files[tampered.m - 1], (trial, change)
            outcomes[kind, "recovered"] += 1
        # a valid shuffle of the slots or another mask always recovers; a pi
        # that moves 0 or a changed slot never does
        for kind in ("pi", "u"):
            assert outcomes[kind, "recovered"] and not outcomes[kind, "refused"], kind
        for kind in ("pi_moves_0", "z"):
            assert outcomes[kind, "refused"] and not outcomes[kind, "recovered"], kind
        assert outcomes["m", "recovered"] and outcomes["m", "refused"]
