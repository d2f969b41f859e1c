import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from codedpir import EMatrix, NotSystematicError, OptimizerConfig, RateError, optimize_cpop
from codedpir.workbench import (
    CodeFileError,
    fixture_path,
    format_e_matrix,
    parse_code_file,
    parse_code_text,
    parse_e_matrix_text,
    serialize_code,
)
from codedpir.workbench.cli import main

from conftest import FIXTURES_DIR, TESTS_DIR, c1_code

GOLDEN_DIR = TESTS_DIR / "golden"


class TestCodeFileParsing:
    def test_bundled_c1(self):
        cf = parse_code_file(fixture_path("c1.pchk"))
        assert cf.name == "c1"
        assert cf.code.h == c1_code().h
        assert cf.d_min_hint is None and cf.d_tilde_min_hint is None

    def test_bundled_mds(self):
        cf = parse_code_file(fixture_path("mds53.pchk"))
        assert (cf.code.n, cf.code.k) == (5, 3)
        assert cf.code.field.width == 3

    def test_hints_and_comments(self):
        text = """# a comment
field 1
code 5 3   # trailing comment
dmin 2
dtmin 3

1 1 0 1 0
0 1 1 0 1
"""
        cf = parse_code_text(text, name="x")
        assert cf.d_min_hint == 2
        assert cf.d_tilde_min_hint == 3

    def test_large_code_hints_skip_search(self):
        cf = parse_code_file(FIXTURES_DIR / "c7_array.pchk")
        assert (cf.code.n, cf.code.k) == (187, 121)
        assert cf.d_min_hint == 7
        assert cf.d_tilde_min_hint == 16

    def test_malformed_line_reports_line_number(self):
        text = "field 1\ncode 5 3\n1 1 0 1 zebra\n0 1 1 0 1\n"
        with pytest.raises(CodeFileError, match=r":3: "):
            parse_code_text(text)

    def test_wrong_row_width_reports_line(self):
        text = "field 1\ncode 5 3\n1 1 0 1\n0 1 1 0 1\n"
        with pytest.raises(CodeFileError, match=r":3: row has 4 entries"):
            parse_code_text(text)

    def test_wrong_row_count(self):
        text = "field 1\ncode 5 3\n1 1 0 1 0\n"
        with pytest.raises(CodeFileError, match="expected 2 parity rows"):
            parse_code_text(text)

    def test_entry_outside_field(self):
        text = "field 1\ncode 5 3\n1 1 0 1 0\n0 2 1 0 1\n"
        with pytest.raises(CodeFileError, match="outside GF"):
            parse_code_text(text)

    @pytest.mark.parametrize("width", [0, 17])
    def test_field_width_out_of_range_names_the_line(self, width):
        text = f"# no field {width}\nfield {width}\ncode 5 3\n1 1 0 1 0\n0 1 1 0 1\n"
        message = rf"^<string>:2: field width must be in 1\.\.16, got {width}$"
        with pytest.raises(CodeFileError, match=message):
            parse_code_text(text)

    def test_code_invariant_errors_pass_through(self):
        rate_half = "field 1\ncode 4 2\n1 0 1 0\n0 1 0 1\n"
        with pytest.raises(RateError):
            parse_code_text(rate_half)
        not_systematic = "field 1\ncode 5 3\n1 1 0 0 1\n0 1 1 1 0\n"
        with pytest.raises(NotSystematicError):
            parse_code_text(not_systematic)

    def test_round_trip(self):
        for name in ("c1.pchk", "mds53.pchk"):
            cf = parse_code_file(fixture_path(name))
            text = serialize_code(cf.code, cf.d_min_hint, cf.d_tilde_min_hint)
            again = parse_code_text(text)
            assert again.code.h == cf.code.h
            assert again.d_min_hint == cf.d_min_hint
            assert serialize_code(again.code, again.d_min_hint, again.d_tilde_min_hint) == text


class TestEMatrixFormat:
    def test_round_trip(self):
        e = EMatrix(((1, 0, 1), (1, 1, 0), (0, 1, 1)), beta=2)
        text = format_e_matrix(e)
        assert text == "101\n110\n011\n"
        assert parse_e_matrix_text(text) == e

    @pytest.mark.parametrize("text, where", [
        ("10\n0x\n", "line 2, column 2: 'x'"),
        ("12\n21\n", "line 1, column 2: '2'"),
        ("\n  11\n  1a\n", "line 3, column 4: 'a'"),
        ("10\n0 1\n", "line 2, column 2: ' '"),
    ])
    def test_bad_character_names_line_and_column(self, text, where):
        with pytest.raises(ValueError, match=f"^{where} is not 0 or 1$"):
            parse_e_matrix_text(text)


class TestCli:
    def test_analyze_c1(self, capsys):
        assert main(["analyze", str(fixture_path("c1.pchk"))]) == 0
        out = capsys.readouterr().out
        for line in ("d_min: 2", "d_tilde_min: 3", "theta_lb: 5/2 (2.5)",
                     "theta_non_opt: 5/2 (2.5)", "rank_p: 2", "k_tilde: 1"):
            assert line in out

    def test_analyze_uses_hints(self, capsys):
        assert main(["analyze", str(FIXTURES_DIR / "c6_array.pchk")]) == 0
        out = capsys.readouterr().out
        assert "d_min: 4 (hint)" in out
        assert "d_tilde_min: 6 (hint)" in out
        assert "theta_non_opt: 154/5 (30.8)" in out
        assert "theta_lb: 14/3 (4.6667)" in out

    def test_optimize_writes_matrix(self, tmp_path, capsys):
        out_file = tmp_path / "e.txt"
        rc = main(["optimize", str(fixture_path("c1.pchk")), "--seed", "1",
                   "--out", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta_opt: 2" in out
        assert "theta_opt: 5/2 (2.5)" in out
        assert "iterations: 1" in out
        e = parse_e_matrix_text(out_file.read_text())
        assert e.k == 3 and e.beta == 2

    def test_simulate_reports_ok(self, capsys):
        rc = main(["simulate", str(fixture_path("c1.pchk")), "--seed", "5",
                   "--files", "2", "--payload", "8", "--target", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered: ok" in out
        assert "theta: 5/2 (2.5)" in out
        assert "downloaded: 120 field symbols" in out
        assert "retrieved: 48 field symbols" in out

    def test_privacy_passes(self, capsys):
        rc = main(["privacy", str(fixture_path("c1.pchk")), "--seed", "2",
                   "--trials", "1500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact_multisets: ok" in out
        assert "verdict: pass" in out

    def test_table_c1_values(self, capsys):
        rc = main(["table", str(fixture_path("c1.pchk")), "--seed", "3", "--format", "tsv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split("\t")
        row = dict(zip(header, lines[1].split("\t")))
        assert row["d_min"] == "2"
        assert row["dt_min"] == "3"
        assert Fraction(row["theta_non_opt"]) == Fraction(5, 2)
        assert Fraction(row["theta_opt"]) == Fraction(5, 2)
        assert Fraction(row["theta_lb"]) == Fraction(5, 2)
        assert row["exhaustive"] == "yes"

    def test_table_searches_each_distance_once(self, monkeypatch, capsys):
        import codedpir.optimizer as optimizer_module
        import codedpir.workbench.cli as cli_module

        searched = []
        real = cli_module.min_distance

        def counting(H, cap=25):
            searched.append((H.nrows, H.ncols))
            return real(H, cap)

        monkeypatch.setattr(cli_module, "min_distance", counting)
        monkeypatch.setattr(optimizer_module, "min_distance", counting)
        names = ("c2like", "c3like", "c4like", "c5like")  # no distance hints
        paths = [str(FIXTURES_DIR / f"{name}.pchk") for name in names]
        assert main(["table", *paths, "--seed", "7"]) == 0
        assert len(searched) == 2 * len(names)  # H and P of each code, once apiece

    def test_table_deterministic_output(self, capsys):
        args = ["table", str(fixture_path("c1.pchk")), str(fixture_path("mds53.pchk")),
                "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_table_reports_bad_file_and_continues(self, tmp_path, capsys):
        bad = tmp_path / "bad.pchk"
        bad.write_text("field 1\ncode 4 2\n1 0 1 0\n0 1 0 1\n")
        rc = main(["table", str(fixture_path("c1.pchk")), str(bad), "--seed", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "c1" in out
        assert "error:" in out and "rate" in out

    def test_domain_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.pchk"
        rc = main(["analyze", str(missing)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", str(fixture_path("c1.pchk"))])  # seed missing
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @staticmethod
    def _c1_with_hint(tmp_path, hint):
        bad = tmp_path / f"c1_{hint.replace(' ', '')}.pchk"
        bad.write_text(fixture_path("c1.pchk").read_text().replace("code 5 3\n", f"code 5 3\n{hint}\n"))
        return str(bad)

    def test_optimize_rejects_dmin_one_hint(self, tmp_path, capsys):
        assert main(["optimize", self._c1_with_hint(tmp_path, "dmin 1"), "--seed", "1"]) == 1
        assert "error: reference prices need d_min >= 2" in capsys.readouterr().err

    def test_table_reports_dmin_one_hint_as_error_row(self, tmp_path, capsys):
        good = [str(fixture_path("c1.pchk")), str(fixture_path("mds53.pchk"))]
        bad = self._c1_with_hint(tmp_path, "dmin 1")
        rc = main(["table", good[0], bad, good[1], "--seed", "1", "--format", "tsv"])
        assert rc == 1
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["c1", "c1_dmin1", "mds53"]
        assert rows[1][1].startswith("error: reference prices need d_min >= 2")
        assert rows[0][4] == rows[2][4] == "2"  # beta_opt of both good codes

    def test_optimize_rejects_impossible_dtmin_hint(self, tmp_path, capsys):
        # rank(P) = 2 on c1, so no three columns of P are independent
        assert main(["optimize", self._c1_with_hint(tmp_path, "dtmin 4"), "--seed", "1"]) == 1
        assert "error: d_tilde_min 4 exceeds rank(P) + 1 = 3" in capsys.readouterr().err

    def test_table_reports_impossible_dtmin_hint_as_error_row(self, tmp_path, capsys):
        good = [str(fixture_path("c1.pchk")), str(fixture_path("mds53.pchk"))]
        bad = self._c1_with_hint(tmp_path, "dtmin 4")
        rc = main(["table", good[0], bad, good[1], "--seed", "1", "--format", "tsv"])
        assert rc == 1
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["c1", "c1_dtmin4", "mds53"]
        assert rows[1][1].startswith("error: d_tilde_min 4 exceeds rank(P) + 1 = 3")
        assert rows[0][4] == rows[2][4] == "2"  # beta_opt of both good codes

    @pytest.mark.parametrize("hint,message", [
        ("dtmin 4", "error: d_tilde_min 4 exceeds rank(P) + 1 = 3"),
        ("dmin 4", "error: d_min 4 exceeds d_tilde_min 3"),
    ])
    def test_analyze_rejects_impossible_distance_hint(self, tmp_path, capsys, hint, message):
        # the prices analyze would print from these hints are no price of c1
        assert main(["analyze", self._c1_with_hint(tmp_path, hint)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_simulate_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(fixture_path("c1.pchk"))])
        assert exc.value.code == 2


class TestGoldenOutputs:
    """CLI output at fixed seeds, byte for byte against committed files."""

    def test_table_tsv_over_the_fixtures(self, capsys):
        names = ("c2like", "c3like", "c4like", "c5like", "c6_array", "c7_array")
        paths = [str(FIXTURES_DIR / f"{name}.pchk") for name in names]
        assert main(["table", *paths, "--seed", "7", "--format", "tsv"]) == 0
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN_DIR / "table_seed7.tsv").read_bytes()

    def test_table_tsv_over_a_wide_field_code(self, capsys):
        # no distance hints: both exact searches and the exhaustive listing
        # run over GF(2^16)
        path = str(FIXTURES_DIR / "cauchy18_gf65536.pchk")
        assert main(["table", path, "--seed", "7", "--format", "tsv"]) == 0
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN_DIR / "table_seed7_gf65536.tsv").read_bytes()

    def test_optimize_writes_the_c6_matrix(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        args = ["optimize", str(FIXTURES_DIR / "c6_array.pchk"), "--seed", "7", "--out", str(out)]
        assert main(args) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "c6_array_seed7_e.txt").read_bytes()

    @pytest.mark.parametrize("name", ["c6_array", "c7_array"])
    def test_optimize_keep_going(self, name, capsys):
        args = ["optimize", str(FIXTURES_DIR / f"{name}.pchk"), "--seed", "7", "--keep-going"]
        assert main(args) == 0
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN_DIR / f"{name}_seed7_keep_going.txt").read_bytes()

    @staticmethod
    def _code_path(name):
        bundled = name in ("c1", "mds53")
        return str(fixture_path(f"{name}.pchk") if bundled else FIXTURES_DIR / f"{name}.pchk")

    @pytest.mark.parametrize("name", ["c1", "mds53", "c2like", "c5like"])
    def test_privacy_two_files(self, name, capsys):
        args = ["privacy", self._code_path(name), "--seed", "7", "--trials", "500", "--files", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN_DIR / f"privacy_seed7_{name}.txt").read_bytes()

    def test_privacy_over_a_wide_field_code(self, capsys):
        # the statistical check alone at w = 16, where the dense oracle
        # cannot run: pins the GF(2^16) mask stream end to end
        args = ["privacy", str(FIXTURES_DIR / "cauchy18_gf65536.pchk"), "--seed", "7",
                "--trials", "200", "--files", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN_DIR / "privacy_seed7_gf65536.txt").read_bytes()

    def test_module_run_raises_no_warning(self):
        # `python -m codedpir.workbench.cli` with warnings as errors, on the
        # package these tests import
        import codedpir

        src = str(Path(codedpir.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        args = ["privacy", self._code_path("c1"), "--seed", "7", "--trials", "500", "--files", "2"]
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "codedpir.workbench.cli", *args],
            capture_output=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr.decode()
        assert run.stderr == b""
        assert run.stdout == (GOLDEN_DIR / "privacy_seed7_c1.txt").read_bytes()

    @pytest.mark.parametrize("name", ["c1", "mds53", "c3like"])
    def test_simulate_second_of_two_files(self, name, capsys):
        args = ["simulate", self._code_path(name), "--seed", "7", "--files", "2",
                "--payload", "8", "--target", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out.encode()
        assert out == (GOLDEN_DIR / f"simulate_seed7_{name}.txt").read_bytes()
