import csv
import dataclasses
import io
import json
import random
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import support
from comrade import (DenseMatrix, ScalarMode, comrade_times_dense, dense_det,
                     dense_invert, example33, invert, load_comrade, load_dense,
                     make_comrade, parse_rational, random_comrade, to_dense)
from comrade import cli
from comrade.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDet:
    def test_default_mode_falls_back_to_symbolic(self, capsys, comrade_file):
        path = comrade_file(support.ZERO_PIVOT4)
        code, out, err = run(capsys, "det", str(path))
        assert code == 0
        assert out.strip() == "24"
        assert err.startswith("note: zero pivot at index 1")

    def test_exact_mode_without_fallback(self, capsys, comrade_file):
        path = comrade_file(support.ZERO_PIVOT4)
        code, out, err = run(capsys, "det", str(path), "--mode", "exact")
        assert code == 4
        assert err.startswith("error: zero pivot at index 1")

    def test_symbolic_mode_explicit(self, capsys, comrade_file):
        path = comrade_file(support.ZERO_PIVOT4)
        code, out, err = run(capsys, "det", str(path), "--mode", "symbolic")
        assert (code, out.strip(), err) == (0, "24", "")

    def test_exact_value(self, capsys, comrade_file):
        path = comrade_file(support.SAMPLE5)
        code, out, err = run(capsys, "det", str(path))
        assert (code, out.strip(), err) == (0, "-1/45", "")

    def test_float_mode(self, capsys, comrade_file):
        path = comrade_file(example33(4))
        code, out, _ = run(capsys, "det", str(path), "--mode", "float")
        assert code == 0
        assert float(out) == 5.5

    def test_determinant_past_the_digit_limit(self, capsys, comrade_file):
        # 2,000-digit entries give a determinant of about 6,000 digits,
        # past Python's default int/str digit limit of 4,300
        rng = random.Random("det-digits")
        big = lambda k: tuple(rng.randrange(10**1999, 10**2000) for _ in range(k))
        C = make_comrade(3, big(3), big(2), big(2), big(1))
        code, out, err = run(capsys, "det", str(comrade_file(C)))
        assert (code, err) == (0, "")
        assert len(out.strip().lstrip("-")) > 4300
        assert parse_rational(out.strip()) == dense_det(to_dense(C))

    def test_float_overflow_is_an_error(self, capsys, comrade_file):
        path = comrade_file(support.TINY_PIVOT3)
        code, out, err = run(capsys, "det", str(path), "--mode", "float")
        assert (code, out) == (6, "")
        assert err == "error: float determinant is not finite; retry in exact mode\n"
        assert run(capsys, "det", str(path))[0] == 0


class TestInv:
    def test_writes_inverse_file(self, capsys, comrade_file, tmp_path):
        path = comrade_file(support.ZERO_PIVOT4)
        out_path = tmp_path / "inv.json"
        code, out, err = run(capsys, "inv", str(path), "-o", str(out_path))
        assert code == 0
        assert "determinant: 24" in out
        assert "substitutions: pivot[1]" in out
        written = load_dense(out_path)
        assert written.rows == support.ZERO_PIVOT4_INVERSE

    def test_no_substitutions_line(self, capsys, comrade_file, tmp_path):
        path = comrade_file(support.SAMPLE5)
        out_path = tmp_path / "inv.json"
        code, out, _ = run(capsys, "inv", str(path), "-o", str(out_path))
        assert code == 0
        assert "determinant: -1/45" in out
        assert "substitutions: none" in out
        assert load_dense(out_path).rows == support.SAMPLE5_INVERSE

    def test_alpha_substitution_logged(self, capsys, comrade_file, tmp_path):
        path = comrade_file(support.ALPHA_ZERO4)
        out_path = tmp_path / "inv.json"
        code, out, _ = run(capsys, "inv", str(path), "-o", str(out_path))
        assert code == 0
        assert "substitutions: alpha[1]" in out

    def test_output_times_input_is_identity(self, capsys, comrade_file, tmp_path):
        # the written file reloads to the exact inverse, not an approximation
        for name, C in [("s5", support.SAMPLE5), ("zp4", support.ZERO_PIVOT4),
                        ("a4", support.ALPHA_ZERO4)]:
            path = comrade_file(C, f"{name}.json")
            out_path = tmp_path / f"{name}_inv.json"
            assert main(["inv", str(path), "-o", str(out_path)]) == 0
            S = load_dense(out_path)
            assert comrade_times_dense(C, S) == DenseMatrix.identity(C.n)
        capsys.readouterr()

    def test_singular_input(self, capsys, comrade_file, tmp_path):
        path = comrade_file(support.SINGULAR4)
        code, out, err = run(capsys, "inv", str(path), "-o",
                             str(tmp_path / "x.json"))
        assert code == 3
        assert err.strip() == "error: matrix is singular"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("mode", [m.value for m in ScalarMode])
    @pytest.mark.parametrize("name", ["SINGULAR4", "PROPORTIONAL4"])
    def test_singular_input_in_every_mode(self, capsys, comrade_file, tmp_path, mode, name):
        # whichever phase refuses, a singular file is exit 3, and in SYMBOLIC
        # never a pole at t = 0 (exit 5); outside SYMBOLIC, PROPORTIONAL4
        # hits its zero pivot first
        path = comrade_file(getattr(support, name))
        out_path = tmp_path / "x.json"
        for argv in (["inv", str(path), "-o", str(out_path)], ["check", str(path)]):
            code, out, err = run(capsys, *argv, "--mode", mode)
            if name == "PROPORTIONAL4" and mode != "symbolic":
                assert (code, err) == (4, "error: zero pivot at index 2; retry in symbolic mode\n")
                continue
            assert (code, out, err) == (3, "", "error: matrix is singular\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("mode_argv", [[], ["--mode", "symbolic"]], ids=["default", "symbolic"])
    def test_singular_pivot_only_input(self, capsys, comrade_file, tmp_path, mode_argv):
        # beta_1 = 0 and rows 3 and 4 equal: the SYMBOLIC log holds only
        # pivots, and the t = 0 last two columns refuse D_n(0) = 0
        path = comrade_file(make_comrade(4, (0, 3, 2, 2), (1, 1, 2), (1, 1, 2), (1, 0)))
        out_path = tmp_path / "x.json"
        code, out, err = run(capsys, "inv", str(path), "-o", str(out_path), *mode_argv)
        assert (code, out) == (3, "")
        assert err.endswith("error: matrix is singular\n")
        assert not out_path.exists()

    def test_float_underflowing_determinant_is_not_singular(self, capsys, comrade_file,
                                                            tmp_path):
        # nonzero pivots whose float product underflows: the inverse is written
        path = comrade_file(support.UNDERFLOW3)
        out_path = tmp_path / "inv.json"
        code, out, err = run(capsys, "inv", str(path), "-o", str(out_path), "--mode", "float")
        assert (code, out, err) == (0, "determinant: 0.0\nsubstitutions: none\n", "")
        S = invert(support.UNDERFLOW3, ScalarMode.EXACT).inverse
        assert load_dense(out_path).as_floats() == S.as_floats()


class TestCheck:
    def test_exact_residual_is_zero(self, capsys, comrade_file):
        path = comrade_file(support.ZERO_PIVOT4)
        code, out, _ = run(capsys, "check", str(path))
        assert (code, out.strip()) == (0, "0")

    def test_float_residual_is_small(self, capsys, comrade_file):
        path = comrade_file(example33(6))
        code, out, _ = run(capsys, "check", str(path), "--mode", "float")
        assert code == 0
        assert 0 <= float(out) < 1e-12

    @pytest.fixture
    def off_by_half(self, monkeypatch):
        """`check` sees an inverse with 1/2 added to entry (1, 1)."""
        def wrong_invert(C, mode):
            result = invert(C, mode)
            rows = [list(row) for row in result.inverse.rows]
            rows[0][0] += F(1, 2)
            return dataclasses.replace(result, inverse=DenseMatrix.from_rows(rows))
        monkeypatch.setattr(cli, "invert", wrong_invert)

    @pytest.mark.parametrize("mode_argv", [[], ["--mode", "symbolic"]], ids=["default", "symbolic"])
    def test_exact_residual_sees_a_wrong_inverse(self, capsys, comrade_file, off_by_half,
                                                 mode_argv):
        # column 1 of C*S - I is C's column 1, (0, 2, 0, -1), halved
        path = comrade_file(support.ZERO_PIVOT4)
        code, out, _ = run(capsys, "check", str(path), *mode_argv)
        assert (code, out) == (0, "1\n")

    def test_float_residual_sees_a_wrong_inverse(self, capsys, comrade_file, off_by_half):
        path = comrade_file(example33(6))
        code, out, _ = run(capsys, "check", str(path), "--mode", "float")
        assert code == 0
        assert float(out) >= 0.5

    def test_float_overflow_is_an_error(self, capsys, comrade_file, tmp_path):
        path = comrade_file(support.TINY_PIVOT3)
        out_path = tmp_path / "inv.json"
        for argv in (["check", str(path)], ["inv", str(path), "-o", str(out_path)]):
            code, out, err = run(capsys, *argv, "--mode", "float")
            assert (code, out) == (6, "")
            assert err.startswith("error: float inverse entry (1, 1) is not finite")
        assert not out_path.exists()
        assert run(capsys, "check", str(path))[:2] == (0, "0\n")

    def test_float_determinant_overflow_is_an_error(self, capsys, comrade_file, tmp_path):
        # finite inverse entries, but the pivot product overflows
        path = comrade_file(support.HUGE_DIAGONAL3)
        code, out, err = run(capsys, "inv", str(path), "-o", str(tmp_path / "inv.json"),
                             "--mode", "float")
        assert (code, out) == (6, "")
        assert err == "error: float determinant is not finite; retry in exact mode\n"


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "det", "/no/such/file.json")
        assert code == 2
        assert err.startswith("error: cannot read")

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "det", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    SAMPLE5_TEXT = (support.FIXTURE_DIR / "sample5.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("content, reason", [
        (SAMPLE5_TEXT.encode("utf-16"), "not UTF-8 text"),
        (SAMPLE5_TEXT.encode().replace(b'"-1/2"', b'"-1/2\xff"', 1), "not UTF-8 text"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply")],
        ids=["utf-16", "stray-0xff", "100000-deep"])
    @pytest.mark.parametrize("command", ["det", "inv", "check"])
    def test_unreadable_bytes_are_a_one_line_error(self, capsys, tmp_path, command,
                                                   content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out_path = tmp_path / "inv.json"
        argv = [command, str(bad)] + (["-o", str(out_path)] if command == "inv" else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: {reason}")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_reading_does_not_depend_on_the_locale(self):
        # the reader names its encoding, so no default-encoding warning
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "comrade", "det", str(support.FIXTURE_DIR / "sample5.json")],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-1/45\n", "")

    def test_writing_does_not_depend_on_the_locale(self, tmp_path):
        # both writers name their encoding, so no default-encoding warning
        for argv in (["gen", "--family", "random", "--n", "5", "--seed", "3"],
                     ["inv", str(support.FIXTURE_DIR / "sample5.json")],
                     ["bench", "--family", "example33", "--sizes", "4", "--mode", "exact"]):
            out_path = tmp_path / f"{argv[0]}.out"
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "comrade", *argv, "-o", str(out_path)],
                capture_output=True, text=True)
            assert (argv[0], proc.returncode, proc.stderr) == (argv[0], 0, "")
            assert out_path.stat().st_size > 0

    def test_non_ascii_digit_is_a_located_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "beta": ["1", "1", "1"], "alpha": ["1", "\\u0663"],'
                       ' "gamma": ["1", "1"], "a": ["1"]}')
        code, out, err = run(capsys, "det", str(bad))
        assert (code, out) == (2, "")
        assert err == (f"error: {bad}: alpha[1]: invalid rational literal '\u0663'"
                       " (want 'p' or 'p/q')\n")

    def test_non_ascii_whitespace_is_a_located_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "beta": ["1", "1", "1"], "alpha": ["1", "1"],'
                       ' "gamma": ["1", "\\u30001"], "a": ["1"]}')
        code, out, err = run(capsys, "det", str(bad))
        assert (code, out) == (2, "")
        entry = "\u30001"                       # an ideographic space, then 1
        assert err == (f"error: {bad}: gamma[1]: invalid rational literal {entry!r}"
                       " (want 'p' or 'p/q')\n")

    def test_float_entry_beyond_range_is_an_error(self, capsys, comrade_file, tmp_path):
        C = make_comrade(3, (10**400, 1, 2), (1, 1), (1, 1), (1,))
        path = comrade_file(C)
        out_path = tmp_path / "inv.json"
        for argv in (["det", str(path)], ["check", str(path)],
                     ["inv", str(path), "-o", str(out_path)]):
            code, out, err = run(capsys, *argv, "--mode", "float")
            assert (code, out) == (6, "")
            assert err == "error: float entry beta_1 is not finite; retry in exact mode\n"
        assert not out_path.exists()
        code, out, _ = run(capsys, "det", str(path))
        assert (code, parse_rational(out.strip())) == (0, dense_det(to_dense(C)))

    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_mode(self):
        with pytest.raises(SystemExit):
            main(["det", "x.json", "--mode", "decimal"])


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, capsys, comrade_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        good = str(comrade_file(support.ZERO_PIVOT4))
        out_path = tmp_path / "inv.json"
        calls = [["det", str(bad)], ["det", good, "--mode", "decimal"], ["--help"],
                 ["det", good], ["inv", good, "-o", str(out_path)], ["check", good]]

        def outcome(argv):
            try:
                code = ("returned", main(argv))
            except SystemExit as exc:
                code = ("exited", exc.code)
            out, err = capsys.readouterr()
            written = out_path.read_text() if out_path.exists() else None
            out_path.unlink(missing_ok=True)
            return code, out, err, written

        reused = [outcome(argv) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        assert [code for code, *_ in reused] == [("returned", 2), ("exited", 2), ("exited", 0),
                                                 ("returned", 0), ("returned", 0),
                                                 ("returned", 0)]
        assert reused[4][3] is not None


class TestGen:
    def test_example33(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, _, _ = run(capsys, "gen", "--family", "example33", "--n", "6",
                         "-o", str(out_path))
        assert code == 0
        assert load_comrade(out_path) == example33(6)

    def test_random_matches_library(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, _, _ = run(capsys, "gen", "--family", "random", "--n", "5",
                         "--seed", "3", "--zero-pivot-bias", "1.0",
                         "-o", str(out_path))
        assert code == 0
        assert load_comrade(out_path) == random_comrade(5, 3, 1.0)

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert main(["gen", "--family", "random", "--n", "4",
                         "--seed", "9", "-o", str(target)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("family", ["example33", "random"])
    def test_n_below_3_is_refused(self, capsys, tmp_path, family):
        out_path = tmp_path / "m.json"
        code, out, err = run(capsys, "gen", "--family", family, "--n", "2", "-o", str(out_path))
        assert (code, out, err) == (1, "", "error: bad --n 2: a comrade matrix needs n >= 3\n")
        assert not out_path.exists()


class TestBench:
    def read_csv(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_exact_mode_report(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--family", "example33",
                         "--sizes", "4,8", "--mode", "exact",
                         "-o", str(out_path))
        assert code == 0
        rows = self.read_csv(out_path)
        assert rows[0] == ["n", "mode", "op_count", "wall_time_seconds", "epsilon"]
        assert len(rows) == 3
        for row, n in zip(rows[1:], (4, 8)):
            assert row[0] == str(n)
            assert row[1] == "exact"
            assert int(row[2]) == 7 * n * n - 5 * n - 11
            assert float(row[3]) >= 0 and "." in row[3]
            assert row[4] == "0"  # exact inverse matches the oracle exactly

    def test_default_mode_is_float(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--family", "example33",
                         "--sizes", "5", "-o", str(out_path))
        assert code == 0
        rows = self.read_csv(out_path)
        assert rows[1][1] == "float"
        assert float(rows[1][4]) < 1e-10  # LU-solved float inverse, near roundoff

    @pytest.mark.parametrize("family", ["example33", "random"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_epsilon_against_oracle_then_residual(self, capsys, tmp_path, monkeypatch,
                                                  family, mode):
        # n = 4 is compared with the oracle, n = 5 (above the limit) by residual
        monkeypatch.setattr(cli, "ORACLE_LIMIT", 4)
        out_path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--family", family, "--sizes", "4,5",
                         "--mode", mode, "-o", str(out_path))
        assert code == 0
        rows = self.read_csv(out_path)[1:]
        assert [row[0] for row in rows] == ["4", "5"]
        expected = []
        for n in (4, 5):
            M = example33(n) if family == "example33" else random_comrade(n, 0)
            S = invert(M, ScalarMode(mode)).inverse
            if n == 4:
                exact = dense_invert(to_dense(M))
                eps = ((exact.as_floats() if mode == "float" else exact) - S).inf_norm()
            else:
                identity = DenseMatrix.identity(n)
                if mode == "float":
                    identity = identity.as_floats()
                eps = (comrade_times_dense(M, S) - identity).inf_norm()
            expected.append(repr(eps) if mode == "float" else str(eps))
        assert [row[4] for row in rows] == expected
        if mode == "float":
            assert 0 < float(rows[0][4]) != float(rows[1][4])

    def test_bad_sizes(self, capsys):
        code, out, err = run(capsys, "bench", "--family", "example33", "--sizes", "4,x")
        assert (code, out, err) == (1, "", "error: bad --sizes entry 'x'\n")

    @pytest.mark.parametrize("sizes", ["2", "4,2", "0", "5,-1"])
    def test_sizes_below_3_are_refused_before_output(self, capsys, sizes):
        code, out, err = run(capsys, "bench", "--family", "random", "--sizes", sizes)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad --sizes entry ")
        assert err.endswith(": a comrade matrix needs n >= 3\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--sizes", "5,7", "--seed", "3", "--zero-pivot-bias", "1.0"],
                                      ["--sizes", "4,5", "--seed", "11", "--zero-pivot-bias", "0.5"]])
    def test_failing_size_writes_no_file(self, capsys, tmp_path, argv):
        # a zero pivot at the first size, or only at the second: nothing is
        # written, not even the header, as `inv` writes nothing on error
        out_path = tmp_path / "bench.csv"
        code, out, err = run(capsys, "bench", "--family", "random", *argv, "-o", str(out_path))
        assert (code, out) == (4, "")
        assert err.startswith("error: zero pivot at index ")
        assert not out_path.exists()
        assert run(capsys, "bench", "--family", "random", *argv)[:2] == (4, "")

    def test_sizes_below_3_write_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, err = run(capsys, "bench", "--family", "example33", "--sizes", "4,2",
                           "-o", str(out_path))
        assert code == 1
        assert err == "error: bad --sizes entry '2': a comrade matrix needs n >= 3\n"
        assert not out_path.exists()


class TestEntryPoint:
    def test_main_module_in_process(self, capsys, monkeypatch):
        # what `python -m comrade det sample5.json` runs, in this process,
        # where line tracing sees it, and not only in a subprocess
        monkeypatch.setattr(sys, "argv",
                            ["comrade", "det", str(support.FIXTURE_DIR / "sample5.json")])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("comrade", run_name="__main__")
        assert exit_info.value.code == 0
        assert capsys.readouterr() == ("-1/45\n", "")

    def test_python_dash_m(self, comrade_file):
        path = comrade_file(support.ZERO_PIVOT4)
        proc = subprocess.run([sys.executable, "-m", "comrade", "det", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "24"
        assert "note:" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "example33", "--n", "2", "-o"],
        ["bench", "--family", "random", "--sizes", "2", "-o"]])
    def test_n_below_3_is_a_one_line_error(self, tmp_path, argv):
        out_path = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "comrade", *argv, str(out_path)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.endswith(": a comrade matrix needs n >= 3\n")
        assert proc.stderr.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["inv", str(support.FIXTURE_DIR / "sample5.json"), "-o"],
        ["gen", "--family", "example33", "--n", "5", "-o"],
        ["bench", "--family", "random", "--sizes", "4", "-o"]], ids=["inv", "gen", "bench"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_is_a_one_line_error(self, tmp_path, argv, where):
        out_path = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
        proc = subprocess.run([sys.executable, "-m", "comrade", *argv, str(out_path)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.endswith(f"{str(out_path)!r}\n")
        assert proc.stderr.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []


# Files for the property test of the file boundary: valid comrade files
# of order n <= 6, mutated; truncated JSON; random bytes; and extreme
# literals in a valid file.  No input allocates much: a mutated n is
# only compared with the list lengths.

FIELDS = ("n", "beta", "alpha", "gamma", "a")

small_literal = st.one_of(st.integers(-3, 3).map(str),
                          st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def valid_comrade(draw):
    n = draw(st.integers(3, 6))
    lists = (st.lists(small_literal, min_size=k, max_size=k) for k in (n, n - 1, n - 1, n - 2))
    return dict(zip(FIELDS, (n, *map(draw, lists))))


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | small_literal,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)

EXTREME_LITERALS = ("0", "-0", "0/5", "1/0", "0/0", "1/-2", "+1", " 1 ", "1.5", "1e3",
                    "\u0663", "", "/", "--1", "9" * 5000, "1/" + "9" * 5000,
                    str(-10**400), str(2**1100), "-0/1")
EXTREME_ORDERS = (10**30, -1, 0, 2, 3.0, 1e308, float("nan"), float("inf"), True, "3",
                  None, [3])


@st.composite
def mutated_file(draw):
    data = draw(valid_comrade())
    key = draw(st.sampled_from(FIELDS + ("extra",)))
    if draw(st.booleans()):
        data.pop(key, None)
    else:
        data[key] = draw(json_value)
    return json.dumps(data).encode()


@st.composite
def truncated_file(draw):
    text = json.dumps(draw(valid_comrade()), indent=2).encode()
    return text[:draw(st.integers(0, len(text) - 1))]


@st.composite
def extreme_file(draw):
    data = draw(valid_comrade())
    field = draw(st.sampled_from(FIELDS))
    if field == "n":
        data["n"] = draw(st.sampled_from(EXTREME_ORDERS))
    else:
        entries = data[field]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(EXTREME_LITERALS))
    return json.dumps(data).encode()


#: the exit codes of cli's docstring that det, inv and check can return
DOCUMENTED_CODES = {0, 2, 3, 4, 5, 6}


@pytest.fixture(scope="module")
def boundary_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


class TestFileBoundary:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(content=st.one_of(mutated_file(), truncated_file(), st.binary(max_size=64),
                             extreme_file()),
           command=st.sampled_from(["det", "inv", "check"]),
           mode=st.sampled_from([None, "exact", "symbolic", "float"]))
    def test_any_file_gives_a_documented_code(self, boundary_folder, content, command, mode):
        path, out_path = boundary_folder / "in.json", boundary_folder / "inv.json"
        path.write_bytes(content)
        argv = [command, str(path)] + (["-o", str(out_path)] if command == "inv" else [])
        argv += ["--mode", mode] if mode else []
        out_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in DOCUMENTED_CODES
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == (code != 0)
        if code:
            assert err.getvalue().endswith(errors[0] + "\n") and out.getvalue() == ""
        assert out_path.exists() == (command == "inv" and code == 0)
