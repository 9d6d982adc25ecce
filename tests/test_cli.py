"""Command line: file format, subcommands, exit codes, diagnostics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import geninv
import support
from geninv import ParseError, mat_mul, partial_identity
from geninv.cli import parse_matrix_text, pretty_matrix, run, write_matrix

EX1_TEXT = "3 3\n1 2 3\n4 5 6\n7 8 9\n"
EX1_PINV_TEXT = "3 3\n-23/36 -1/6 11/36\n-1/18 0 1/18\n19/36 1/6 -7/36\n"
EX3_TEXT = (
    "5 5\n"
    "1 1 1 0 0\n"
    "1 2 0 1 1\n"
    "1 0 2 -1 -1\n"
    "0 1 -1 1 1\n"
    "0 1 -1 1 1\n"
)
NILPOTENT_TEXT = "2 2\n0 1\n0 0\n"


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.rmat"
    path.write_text(EX1_TEXT)
    return str(path)


@pytest.fixture
def ex3_file(tmp_path):
    path = tmp_path / "ex3.rmat"
    path.write_text(EX3_TEXT)
    return str(path)


class TestMatrixFile:
    def test_parse_basic(self):
        assert parse_matrix_text(EX1_TEXT) == support.EX1

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n2 2\n1 2\n# interior comment\n3 4\n"
        assert parse_matrix_text(text) == support.EX1.from_rows([[1, 2], [3, 4]])

    def test_write_canonical(self):
        assert write_matrix(support.EX1_PINV) == EX1_PINV_TEXT

    def test_round_trip_is_byte_identical(self):
        for text in (EX1_TEXT, EX1_PINV_TEXT, EX3_TEXT):
            assert write_matrix(parse_matrix_text(text)) == text

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("x 3\n1 2 3\n")
        assert err.value.line == 1

    def test_bad_token_location(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("2 2\n1 2\n3 1.5\n")
        assert (err.value.line, err.value.column) == (3, 3)

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError) as err:
            parse_matrix_text("2 2\n1 2 3\n4 5\n")
        assert err.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_matrix_text("3 2\n1 2\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_matrix_text("1 1\n5\n6\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_matrix_text("# nothing here\n")

    def test_pretty_alignment(self):
        out = pretty_matrix(support.EX1_PINV)
        lines = out.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular layout

    @pytest.mark.parametrize("text, expected", [
        ("# note\u0085 see above\n1 1\n5\n", [[5]]),
        ("2 2\n1 2\n3\x0c4\n", [[1, 2], [3, 4]]),
        ("1 2\r\n1\u2028 2\r", [[1, 2]]),
        ("1 2\n1\x0b2\n", [[1, 2]]),
        ("2 2\n1\x1c2\n3\x1e4\u2029\n", [[1, 2], [3, 4]]),
    ], ids=["NEL-in-comment", "FF-in-row", "LS-with-CRLF", "VT-in-row", "separators-in-rows"])
    def test_lines_break_at_lf_crlf_cr_only(self, text, expected):
        # str.splitlines() would also break at each of these characters
        assert parse_matrix_text(text) == support.EX1.from_rows(expected)

    @pytest.mark.parametrize("text, line", [
        ("1 1\n5\n6\n", 3), ("1 1\r\n5\r\n6", 3), ("1 1\r5\r\r6\r", 4),
        ("3 2\n1 2\n", 2), ("3 2\n1 2\n\n", 3), ("3 2\r1 2\r\r\n", 3),
        ("\n\n", 2), ("", 1),
    ])
    def test_line_numbers_count_lf_crlf_cr(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_matrix_text(text)
        assert err.value.line == line


class TestCommands:
    def test_pinv_golden(self, ex1_file, capsys):
        assert run(["pinv", ex1_file]) == 0
        assert capsys.readouterr().out == EX1_PINV_TEXT

    def test_pinv_pretty(self, ex1_file, capsys):
        assert run(["pinv", ex1_file, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "-23/36" in out and "\n" in out

    def test_factor_sections_and_validity(self, ex1_file, capsys):
        assert run(["factor", ex1_file]) == 0
        out = capsys.readouterr().out
        head, q_and_r = out.split("# Q\n")
        q_text, r_text = q_and_r.split("# r\n")
        p = parse_matrix_text(head.removeprefix("# P\n"))
        q = parse_matrix_text(q_text)
        assert int(r_text) == 2
        assert mat_mul(mat_mul(q, support.EX1), p) == partial_identity(3, 3, 2)

    def test_group_methods_agree(self, ex1_file, capsys):
        assert run(["group", "--method", "poly", ex1_file]) == 0
        poly_out = capsys.readouterr().out
        assert run(["group", "--method", "block", ex1_file]) == 0
        block_out = capsys.readouterr().out
        assert poly_out == block_out == EX1_PINV_TEXT

    def test_group_rejects_high_index(self, tmp_path, capsys):
        path = tmp_path / "nilp.rmat"
        path.write_text(NILPOTENT_TEXT)
        assert run(["group", str(path)]) == 1
        err = capsys.readouterr().err
        assert "IndexTooLarge" in err

    def test_scalar_commands(self, ex1_file, capsys):
        assert run(["index", ex1_file]) == 0
        assert capsys.readouterr().out == "1\n"
        assert run(["minpoly", ex1_file]) == 0
        assert capsys.readouterr().out == "x^3 - 15*x^2 - 18*x\n"
        assert run(["qpoly", ex1_file]) == 0
        assert capsys.readouterr().out == "1/18*x - 5/6\n"
        assert run(["ep", ex1_file]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_ep_false(self, tmp_path, capsys):
        path = tmp_path / "nilp.rmat"
        path.write_text(NILPOTENT_TEXT)
        assert run(["ep", str(path)]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_drazin_on_nilpotent(self, tmp_path, capsys):
        path = tmp_path / "nilp.rmat"
        path.write_text(NILPOTENT_TEXT)
        assert run(["drazin", str(path)]) == 0
        assert capsys.readouterr().out == "2 2\n0 0\n0 0\n"

    def test_pinv_then_verify(self, ex1_file, tmp_path, capsys):
        assert run(["pinv", ex1_file]) == 0
        cand = tmp_path / "cand.rmat"
        cand.write_text(capsys.readouterr().out)
        assert run(["verify", ex1_file, "--candidate", str(cand)]) == 0
        out = capsys.readouterr().out
        assert "eq1 AXA=A: yes" in out
        assert "eq4 (XA)^T=XA: yes" in out
        assert "MP" in out

    def test_verify_non_square_na(self, tmp_path, capsys):
        wide = tmp_path / "wide.rmat"
        wide.write_text("1 2\n1 2\n")
        cand = tmp_path / "cand.rmat"
        assert run(["pinv", str(wide)]) == 0
        cand.write_text(capsys.readouterr().out)
        assert run(["verify", str(wide), "--candidate", str(cand)]) == 0
        out = capsys.readouterr().out
        assert "eq5 AX=XA: n/a" in out

    def test_g_commands_with_blocks(self, ex1_file, tmp_path, capsys):
        x2 = tmp_path / "x2.rmat"
        x2.write_text("1 2\n1 -1/2\n")
        assert run(["g123", ex1_file, "--x2", str(x2)]) == 0
        cand = tmp_path / "cand.rmat"
        cand.write_text(capsys.readouterr().out)
        assert run(["verify", ex1_file, "--candidate", str(cand)]) == 0
        out = capsys.readouterr().out
        assert "{1,2,3}" in out

    def test_g2_not_idempotent(self, ex1_file, tmp_path, capsys):
        x0 = tmp_path / "x0.rmat"
        x0.write_text("2 2\n1 1\n1 1\n")
        assert run(["g2", ex1_file, "--x0", str(x0)]) == 1
        assert "NotIdempotent" in capsys.readouterr().err

    def test_g1_zero_flag_default(self, ex1_file, capsys):
        assert run(["g1", ex1_file]) == 0
        default_out = capsys.readouterr().out
        assert run(["g1", ex1_file, "--zero"]) == 0
        assert capsys.readouterr().out == default_out

    def test_zero_conflicts_with_blocks(self, ex1_file, tmp_path, capsys):
        x1 = tmp_path / "x1.rmat"
        x1.write_text("2 1\n1\n1\n")
        assert run(["g1", ex1_file, "--zero", "--x1", str(x1)]) == 2
        assert "--zero" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rmat"
        bad.write_text("2 2\n1 2\n3 x\n")
        assert run(["pinv", str(bad)]) == 2
        err = capsys.readouterr().err
        assert ":3:3:" in err

    def test_non_utf8_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rmat"
        bad.write_bytes(b"2 2\n1 2\n3 \xff\n")
        assert run(["pinv", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"geninv: parse error: {bad}:3:3: ")
        assert "0xff" in err and "Traceback" not in err

    @pytest.mark.parametrize("header", ["1 \u00b2", "\u0661 1"])
    def test_header_counts_are_ascii_digits(self, tmp_path, capsys, header):
        # str.isdigit() accepts both; int() rejects the superscript two
        path = tmp_path / "h.rmat"
        path.write_text(f"{header}\n1\n", encoding="utf-8")
        assert run(["pinv", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"geninv: parse error: {path}:1:1: header must be two counts: m n\n")

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert run(["pinv", str(tmp_path / "absent.rmat")]) == 2

    def test_dimension_error_is_1(self, tmp_path, capsys):
        a = tmp_path / "a.rmat"
        a.write_text("2 2\n1 0\n0 1\n")
        x1 = tmp_path / "x1.rmat"
        x1.write_text("1 1\n7\n")
        # a regular 2x2 has no x1 slot, so an explicit block must be rejected
        assert run(["g1", str(a), "--x1", str(x1)]) == 1
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_unknown_command_is_2(self, capsys):
        assert run(["frobnicate", "x"]) == 2

    def test_non_square_index_is_1(self, tmp_path, capsys):
        wide = tmp_path / "wide.rmat"
        wide.write_text("1 2\n1 2\n")
        assert run(["index", str(wide)]) == 1
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_non_utf8_position_counts_lf_crlf_cr_only(self, tmp_path, capsys):
        bad = tmp_path / "bad.rmat"
        bad.write_bytes("# \u2028\x0c".encode("utf-8") + b"\r\n2 2\r1 2\n3 \xff\n")
        assert run(["pinv", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"geninv: parse error: {bad}:4:3: ")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("size", [2, 60])
    def test_closed_output_is_1(self, tmp_path, unbuffered, size):
        # buffered, the write succeeds and the flush at exit fails; unbuffered
        # or past the buffer, the write itself fails
        path = tmp_path / "a.rmat"
        path.write_text(f"{size} {size}\n" + f"{' '.join(['1'] * size)}\n" * size)
        env = dict(os.environ, PYTHONPATH=str(Path(geninv.__file__).parents[1]),
                   PYTHONUNBUFFERED=unbuffered)
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "geninv", "pinv", str(path)], env=env,
                                  stdout=w, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr.startswith("geninv: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def run_fresh(argv):
    """(exit code, stdout, stderr) of ``python -m geninv`` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(Path(geninv.__file__).parents[1]), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "geninv", *argv], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """The argument parser is built once per process; later calls must not see
    anything an earlier call left behind."""

    def in_process(self, capsys, argv):
        code = run(argv)
        got = capsys.readouterr()
        return code, got.out, got.err

    def test_usage_error_then_valid_call(self, ex1_file, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.in_process(capsys, ["pinv"]) == run_fresh(["pinv"])
        assert self.in_process(capsys, ["pinv", ex1_file]) == run_fresh(["pinv", ex1_file])

    def test_help_unchanged(self, ex1_file, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        self.in_process(capsys, ["g13", ex1_file, "--x9"])
        for argv in (["--help"], ["g2", "--help"]):
            code, out, err = self.in_process(capsys, argv)
            assert (code, out, err) == run_fresh(argv)
            assert code == 0 and out.startswith("usage: geninv")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-text limit")
class TestIntTextLimit:
    """Python converts ints of at most sys.get_int_max_str_digits() digits to
    and from text; past that, input is a parse error and output a size error."""

    def test_input_entry_over_limit_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "big.rmat"
        path.write_text(f"1 2\n1 1/{'3' * (sys.get_int_max_str_digits() + 1)}\n")
        assert run(["pinv", str(path)]) == 2
        got = capsys.readouterr()
        assert got.out == "" and got.err.startswith(f"geninv: parse error: {path}:2:3: ")

    def test_input_entry_over_limit_names_the_limit(self, tmp_path, capsys):
        # the message states the limit; Python's advice to raise it is not passed on
        limit = sys.get_int_max_str_digits()
        assert parse_matrix_text(f"1 1\n{'9' * limit}\n")[0, 0] == int("9" * limit)
        path = tmp_path / "big.rmat"
        for entry in ("1" * (limit + 1), f"-1/{'3' * (limit + 1)}", "0" * (limit + 1)):
            path.write_text(f"1 2\n1 {entry}\n")
            assert run(["pinv", str(path)]) == 2
            got = capsys.readouterr()
            assert got.out == ""
            assert got.err == (f"geninv: parse error: {path}:2:3: "
                               f"entry has more than {limit} digits\n")

    def test_header_count_over_limit_names_the_limit(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        assert parse_matrix_text(f"{'0' * (limit - 1)}1 1\n5\n").shape == (1, 1)
        path = tmp_path / "big.rmat"
        path.write_text(f"1  {'1' * (limit + 1)}\n1\n")
        assert run(["pinv", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"geninv: parse error: {path}:1:4: count has more than {limit} digits\n")

    def test_output_entry_over_limit_is_size_error(self, tmp_path, capsys):
        # every entry fits, but a*a, which the results hold, does not
        a = "7" * (sys.get_int_max_str_digits() * 7 // 10)
        jordan = tmp_path / "jordan.rmat"
        jordan.write_text(f"2 2\n{a} 1\n0 {a}\n")
        mixed = tmp_path / "mixed.rmat"  # factor: P holds a, Q holds 1/(1 - a*a)
        mixed.write_text(f"2 2\n1 {a}\n{a} 1\n")
        limit = sys.get_int_max_str_digits()
        for argv in (["pinv", jordan], ["pinv", jordan, "--pretty"], ["qpoly", jordan],
                     ["minpoly", jordan], ["g12", jordan], ["factor", mixed]):
            assert run([str(arg) for arg in argv]) == 1
            got = capsys.readouterr()
            assert got.out == ""
            assert got.err == f"geninv: output too large: a number has more than {limit} digits\n"
