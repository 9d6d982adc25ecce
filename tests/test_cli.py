"""Command line: file format, subcommands, exit codes, diagnostics."""

import pytest

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
