"""Matrix-file parsing under generated input: an RMatrix or a ParseError,
never any other exception."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geninv import ParseError, RMatrix
from geninv.cli import _load, parse_matrix_text, write_matrix

# ASCII digits, and digits that str.isdigit() or int() would also take
DIGITS = "0123456789"
ODD_DIGITS = "\u0661\u00b2\uff11\u0967"
BREAKS = ("\n", "\r", "\r\n")
SEPARATORS = (" ", "  ", "\t", "\x0c", "\u2003")
# bytes that are not UTF-8: a stray continuation, a cut-off sequence, an
# encoded surrogate, and bytes UTF-8 never uses
BAD_UTF8 = (b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff")


def rationals():
    sign = st.sampled_from(("", "-", "+"))
    den = st.one_of(st.just(""), st.integers(0, 12).map("/{}".format))
    return st.tuples(sign, st.integers(0, 999).map(str), den).map("".join)


@st.composite
def noisy_tokens(draw):
    """Entries near the rational syntax: doubled signs, zero and empty
    denominators, digits outside ASCII, and now and then any text at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(min_size=1, max_size=3))
    sign = draw(st.sampled_from(("", "-", "+", "--", "+-")))
    num = draw(st.text(alphabet=DIGITS + ODD_DIGITS, max_size=3))
    den = draw(st.one_of(st.just(""), st.text(alphabet=DIGITS + ODD_DIGITS, max_size=2)
                         .map("/".__add__)))
    return sign + num + den


@st.composite
def matrix_texts(draw):
    """Matrix files of up to 4x4 near the format: a header of counts or of
    tokens, rows one entry short or long, rows missing or extra, comments and
    blank lines, and LF, CR or CRLF breaks."""
    dims = st.sampled_from((0, 1, 1, 2, 2, 3, 3, 4, 4))
    m, n = draw(dims), draw(dims)
    tokens = draw(st.sampled_from((rationals(), noisy_tokens())))
    if draw(st.integers(0, 3)):
        header = f"{m} {n}"
    else:
        header = " ".join(draw(st.lists(tokens, max_size=3)))
    lines = [header]
    for _ in range(max(0, m + draw(st.sampled_from((0, 0, 0, -1, 1))))):
        width = max(0, n + draw(st.sampled_from((0, 0, 0, -1, 1))))
        sep = draw(st.sampled_from(SEPARATORS))
        lines.append(sep.join(draw(st.lists(tokens, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(("", "   ", "# a comment", "  # indented", "#")))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    breaks = [draw(st.sampled_from(BREAKS)) for _ in lines]
    if not draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks))


@st.composite
def matrix_bytes(draw):
    """Generated matrix files as UTF-8 bytes, half of them with a non-UTF-8
    sequence inserted."""
    data = draw(matrix_texts()).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_UTF8)) + data[at:]
    return data


@given(st.one_of(matrix_texts(), st.text(max_size=40)))
def test_parse_gives_a_matrix_or_a_parse_error(text):
    try:
        a = parse_matrix_text(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
        return
    assert isinstance(a, RMatrix) and 1 <= a.rows and 1 <= a.cols
    assert parse_matrix_text(write_matrix(a)) == a


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "a.rmat"


@given(data=st.one_of(matrix_bytes(), st.binary(max_size=40)))
def test_load_gives_a_matrix_or_a_parse_error(matrix_path, data):
    matrix_path.write_bytes(data)
    try:
        a = _load(str(matrix_path))
    except ParseError as exc:
        assert exc.filename == str(matrix_path) and exc.line >= 1 and exc.column >= 1
        return
    assert isinstance(a, RMatrix)
