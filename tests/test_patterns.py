"""The test-file parser against its line-by-line reference."""

from hypothesis import example, given
from hypothesis import strategies as st
from reference_patterns import reference_parse_test_file

import bridgetest
from bridgetest import parse_test_file

# whitespace inside rows; several of these also end a line for str.splitlines
_SPACES = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000")
_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def file_texts(draw):
    """(text, n, p): rows of mostly valid symbols, mostly p + n long, with
    blank lines, comments, whitespace inside rows and mixed line endings."""
    n, p = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    text = ""
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("row", "row", "row", "blank", "comment")))
        if kind == "row":
            width = draw(st.sampled_from((p + n,) * 20 + (p + n - 1, p + n + 1, 0)))
            symbols = st.sampled_from("01d" * 40 + "xD2_#")
            for symbol in draw(st.lists(symbols, min_size=width, max_size=width)):
                text += symbol + draw(st.sampled_from(("",) * 30 + _SPACES))
            text += draw(st.sampled_from(("", "", " # 01x", "#")))
        elif kind == "comment":
            text += draw(st.sampled_from(("# header", "#", "  # 0 1 d")))
        else:
            text += draw(st.sampled_from(("", " ", "\t", "\xa0")))
        text += draw(st.sampled_from(("\n",) * 4 + _ENDS))
    return text, n, p


def _outcome(parse, text, n, p):
    try:
        return parse(text, n, p)
    except bridgetest.TestFileError as err:
        return err.line, str(err)


@given(file_texts())
@example(("0x0\n000\n", 2, 1))  # a bad symbol on the first line
@example(("00\n000\n", 2, 1))  # a short first row
@example(("000\n# 0x\n\n0 0\t0\n0000\n", 2, 1))  # a long row after good ones
@example(("000\n00x0\n", 2, 1))  # a later line with a bad symbol and the wrong width
@example(("0 0\r\n0\x0b00\x1c0d\u20280 1 1\x85", 2, 1))  # line ends inside rows
@example(("\xa0 0d1 \u3000# c\n\n", 2, 1))
@example(("0\x1f0 1\t# c\x1d1 1\x1f1\r\n", 2, 1))  # separators str.split drops
def test_parser_matches_reference(case):
    # the bulk check and the line walk against one line at a time
    text, n, p = case
    assert _outcome(parse_test_file, text, n, p) == _outcome(reference_parse_test_file, text, n, p)
