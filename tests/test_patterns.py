"""The test-file parser against its line-by-line reference."""

import random

import pytest
from conftest import random_circuit, with_zero_control
from hypothesis import example, given
from hypothesis import strategies as st
from reference_patterns import reference_parse_tests_for

import bridgetest
from bridgetest import (
    AndExorNetwork,
    expand_network,
    format_patterns,
    generate_sets,
    parse_test_file,
)
from bridgetest.cli import RunConfig, run_pipeline

# whitespace inside rows; several of these also end a line for str.splitlines
_SPACES = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000")
_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def file_texts(draw):
    """(text, n, p, constant_line): rows of mostly valid symbols, mostly of
    one width, with blank lines, comments, whitespace inside rows and mixed
    line endings.  Half the files end their lines with "\n" alone and
    separate symbols with ASCII whitespace that ends no line.  With a
    constant line (always x_n, as normalization adds it) the rows are full
    width or one x column short, and a full row's constant-line column holds
    mostly 1 or d."""
    plain = draw(st.booleans())
    spaces = (" ", "\t", "\x1f") if plain else _SPACES
    ends = ("\n",) if plain else ("\n",) * 4 + _ENDS
    n, p = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    aux = draw(st.sampled_from((None, n)))
    width = p + n - (aux is not None and draw(st.booleans()))
    text = ""
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("row", "row", "row", "blank", "comment")))
        if kind == "row":
            row_width = draw(st.sampled_from((width,) * 20 + (width - 1, width + 1, 0)))
            for k in range(row_width):
                constant = aux is not None and k == p + aux - 1
                symbols = st.sampled_from("1d" * 10 + "0" if constant else "01d" * 40 + "xD2_#")
                text += draw(symbols) + draw(st.sampled_from(("",) * 30 + spaces))
            text += draw(st.sampled_from(("", "", " # 01x", "#")))
        elif kind == "comment":
            text += draw(st.sampled_from(("# header", "#", "  # 0 1 d")))
        else:
            text += draw(st.sampled_from(("", " ", "\t") if plain else ("", " ", "\t", "\xa0")))
        text += draw(st.sampled_from(ends))
    return text, n, p, aux


def _outcome(parse, *args):
    try:
        return parse(*args)
    except bridgetest.TestFileError as err:
        return err.line, str(err)


@given(file_texts())
@example(("0x0\n000\n", 2, 1, None))  # a bad symbol on the first line
@example(("00\n000\n", 2, 1, None))  # a short first row
@example(("000\n# 0x\n\n0 0\t0\n0000\n", 2, 1, None))  # a long row after good ones
@example(("000\n00x0\n", 2, 1, None))  # a later line with a bad symbol and the wrong width
@example(("0 0\r\n0\x0b00\x1c0d\u20280 1 1\x85", 2, 1, None))  # line ends inside rows
@example(("\xa0 0d1 \u3000# c\n\n", 2, 1, None))
@example(("0\x1f0 1\t# c\x1d1 1\x1f1\r\n", 2, 1, None))  # separators str.split drops
# constant line x3: short rows get the 1, and a full row's 1, d or 0 there
@example(("# c\n0 d0\n\n1 11\n", 3, 1, 3))
@example(("0 d01\n1 11d\n", 3, 1, 3))
@example(("0 d01\n\n1 110\n", 3, 1, 3))
@example(("0 d0\n1 11d\n", 3, 1, 3))  # a short first row, then a full one
@example(("0 d01\n1 11\n", 3, 1, 3))  # a full first row, then a short one
# "\n" line ends alone: the text is split as it is
@example(("# header\n010\n011 # note\n", 2, 1, None))  # comments
@example(("010\n\n011\n", 2, 1, None))  # a blank line
@example(("010\n011\n0x1\n", 2, 1, None))  # a bad symbol on line 3
@example(("010\n011\n01", 2, 1, None))  # a short last row, no final newline
@example(("0 1d\n1 01\n", 2, 1, 2))  # constant-line rows, full width then short
@example(("0 1d\n1 00\n", 2, 1, 2))  # a 0 on the constant line
# other line ends still go through str.splitlines
@example(("010\r\n011\r\n0x1\r\n", 2, 1, None))
@example(("010\x1e011\n", 2, 1, None))
@example(("010\x85011\n", 2, 1, None))
def test_parser_matches_reference(case):
    # the bulk check and the line walk against one line at a time
    text, n, p, aux = case
    network = AndExorNetwork(n, p, (), (), aux)
    assert _outcome(parse_test_file, text, network) == _outcome(
        reference_parse_tests_for, text, n, p, aux)


def test_constant_line_before_the_last_input():
    # a hand-built network whose constant line is x2 of three: the 1 goes
    # into x2's own column, not at the end
    network = AndExorNetwork(3, 1, (frozenset({1}),), (1,), constant_line=2)
    assert parse_test_file("0 00\n1 1d\n", network) == ["0010", "111d"]
    assert parse_test_file("0 0d0\n1 111\n", network) == ["0010", "1111"]
    with pytest.raises(bridgetest.TestFileError) as err:
        parse_test_file("0 010\n\n1 101\n", network)
    assert str(err.value) == "line 3: 0 on the constant line x2, which is always 1"


@pytest.mark.parametrize("seed", range(8))
def test_union_round_trips_through_a_test_file(seed):
    # the rows atpg writes read back as they were, constant line included
    rng = random.Random(seed)
    network = expand_network(with_zero_control(random_circuit(rng, seed), rng))
    sets = generate_sets(network).sets
    union = run_pipeline(network, sets, RunConfig("atpg")).union
    assert parse_test_file(format_patterns(union), network) == union.rows
