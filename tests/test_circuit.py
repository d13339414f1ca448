"""Parser, printer, and normalization for the gate-list circuit model."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bridgetest.circuit import (
    CircuitError,
    Gate,
    ParseError,
    ReversibleCircuit,
    format_circuit,
    normalize_zero_controls,
    parse_circuit,
)

from conftest import random_circuit
from reference_circuit import reference_parse_circuit


def test_parse_benchmark(bench):
    assert bench.n == 7
    assert bench.p == 3
    assert bench.d == 19
    assert bench.gates[0].controls == frozenset({1})
    assert bench.gates[0].target == 1
    assert bench.gates[11].controls == frozenset({1, 2, 3, 4, 5})
    assert bench.gates[18] == Gate(frozenset({3, 4, 5}), 3)
    assert [g.target for g in bench.gates] == [1] * 12 + [2] * 4 + [3] * 3
    assert bench.constant_line is None


def test_comments_and_blank_lines():
    text = "\n# header\n.n 2   # inline\n.p 1\n\n.gate c1 : x1 x2\n.end\n# trailing comment\n"
    c = parse_circuit(text)
    assert (c.n, c.p, c.d) == (2, 1, 1)


def test_format_round_trip(bench):
    assert parse_circuit(format_circuit(bench)) == ReversibleCircuit(
        bench.n, bench.p, bench.gates
    )


def test_format_round_trip_random():
    rng = random.Random(11)
    for i in range(25):
        c = random_circuit(rng, i)
        again = parse_circuit(format_circuit(c), name=c.name)
        assert again == c


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        (".n 2\n.p 1\n.end\nxx", "content after .end", 4, 1),
        (".n\n.p 1\n.end", ".n expects one integer", 1, 1),
        (".n 2 3\n.p 1\n.end", ".n expects one integer", 1, 1),
        (".n 0\n.p 1\n.end", ".n must be at least 1", 1, 4),
        (".n 2\n.n 3\n.p 1\n.end", "duplicate .n", 2, 1),
        (".p 1\n.n 2\n.end", ".n must come before .p", 1, 1),
        (".n 2\n.p 1\n.p 2\n.end", "duplicate .p", 3, 1),
        (".n 2\n.gate c1 : x1\n.p 1\n.end", ".gate before .n and .p", 2, 1),
        (".n 2\n.p 1\n.gate c1 : x1\n.n 3\n.end", "duplicate .n", 4, 1),
        (".n 2\n.p 1\n.gate c1 : x1\n.p 2\n.end", "duplicate .p", 4, 1),
        (".n 2\n.p 1\n.end extra", ".end takes no arguments", 3, 6),
        (".end", ".end before .n and .p", 1, 1),
        (".n 2\n.p 1\n.gate c1\n.end", ".gate expects 'c<j> : x<i> ...'", 3, 1),
        (".n 2\n.p 1\n.gate x1 : x2\n.end", "target must be a c line (got 'x1')", 3, 7),
        (".n 2\n.p 1\n.gate q1 : x1\n.end", "bad target token 'q1'", 3, 7),
        (".n 2\n.p 1\n.gate c2 : x1\n.end", "target c2 out of range 1..1", 3, 7),
        (".n 2\n.p 1\n.gate c1 : c1\n.end", "control on target line 'c1'", 3, 12),
        (".n 2\n.p 1\n.gate c1 : y1\n.end", "bad control token 'y1'", 3, 12),
        (".n 2\n.p 1\n.gate c1 : x3\n.end", "control x3 out of range 1..2", 3, 12),
        (".n 2\n.p 1\n.gate c1 : x1 x1\n.end", "duplicate control x1", 3, 15),
        (".n 2\n.p 1\n.gate c1 :\n.end",
         "gate has no controls (0-CNOT); normalization is disabled", 3, 1),
        (".n 2\n.p 1\n.wires 4\n.end", "unknown directive '.wires'", 3, 1),
        (".gate c1 : x1", ".gate before .n and .p", 1, 1),
        ("# nothing\n", "missing .n or .p", 2, 1),
        (".n 2\n.p 1\n.gate c1 : x1", "missing .end", 4, 1),
        # digits are ASCII only: int() reads '٣' as 3 and refuses '²'
        (".n ٣\n.p 1\n.end", ".n expects one integer", 1, 1),
        (".n ²\n.p 1\n.end", ".n expects one integer", 1, 1),
        (".n 2\n.p 1\n.gate c١ : x١\n.end", "bad target token 'c١'", 3, 7),
        (".n 2\n.p 1\n.gate c1 : x١\n.end", "bad control token 'x١'", 3, 12),
    ],
)
def test_parse_errors(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert err.value.line == line
    assert err.value.column == column
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_validate_rejects_bad_structures():
    with pytest.raises(CircuitError, match="at least one x input"):
        ReversibleCircuit(0, 1, ()).validate()
    with pytest.raises(CircuitError, match="at least one c line"):
        ReversibleCircuit(1, 0, ()).validate()
    with pytest.raises(CircuitError, match="control x9 out of range"):
        ReversibleCircuit(1, 1, (Gate(frozenset({9}), 1),)).validate()
    with pytest.raises(CircuitError, match="target c2 out of range"):
        ReversibleCircuit(1, 1, (Gate(frozenset({1}), 2),)).validate()
    with pytest.raises(CircuitError, match="constant line x5 out of range"):
        ReversibleCircuit(2, 1, (), constant_line=5).validate()


def test_normalize_rewrites_zero_controls():
    text = ".n 2\n.p 1\n.gate c1 :\n.gate c1 : x1 x2\n.end"
    raw = parse_circuit(text, allow_zero_controls=True)
    c = normalize_zero_controls(raw)
    assert c.n == 3
    assert c.constant_line == 3
    assert c.gates[0].controls == frozenset({3})
    assert c.gates[1].controls == frozenset({1, 2})


def test_normalize_is_identity_without_zero_controls(bench):
    assert normalize_zero_controls(bench) is bench


def test_normalize_shares_one_constant_line():
    text = ".n 1\n.p 2\n.gate c1 :\n.gate c2 :\n.end"
    c = normalize_zero_controls(parse_circuit(text, allow_zero_controls=True))
    assert c.n == 2
    assert c.gates[0].controls == c.gates[1].controls == frozenset({2})


def test_normalize_reuses_existing_constant_line():
    base = ReversibleCircuit(
        2, 1, (Gate(frozenset(), 1),), constant_line=2
    )
    c = normalize_zero_controls(base)
    assert c.n == 2
    assert c.constant_line == 2
    assert c.gates[0].controls == frozenset({2})


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
def test_round_trip_property(n, p, rnd):
    d = rnd.randint(0, 6)
    gates = tuple(
        Gate(frozenset(rnd.sample(range(1, n + 1), rnd.randint(1, n))), rnd.randint(1, p))
        for _ in range(d)
    )
    c = ReversibleCircuit(n, p, gates)
    assert parse_circuit(format_circuit(c)) == c


# Whitespace that str.split and regex \s both split on; several of these also
# end a line for str.splitlines, so a separator can split a line in two.
_SPACES = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000")
_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029")
_TOKENS = (".n", ".p", ".gate", ".end", ":", "c1", "c2", "c0", "c9", "x1", "x2", "x0", "x9",
           "0", "2", "-1", "²", "٣", "c١", "x١", "x1:", "foo", ".wires")


@st.composite
def circuit_texts(draw):
    """Circuit text: a valid netlist, then a few token and line mutations,
    printed with mixed whitespace, comments and line endings."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lines = [[".n", str(n)], [".p", str(p)]]
    for _ in range(draw(st.integers(0, 4))):
        controls = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        lines.append([".gate", f"c{draw(st.integers(1, p))}", ":"] + [f"x{v}" for v in controls])
    lines.append([".end"])
    for _ in range(draw(st.integers(0, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "copy line", "drop line")))
        if edit == "replace" and at < len(line):
            line[at] = draw(st.sampled_from(_TOKENS))
        elif edit == "insert":
            line.insert(at, draw(st.sampled_from(_TOKENS)))
        elif edit == "delete" and at < len(line):
            del line[at]
        elif edit == "copy line":
            lines.insert(draw(st.integers(0, len(lines))), list(line))
        elif edit == "drop line":
            lines.remove(line)
    text = ""
    for line in lines:
        text += draw(st.sampled_from(("", " ", "\t", "\xa0")))
        text += "".join(token + draw(st.sampled_from((" ",) * 8 + _SPACES)) for token in line)
        text += draw(st.sampled_from(("", "", "# note", "#x1 : c1")))
        text += draw(st.sampled_from(_ENDS))
    return text


def _parse_outcome(parse, text, allow_zero_controls):
    try:
        return parse(text, allow_zero_controls=allow_zero_controls)
    except CircuitError as err:  # ParseError too
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


@given(circuit_texts(), st.booleans())
@example(".n 2\xa0\n.p\x1c1\n.gate c1\u3000:\tx1 x2\x85.end\n", False)
@example(".n 2\n.p 1\n.gate  c1 :   x1 x2\u2028.end extra\n", False)
@example(".n 2\n.p 1\n.gate c1 :\x0b.end\n", False)
@example("\t.n 2\n.p 1\n.gate c1 : c2\n.end\n", True)
@example(".n ²\n.p 1\n.end\n", False)
def test_parser_matches_reference(text, allow_zero_controls):
    # str.split columns found on error only vs regex columns for every line
    got = _parse_outcome(parse_circuit, text, allow_zero_controls)
    assert got == _parse_outcome(reference_parse_circuit, text, allow_zero_controls)
