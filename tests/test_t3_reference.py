"""The T2 and T3 generators against their references, and parity rows and
the benchmark's term counts against their ``count_terms`` definition.

``reference_t3.gen_input_or_tests`` rebuilds restricted PPRMs and the whole
parity matrix for every restriction set and walks every set; the generator
in ``bridgetest.atpg`` XORs bitmask rows from the gate supports, reading no
PPRM, and prunes the walk.
``reference_t2.gen_input_and_tests`` splits blocks recursively into a tree
and checks each cross pair on its own.  Each generator must emit the same
patterns as its reference, in the same order, and leave the same pairs for
fallback.  The references take a don't-care policy; the generators take
none and must match them under each.
"""

import random

import pytest
from conftest import DATA, random_circuit, with_zero_control
from hypothesis import example, given
from hypothesis import strategies as st
from reference_t2 import gen_input_and_tests as reference_t2
from reference_t3 import build_parity_matrix, count_terms, restrict
from reference_t3 import gen_input_or_tests as reference_t3

from bridgetest import AndExorNetwork, expand_network, normalize_zero_controls, parse_circuit
from bridgetest.atpg import _mask, _parity_rows, gen_input_and_tests, gen_input_or_tests
from bridgetest.benchmark import derived_term_counts
from bridgetest.pprm import derive_pprm

DC_POLICIES = ("fill-zero", "fill-one")

CANCEL4 = normalize_zero_controls(
    parse_circuit((DATA / "cancel4.rev").read_text(), allow_zero_controls=True, name="cancel4")
)
# x1 and x2 are read only by a gate that appears twice on c1, so no
# restriction ever gives them a row and their block stays open
TWICE = parse_circuit(
    ".n 5\n.p 2\n.gate c1 : x1 x2\n.gate c2 : x3 x4\n.gate c1 : x1 x2\n"
    ".gate c2 : x4 x5\n.gate c2 : x5\n.end\n",
    name="twice",
)
# f1 cancels to 0, so T2 rejects the single-control candidates first
DUP = parse_circuit(
    ".n 3\n.p 2\n.gate c1 : x1\n.gate c1 : x1\n.gate c2 : x1 x2\n.end\n", name="dup"
)
AND2 = parse_circuit((DATA / "and2.rev").read_text(), name="and2")


def term_pool_circuit(rng: random.Random, index: int = 0) -> AndExorNetwork:
    """Gates drawn from a few shared product terms, some inputs idle and
    sometimes a 0-control gate.  Shared terms make parity rows cancel: a term
    that feeds one output twice cancels under every restriction, and
    distinct terms can cancel with no input held at 0 and not under some
    restriction."""
    n = rng.randint(2, 8)
    p = rng.randint(1, 3)
    idle = set(rng.sample(range(1, n + 1), rng.randint(0, min(2, n - 1))))
    used = [v for v in range(1, n + 1) if v not in idle]
    pool = [
        frozenset(rng.sample(used, rng.randint(1, min(3, len(used)))))
        for _ in range(rng.randint(1, 5))
    ]
    gates = [(rng.choice(pool), rng.randint(1, p)) for _ in range(rng.randint(1, 10))]
    supports, targets = zip(*gates)
    circuit = AndExorNetwork(n, p, supports, targets, name=f"pool{index}")
    return with_zero_control(circuit, rng) if rng.random() < 0.3 else circuit


@st.composite
def circuits(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return term_pool_circuit(random.Random(seed), seed)
    rng = random.Random(seed)
    circuit = random_circuit(rng, seed)
    return with_zero_control(circuit, rng) if draw(st.booleans()) else circuit


@given(circuit=circuits())
@example(circuit=CANCEL4)
@example(circuit=TWICE)
def test_t3_matches_reference(circuit):
    pprms, net = derive_pprm(circuit), expand_network(circuit)
    got_set, got_uncovered = gen_input_or_tests(net)
    for dc_policy in DC_POLICIES:
        ref_set, ref_uncovered = reference_t3(pprms, net, dc_policy=dc_policy)
        assert got_set.rows == ref_set.rows
        assert got_uncovered == ref_uncovered


@given(circuit=circuits())
@example(circuit=DUP)
@example(circuit=AND2)
def test_t2_matches_reference(circuit):
    pprms, net = derive_pprm(circuit), expand_network(circuit)
    got_set, got_uncovered = gen_input_and_tests(net)
    for dc_policy in DC_POLICIES:
        ref_set, ref_tree = reference_t2(pprms, net, dc_policy=dc_policy)
        assert got_set.rows == ref_set.rows
        assert got_uncovered == tuple(ref_tree.uncovered_pairs())


def test_cancel4_needs_a_restriction():
    net = expand_network(CANCEL4)
    rows = _parity_rows(net, 0)
    assert rows.get(1, 0) == rows.get(3, 0) == 0
    assert _parity_rows(net, _mask({4}))[1] != 0
    t3, uncovered = gen_input_or_tests(net)
    assert t3.rows == ["dd11101", "dd01001"]
    assert uncovered == ((1, 3),)


def or_chain(n: int) -> AndExorNetwork:
    """c1 = x1 XOR x2 XOR x1x2, whose wired-OR pair (1, 2) is redundant,
    and a chain of 2-input gates over x3..xn on c2."""
    lines = [f".n {n}", ".p 2", ".gate c1 : x1", ".gate c1 : x2", ".gate c1 : x1 x2"]
    lines += [f".gate c2 : x{v} x{v + 1}" for v in range(3, n)]
    return parse_circuit("\n".join(lines + [".end", ""]), name=f"orchain{n}")


@pytest.mark.parametrize("n", [10, 16])
def test_case_c_ends_at_redundant_blocks(monkeypatch, n):
    # x1 and x2 are read by terms, so term occurrence alone would keep the
    # block {1, 2} open through all 2^(n-1) restriction sets
    circuit = or_chain(n)
    pprms, net = derive_pprm(circuit), expand_network(circuit)
    calls = []

    def counted(network, zeros):
        calls.append(zeros)
        return _parity_rows(network, zeros)

    monkeypatch.setattr("bridgetest.atpg._parity_rows", counted)
    t3, uncovered = gen_input_or_tests(net)
    assert len(calls) == 1
    assert uncovered == ((1, 2),)
    assert len(t3) == n - 2
    if n == 10:
        ref_set, ref_uncovered = reference_t3(pprms, net)
        assert list(t3) == list(ref_set)
        assert uncovered == ref_uncovered


@given(circuit=circuits(), data=st.data())
def test_parity_rows_match_count_terms(circuit, data):
    pprms = derive_pprm(circuit)
    inputs = list(range(1, circuit.n + 1))
    zeroed = frozenset(data.draw(st.lists(st.sampled_from(inputs), unique=True)))
    active = [v for v in inputs if v not in zeroed]
    expected = build_parity_matrix([restrict(f, zeroed) for f in pprms], active)
    rows = _parity_rows(expand_network(circuit), _mask(zeroed))
    assert tuple(
        tuple(rows.get(i, 0) >> j & 1 for j in expected.order) for i in expected.order
    ) == expected.rows


@given(circuit=circuits(), data=st.data())
def test_derived_term_counts_match_count_terms(circuit, data):
    # gates counted off the supports, against terms counted in the PPRM multisets
    pprms = derive_pprm(circuit)
    inputs = list(range(1, circuit.n + 1))
    zeroed = frozenset(data.draw(st.lists(st.sampled_from(inputs), unique=True)))
    variables = sorted(data.draw(st.lists(st.sampled_from(inputs), unique=True)))
    restricted = [restrict(f, zeroed) for f in pprms]
    expected = {
        (i, j): tuple(count_terms(restricted, k, {i, j}) for k in range(1, circuit.p + 1))
        for i in variables for j in variables if i <= j
    }
    assert derived_term_counts(expand_network(circuit), variables, zeroed) == expected
