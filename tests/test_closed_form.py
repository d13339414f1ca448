"""Closed-form bridge differences against the injection walk.

``simulate._fault_difference`` reads a bridge's output difference off the
fault-free columns, an input bridge's from the outputs' sensitivity to the
one input it flips.  These tests hold it to the walk that injects the
bridge and evaluates the netlist again, as integers.  They hold the oracle,
which reads the monomials of the output changes off the gate supports, to
the injection-based oracle and to the closed form on truth-table columns
in ``reference_sim``, and bound its memory independently of the width.
"""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from conftest import random_circuit, random_rows, with_zero_control
from hypothesis import given
from hypothesis import strategies as st
from reference_sim import (
    TruthColumns,
    injected_difference,
    reference_oracle,
    truth_table_detectability,
)

from bridgetest import (
    DC_POLICIES,
    AndExorNetwork,
    BridgingFault,
    FaultKind,
    Polarity,
    detects,
    enumerate_faults,
    evaluate_test_set,
    exhaustive_detectability,
    expand_network,
    normalize_zero_controls,
    parse_circuit,
)
from bridgetest.simulate import _fault_difference, _gate_tables, _Good, _pack


def _networks(count, seed):
    # widths stay at most 10 with the constant line the 0-control gate adds
    rng = random.Random(seed)
    for idx in range(count):
        circuit = random_circuit(rng, idx, max_n=7, max_p=4, max_d=9, width_cap=9)
        if idx % 2:
            circuit = with_zero_control(circuit, rng)
        yield rng, expand_network(circuit)


def _bridges(net):
    faults = enumerate_faults(net, include_aux=True)
    return [f for f in faults if f.kind is not FaultKind.EXOR_INTERNAL]


def _packed(net, rows, dc_policy):
    # the c columns, x columns and row mask of the packed _Good
    good = _pack(net, rows, dc_policy)
    return good.cols[: net.p], good.cols[net.p :], good.ones


def _assert_closed_form(net, c_cols, x_cols, ones, lazy_cols=None):
    lazy = _Good(net, c_cols + x_cols if lazy_cols is None else lazy_cols, ones)
    for fault in _bridges(net):
        want = injected_difference(net, c_cols, x_cols, ones, fault)
        bridge = (fault.kind, fault.ids, fault.polarity)
        assert _fault_difference(lazy, *bridge) == want, fault.describe()


@pytest.mark.parametrize("seed", range(4))
def test_matches_injection_on_packed_patterns(seed):
    for rng, net in _networks(20, seed):
        count = rng.randint(0, 70)
        rows = random_rows(rng, net, count)
        for dc_policy in DC_POLICIES:
            _assert_closed_form(net, *_packed(net, rows, dc_policy))


def test_matches_injection_on_truth_tables():
    for _, net in _networks(40, 99):
        width = net.n + net.p
        assert width <= 10
        cols = TruthColumns(width)
        c_cols = [cols[k] for k in range(net.p)]
        x_cols = [cols[net.p + k] for k in range(net.n)]
        _assert_closed_form(net, c_cols, x_cols, (1 << (1 << width)) - 1, TruthColumns(width))


def test_oracle_matches_injection_oracle():
    for _, net in _networks(40, 5):
        for fault in _bridges(net):
            assert exhaustive_detectability(net, fault) == reference_oracle(net, fault)


@given(seed=st.integers(0, 2**32 - 1), zero_control=st.booleans())
def test_oracle_matches_injection_oracle_on_random_circuits(seed, zero_control):
    # verdict and witness of every in-model pair fault, aux faults included
    rng = random.Random(seed)
    circuit = random_circuit(rng, seed, max_n=7, max_p=4, max_d=10, width_cap=10)
    if zero_control:
        circuit = with_zero_control(circuit, rng)
    net = expand_network(circuit)
    assert (net.constant_line is not None) == zero_control
    for fault in _bridges(net):
        assert exhaustive_detectability(net, fault) == reference_oracle(net, fault), fault.describe()


# Hand-built XPair cases for the sensitivity read: x1 and x2 in one gate;
# two equal gates on one target whose sensitivities cancel, so (x1, x2) is
# redundant in both polarities; a 0-control gate moved onto the constant line.
BOTH_IN_ONE_GATE = ".n 3\n.p 2\n.gate c1 : x1 x2 x3\n.gate c2 : x2\n.gate c1 : x1\n.end\n"
CANCELLING = ".n 3\n.p 2\n.gate c1 : x1 x2\n.gate c2 : x3\n.gate c1 : x1 x2\n.end\n"
ZERO_CONTROL = ".n 2\n.p 2\n.gate c1 : x1\n.gate c2 :\n.gate c2 : x1 x2\n.end\n"


def _hand_built(text):
    circuit = parse_circuit(text, allow_zero_controls=True)
    return expand_network(normalize_zero_controls(circuit))


@pytest.mark.parametrize("text", [BOTH_IN_ONE_GATE, CANCELLING, ZERO_CONTROL])
def test_hand_built_xpairs_match_injection(text):
    net = _hand_built(text)
    width = net.n + net.p
    pinned = None if net.constant_line is None else net.p + net.constant_line - 1
    # every row the library accepts: the constant line is 1 or d
    rows = ["".join(row) for row in itertools.product(
        *("1d" if k == pinned else "01d" for k in range(width)))]
    for dc_policy in DC_POLICIES:
        _assert_closed_form(net, *_packed(net, rows, dc_policy))
    cols = TruthColumns(width)
    c_cols = [cols[k] for k in range(net.p)]
    x_cols = [cols[net.p + k] for k in range(net.n)]
    _assert_closed_form(net, c_cols, x_cols, (1 << (1 << width)) - 1, TruthColumns(width))
    for fault in _bridges(net):
        assert exhaustive_detectability(net, fault) == reference_oracle(net, fault)


def test_hand_built_verdicts():
    both = _hand_built(BOTH_IN_ONE_GATE)
    cancelling = _hand_built(CANCELLING)
    zero = _hand_built(ZERO_CONTROL)
    assert zero.constant_line == 3
    for polarity in Polarity:
        pair = BridgingFault.x_pair(1, 2, polarity)
        assert exhaustive_detectability(both, pair).detectable
        assert not exhaustive_detectability(cancelling, pair).detectable
        assert exhaustive_detectability(cancelling, BridgingFault.x_pair(1, 3, polarity)).detectable
        # the constant line stays 1 in a witness: where x_i = 0, wired-AND
        # pulls x3 down, which c2 shows through gate 2, and wired-OR pulls
        # x_i up
        for i in (1, 2):
            result = exhaustive_detectability(zero, BridgingFault.x_pair(i, 3, polarity))
            assert result.detectable and result.witness[zero.p + 2] == "1"


def test_grading_computes_each_sensitivity_once(monkeypatch):
    # count the table products, not the reads: the AND outputs take one per
    # gate support, and computing each input's sensitivity columns once takes
    # at most one per (input, gate reading it) entry of the reader table.
    # _fault_difference then reads every pair fault off grading's own _Good
    # with no product beyond those, and agrees with its verdicts
    products, goods = [], []
    product, init = _Good.product, _Good.__init__

    def counting(good, columns):
        products.append(columns)
        return product(good, columns)

    monkeypatch.setattr(_Good, "product", counting)
    monkeypatch.setattr(_Good, "__init__",
                        lambda self, *args: goods.append(self) or init(self, *args))
    rng = random.Random(12)
    circuit = random_circuit(rng, 0, max_n=8, max_p=3, max_d=12, width_cap=11)
    net = expand_network(circuit)
    faults = enumerate_faults(net)
    xpairs = [f for f in faults if f.kind is FaultKind.X_PAIR]
    rows = ["".join(rng.choice("01") for _ in range(net.p + net.n)) for _ in range(40)]
    evaluation = evaluate_test_set(net, faults, rows)
    supports, readers, _ = _gate_tables(net)
    assert products[: net.d] == list(supports)
    entries = Counter(others for per_input in readers for _, others, _ in per_input)
    sensitivity_products = Counter(products[net.d :])
    assert not sensitivity_products - entries  # every product is a table entry, read once
    assert 0 < sensitivity_products.total() <= sum(len(sup) for sup in net.gate_supports) < len(xpairs)
    assert evaluation.count("detected") > 0

    (good,), graded = goods, len(products)
    for k, verdict in enumerate(evaluation.verdicts[net.d :], start=net.d):
        fault = verdict.fault
        diff = _fault_difference(good, fault.kind, fault.ids, fault.polarity)
        first = (diff & -diff).bit_length() - 1 if diff else None
        assert (verdict.status == "detected", verdict.pattern_index) == (bool(diff), first), k
    assert len(products) == graded


@pytest.mark.parametrize("seed", range(4))
def test_polynomial_oracle_matches_truth_tables(seed):
    for _, net in _networks(100, 1000 + seed):
        for fault in _bridges(net):
            got = exhaustive_detectability(net, fault)
            assert got == truth_table_detectability(net, fault), fault.describe()


def _shared_term_circuit(rng, n, p, zero_control):
    # gates drawn from 7 product terms, each input in two of them, as the
    # width-22 circuits of the benchmark's verify-shared workload: gates that
    # share a term make redundant APairs
    pairs = list(itertools.combinations(range(7), 2))
    while True:
        member = dict(zip(range(1, n + 1), rng.sample(pairs, n)))
        pool = [frozenset(v for v in member if k in member[v]) for k in range(7)]
        if all(pool) and len(set(pool)) == 7:
            break
    uses = [(term, target) for term, count in zip(pool, (2, 2, 1, 1, 1, 1, 1))
            for target in rng.sample(range(1, p + 1), count)]
    rng.shuffle(uses)
    if zero_control:
        uses.insert(rng.randrange(len(uses) + 1), (frozenset(), rng.randint(1, p)))
    supports, targets = zip(*uses)
    return normalize_zero_controls(AndExorNetwork(n, p, supports, targets, name="shared"))


@pytest.mark.parametrize("zero_control", [False, True])
def test_polynomial_oracle_matches_truth_tables_at_width_22(zero_control):
    rng = random.Random(22 + zero_control)
    net = expand_network(_shared_term_circuit(rng, 18 - zero_control, 4, zero_control))
    assert net.n + net.p == 22
    faults = _bridges(net)
    apairs = [f for f in faults if f.kind is FaultKind.A_PAIR]
    redundant = 0
    for fault in apairs + rng.sample(faults, 12):
        got = exhaustive_detectability(net, fault)
        assert got == truth_table_detectability(net, fault), fault.describe()
        redundant += not got.detectable
    assert redundant >= 2


def _oracle_peak(net, fault):
    tracemalloc.start()
    try:
        result = exhaustive_detectability(net, fault)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.detectable
    assert detects(net, fault, result.witness)
    return peak


# at width 64 a truth-table column would hold 2^64 bits; a polynomial
# holds a few monomials of the gates the fault reaches
WIDE_SUPPORTS = (frozenset(range(1, 21)), frozenset(range(15, 40)), frozenset({40, 50, 60}))


@pytest.mark.parametrize("constant_line", [None, 17])
def test_apair_oracle_memory(constant_line):
    net = AndExorNetwork(60, 4, WIDE_SUPPORTS, (1, 2, 1), constant_line)
    assert _oracle_peak(net, BridgingFault.a_pair(1, 2, Polarity.WIRED_OR)) < 64 * 1024


@pytest.mark.parametrize("constant_line", [None, 17])
def test_xpair_oracle_memory(constant_line):
    net = AndExorNetwork(60, 4, WIDE_SUPPORTS, (1, 2, 1), constant_line)
    assert _oracle_peak(net, BridgingFault.x_pair(18, 40, Polarity.WIRED_AND)) < 64 * 1024
