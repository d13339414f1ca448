"""Closed-form bridge differences against the injection walk.

``simulate._fault_difference`` reads a bridge's output difference off the
fault-free columns.  These tests hold it to the walk that injects the
bridge and evaluates the netlist again, as integers, and hold the oracle
built on it to the injection-based oracle in ``reference_sim``.
"""

import random
import tracemalloc

import pytest
from conftest import random_circuit, with_zero_control
from reference_sim import injected_difference, reference_oracle

from bridgetest import (
    DC_POLICIES,
    BridgingFault,
    FaultKind,
    Polarity,
    TestPattern,
    enumerate_faults,
    exhaustive_detectability,
    expand_network,
)
from bridgetest.network import AndExorNetwork
from bridgetest.simulate import _columns, _fault_difference, _Good, _pack, _TruthColumns


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


def _assert_closed_form(net, c_cols, x_cols, ones, lazy_cols=None):
    _, a, levels = _columns(net, c_cols, x_cols, ones, None)
    walked = _Good(net, c_cols + x_cols, ones, a, list(levels))
    lazy = _Good(net, c_cols + x_cols, ones) if lazy_cols is None else _Good(net, lazy_cols)
    for fault in _bridges(net):
        want = injected_difference(net, c_cols, x_cols, ones, fault)
        assert _fault_difference(walked, fault) == want, fault.describe()
        assert _fault_difference(lazy, fault) == want, fault.describe()


@pytest.mark.parametrize("seed", range(4))
def test_matches_injection_on_packed_patterns(seed):
    for rng, net in _networks(20, seed):
        count = rng.randint(0, 70)
        rows = ["".join(rng.choice("01d") for _ in range(net.p + net.n)) for _ in range(count)]
        patterns = [TestPattern(row[: net.p], row[net.p :]) for row in rows]
        for dc_policy in DC_POLICIES:
            _assert_closed_form(net, *_pack(net, patterns, dc_policy))


def test_matches_injection_on_truth_tables():
    for _, net in _networks(40, 99):
        width = net.n + net.p
        assert width <= 10
        cols = _TruthColumns(width)
        c_cols = [cols[k] for k in range(net.p)]
        x_cols = [cols[net.p + k] for k in range(net.n)]
        _assert_closed_form(net, c_cols, x_cols, (1 << (1 << width)) - 1, _TruthColumns(width))


def test_oracle_matches_injection_oracle():
    for _, net in _networks(40, 5):
        for fault in _bridges(net):
            assert exhaustive_detectability(net, fault) == reference_oracle(net, fault)


@pytest.mark.parametrize("constant_line", [None, 17])
def test_apair_oracle_memory(constant_line):
    # one truth-table column at width 20 holds 2^20 bits; an APair call holds
    # the input columns of both supports and a few more, never the netlist
    supports = (frozenset({1, 2, 3}), frozenset({3, 4, 5, 6}), frozenset({7, 8}))
    net = AndExorNetwork(17, 3, supports, (1, 2, 1), constant_line)
    fault = BridgingFault.a_pair(1, 2, Polarity.WIRED_OR)
    tracemalloc.start()
    try:
        result = exhaustive_detectability(net, fault, cap=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.detectable
    column = (1 << 20) // 8
    assert peak < (len(supports[0] | supports[1]) + 4) * column
