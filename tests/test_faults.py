"""Bridging-fault model: wired values, fault universe, canonical order."""

import pytest

from bridgetest import (
    BridgingFault,
    FaultKind,
    Polarity,
    bridge_values,
    enumerate_faults,
    expand_network,
    normalize_zero_controls,
    parse_circuit,
)

AND = Polarity.WIRED_AND
OR = Polarity.WIRED_OR


# every (v1, v2, polarity) row of the wired-bridge truth table  [PAPER]
@pytest.mark.parametrize(
    "v1,v2,pol,expect",
    [
        (0, 0, AND, (0, 0)),
        (0, 1, AND, (0, 0)),
        (1, 0, AND, (0, 0)),
        (1, 1, AND, (1, 1)),
        (0, 0, OR, (0, 0)),
        (0, 1, OR, (1, 1)),
        (1, 0, OR, (1, 1)),
        (1, 1, OR, (1, 1)),
    ],
)
def test_bridge_values_table(v1, v2, pol, expect):
    assert bridge_values(v1, v2, pol) == expect


def test_single_flip_lemma():
    # a bridge changes at most one of the two nets, and only when they differ
    for pol in (AND, OR):
        for v1 in (0, 1):
            for v2 in (0, 1):
                b1, b2 = bridge_values(v1, v2, pol)
                flips = (b1 != v1) + (b2 != v2)
                if v1 == v2:
                    assert flips == 0
                else:
                    assert flips == 1


class TestFaultConstruction:
    def test_pair_ids_sorted(self):
        # the constructor takes a pair's ids in order and refuses them reversed
        assert BridgingFault(FaultKind.X_PAIR, (2, 5), AND).ids == (2, 5)
        assert BridgingFault(FaultKind.INTRA_LEVEL, (3, 1, 2), OR).ids == (3, 1, 2)
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.X_PAIR, (5, 2), AND)
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.INTRA_LEVEL, (3, 2, 1), OR)

    def test_exor_internal_shape(self):
        f = BridgingFault(FaultKind.EXOR_INTERNAL, (4,))
        assert f.ids == (4,) and f.polarity is None
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.EXOR_INTERNAL, (4,), AND)
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.EXOR_INTERNAL, (1, 2))

    def test_pair_shape_rejections(self):
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.X_PAIR, (3, 3), AND)
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.A_PAIR, (1, 2))
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.INTRA_LEVEL, (-1, 1, 2), AND)
        with pytest.raises(ValueError):
            BridgingFault(FaultKind.INTRA_LEVEL, (0, 2, 2), AND)

    def test_lines_and_describe(self):
        assert BridgingFault(FaultKind.EXOR_INTERNAL, (5,)).lines() == ("g5", "")
        assert BridgingFault(FaultKind.X_PAIR, (1, 2), AND).lines() == ("x1", "x2")
        assert BridgingFault(FaultKind.A_PAIR, (1, 2), OR).lines() == ("a1", "a2")
        assert BridgingFault(FaultKind.INTRA_LEVEL, (0, 1, 2), AND).lines() == ("w1@0", "w2@0")
        assert BridgingFault(FaultKind.EXOR_INTERNAL, (5,)).describe() == "ExorInternal g5"
        assert (
            BridgingFault(FaultKind.INTRA_LEVEL, (7, 1, 3), OR).describe()
            == "IntraLevel (w1@7,w3@7) WiredOr"
        )


class TestEnumeration:
    def test_benchmark_counts(self, bench):
        faults = enumerate_faults(expand_network(bench))
        assert faults.counts == {
            "ExorInternal": 19,
            "XPair": 42,
            "IntraLevel": 120,
            "APair": 342,
        }
        assert len(faults) == 523
        assert faults.out_of_model is None

    def test_canonical_order(self, bench):
        faults = enumerate_faults(expand_network(bench))
        kinds = [f.kind for f in faults]
        # class blocks appear in a fixed order
        boundaries = [kinds.index(k) for k in
                      (FaultKind.EXOR_INTERNAL, FaultKind.X_PAIR,
                       FaultKind.INTRA_LEVEL, FaultKind.A_PAIR)]
        assert boundaries == sorted(boundaries)
        # within XPair: lexicographic ids, WiredAnd before WiredOr
        xs = [f for f in faults if f.kind is FaultKind.X_PAIR]
        assert xs[0] == BridgingFault(FaultKind.X_PAIR, (1, 2), AND)
        assert xs[1] == BridgingFault(FaultKind.X_PAIR, (1, 2), OR)
        assert xs[-1] == BridgingFault(FaultKind.X_PAIR, (6, 7), OR)
        keys = [(f.ids, f.polarity is OR) for f in xs]
        assert keys == sorted(keys)
        # IntraLevel sweeps level 0 first (the initial c column)
        ws = [f for f in faults if f.kind is FaultKind.INTRA_LEVEL]
        assert ws[0] == BridgingFault(FaultKind.INTRA_LEVEL, (0, 1, 2), AND)
        assert ws[-1] == BridgingFault(FaultKind.INTRA_LEVEL, (19, 2, 3), OR)

    def test_enumeration_deterministic(self, bench):
        net = expand_network(bench)
        assert list(enumerate_faults(net)) == list(enumerate_faults(net))

    def test_out_of_model_tally(self, bench):
        faults = enumerate_faults(expand_network(bench), record_out_of_model=True)
        # 7 x-lines, 19 a-nets, 3*20 cascade wires, two polarities each
        assert faults.out_of_model == {"x-a": 266, "x-w": 840, "a-w": 2280}

    def test_aux_excluded_by_default(self):
        text = ".n 2\n.p 1\n.gate c1 :\n.gate c1 : x1 x2\n.end\n"
        circuit = normalize_zero_controls(
            parse_circuit(text, allow_zero_controls=True)
        )
        net = expand_network(circuit)
        assert net.constant_line == 3

        faults = enumerate_faults(net)
        assert faults.counts["XPair"] == 2  # only (x1, x2)
        assert all(3 not in f.ids for f in faults if f.kind is FaultKind.X_PAIR)

        with_aux = enumerate_faults(net, include_aux=True)
        assert with_aux.counts["XPair"] == 6
