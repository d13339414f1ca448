"""AND-EXOR expansion structure."""

from bridgetest import expand_network, parse_circuit


def test_benchmark_dimensions(bench):
    net = expand_network(bench)
    assert (net.n, net.p, net.d) == (7, 3, 19)
    assert net.constant_line is None


def test_benchmark_supports_and_targets(bench):
    net = expand_network(bench)
    assert net.gate_supports[0] == frozenset({1})
    assert net.gate_supports[4] == frozenset({1, 2})
    assert net.gate_supports[11] == frozenset({1, 2, 3, 4, 5})
    assert net.gate_supports[18] == frozenset({3, 4, 5})
    assert net.gate_targets[:12] == (1,) * 12
    assert net.gate_targets[12:16] == (2,) * 4
    assert net.gate_targets[16:] == (3,) * 3


def test_real_inputs_without_aux(bench):
    net = expand_network(bench)
    assert net.real_inputs() == (1, 2, 3, 4, 5, 6, 7)


def test_real_inputs_with_aux():
    text = ".n 2\n.p 1\n.gate c1 :\n.gate c1 : x1 x2\n.end\n"
    circuit = parse_circuit(text, allow_zero_controls=True)
    from bridgetest import normalize_zero_controls

    net = expand_network(normalize_zero_controls(circuit))
    assert net.n == 3
    assert net.constant_line == 3
    assert net.real_inputs() == (1, 2)
    assert net.gate_supports[0] == frozenset({3})


def test_expansion_validates():
    import pytest

    from bridgetest.circuit import CircuitError

    bad = parse_circuit(".n 2\n.p 1\n.gate c1 :\n.end\n", allow_zero_controls=True)
    with pytest.raises(CircuitError):
        expand_network(bad)
