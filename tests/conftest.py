import random
from pathlib import Path

import pytest
from hypothesis import settings

from bridgetest.circuit import Gate, ReversibleCircuit, normalize_zero_controls, parse_circuit
from bridgetest.faults import enumerate_faults
from bridgetest.network import AndExorNetwork
from bridgetest.simulate import DETECTED, UNDETECTED, Evaluation

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("ci")

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def bench_path() -> Path:
    return DATA / "bench7x3.rev"


@pytest.fixture(scope="session")
def and2_path() -> Path:
    return DATA / "and2.rev"


@pytest.fixture(scope="session")
def bench(bench_path):
    return parse_circuit(bench_path.read_text(), name="bench7x3")


@pytest.fixture(scope="session")
def and2(and2_path):
    return parse_circuit(and2_path.read_text(), name="and2")


def random_circuit(rng: random.Random, index: int = 0, *, max_n: int = 8,
                   max_p: int = 4, max_d: int = 10, width_cap: int = 12) -> ReversibleCircuit:
    """Well-formed random circuit inside the exhaustive-oracle envelope."""
    while True:
        n = rng.randint(1, max_n)
        p = rng.randint(1, max_p)
        if n + p <= width_cap:
            break
    d = rng.randint(1, max_d)
    gates = []
    for _ in range(d):
        k = rng.randint(1, min(n, 4))
        controls = frozenset(rng.sample(range(1, n + 1), k))
        gates.append(Gate(controls, rng.randint(1, p)))
    return ReversibleCircuit(n, p, tuple(gates), name=f"rand{index}")


def with_zero_control(circuit: ReversibleCircuit, rng: random.Random) -> ReversibleCircuit:
    """``circuit`` with one 0-control gate inserted, then normalized onto a
    constant-one line."""
    gates = list(circuit.gates)
    gates.insert(rng.randint(0, len(gates)), Gate(frozenset(), rng.randint(1, circuit.p)))
    raw = ReversibleCircuit(circuit.n, circuit.p, tuple(gates), name=circuit.name)
    return normalize_zero_controls(raw)


def random_rows(rng: random.Random, network: AndExorNetwork, count: int) -> list[str]:
    """``count`` rows of random 0, 1 and d symbols.  A 0 drawn on the
    constant line reads as 1 there, since the library refuses it; a d stays."""
    rows = ["".join(rng.choice("01d") for _ in range(network.p + network.n))
            for _ in range(count)]
    if network.constant_line is None:
        return rows
    k = network.p + network.constant_line - 1
    return [row[:k] + row[k].replace("0", "1") + row[k + 1 :] for row in rows]


def evaluation_missing(network: AndExorNetwork, missed) -> Evaluation:
    """An evaluation over ``enumerate_faults(network)`` in which exactly the
    faults in ``missed`` are undetected; every other entry reads detected."""
    faults = enumerate_faults(network)
    ev = Evaluation(faults)
    ev.status[:] = bytes(UNDETECTED if f in missed else DETECTED for f in faults)
    return ev
