import random
from pathlib import Path

import pytest
from hypothesis import settings

from bridgetest import AndExorNetwork, fallback_search, normalize_zero_controls, parse_circuit
from bridgetest.faults import enumerate_faults
from bridgetest.simulate import DETECTED, REDUNDANT, UNDETECTED, UNRESOLVED, Evaluation

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
                   max_p: int = 4, max_d: int = 10, width_cap: int = 12) -> AndExorNetwork:
    """Well-formed random circuit inside the exhaustive-oracle envelope."""
    while True:
        n = rng.randint(1, max_n)
        p = rng.randint(1, max_p)
        if n + p <= width_cap:
            break
    d = rng.randint(1, max_d)
    supports, targets = [], []
    for _ in range(d):
        k = rng.randint(1, min(n, 4))
        supports.append(frozenset(rng.sample(range(1, n + 1), k)))
        targets.append(rng.randint(1, p))
    return AndExorNetwork(n, p, tuple(supports), tuple(targets), name=f"rand{index}")


def with_zero_control(circuit: AndExorNetwork, rng: random.Random) -> AndExorNetwork:
    """``circuit`` with one 0-control gate inserted, then normalized onto a
    constant-one line."""
    at = rng.randint(0, circuit.d)
    supports = (*circuit.gate_supports[:at], frozenset(), *circuit.gate_supports[at:])
    targets = (*circuit.gate_targets[:at], rng.randint(1, circuit.p), *circuit.gate_targets[at:])
    return normalize_zero_controls(circuit._replace(gate_supports=supports, gate_targets=targets))


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


def run_fallback(ev: Evaluation, *args, **kwargs):
    """``fallback_search(ev, ...)``, and the indices it marked redundant and
    unresolved in ``ev.status``, each ascending.  Fallback may only move an
    undetected entry to one of those two verdicts, and its ``unresolved``
    must list the entries it marked unresolved."""
    before = bytes(ev.status)
    fb = fallback_search(ev, *args, **kwargs)
    changed = [k for k, (old, new) in enumerate(zip(before, ev.status)) if old != new]
    assert all(before[k] == UNDETECTED for k in changed)
    redundant = [k for k in changed if ev.status[k] == REDUNDANT]
    unresolved = [k for k in changed if ev.status[k] == UNRESOLVED]
    assert len(redundant) + len(unresolved) == len(changed)
    assert fb.unresolved == unresolved
    return fb, redundant, unresolved
