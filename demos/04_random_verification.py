"""
Cross-checking generated sets against the exhaustive oracle
===========================================================

Generates random circuits small enough for the truth-table oracle,
builds the test sets for each, and confirms that every bridging fault
the oracle calls detectable really is caught.  This is a compact
version of what the acceptance suite runs over 100 circuits.
"""

import random

from bridgetest import (
    AndExorNetwork,
    FaultKind,
    enumerate_faults,
    exhaustive_detectability,
    expand_network,
    generate_sets,
)
from bridgetest.cli import RunConfig, run_pipeline

rng = random.Random(2718)


def random_circuit(index: int) -> AndExorNetwork:
    # gate i ANDs the inputs in supports[i-1] onto c line targets[i-1]
    n, p = rng.randint(2, 6), rng.randint(1, 3)
    supports, targets = [], []
    for _ in range(rng.randint(2, 8)):
        supports.append(frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))))
        targets.append(rng.randint(1, p))
    return AndExorNetwork(n, p, tuple(supports), tuple(targets), name=f"rand{index}")


checked = missed = redundant = 0
for index in range(20):
    # expand_network checks a hand-built network and returns it
    net = expand_network(random_circuit(index))
    faults = enumerate_faults(net)

    # generate, grade, repair: the pipeline `bridgetest verify` runs
    sets = generate_sets(net).sets
    run = run_pipeline(net, faults, sets, RunConfig("verify"))

    status = {v.fault: v.status for v in run.evaluation.verdicts}
    for fault in faults:
        if fault.kind is FaultKind.EXOR_INTERNAL:
            continue
        checked += 1
        if exhaustive_detectability(net, fault).detectable:
            if status[fault] != "detected":
                missed += 1
                print(f"MISS on {net.name}: {fault.describe()}")
        else:
            redundant += 1

print(f"{checked} faults across 20 circuits: {missed} misses,"
      f" {redundant} provably redundant")
assert missed == 0
