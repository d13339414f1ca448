"""The paper's theorem on every circuit of small shapes.

T1-T5 detect every detectable single bridging fault with at most
3n + ceil(log2 p) + 2 rows.  A shape n/p/d stands for every circuit of d
gates over n inputs and p lines: each gate ANDs any subset of the inputs,
the empty one included, onto any line, so a shape holds (2^n * p)^d
circuits.  A gate with no controls is normalized onto a constant line, as
the command line does.  Each circuit runs the ``verify`` pipeline with all
five sets and the oracle cap at its width.  It must append no fallback
row, leave no fault undetected or unresolved, and keep the union within
the bound.

Run the sweep over ``SHAPES`` with

    PYTHONPATH=src python tests/theorem_sweep.py

It prints each shape's circuit count and time, stops at the first
violation, prints it with the circuit, and exits 1.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Iterator

from bridgetest import (AndExorNetwork, enumerate_faults, expand_network, format_circuit,
                        generate_sets, normalize_zero_controls, size_bound)
from bridgetest.cli import RunConfig, run_pipeline

# n/p/d: for each (n, p) with n <= 4 and p <= 3, the deepest d <= 5 with at
# most 2^16 circuits, then the two shapes tier-1 sweeps; 284,288 circuits
SHAPES = (
    (1, 1, 5), (1, 2, 5), (1, 3, 5),
    (2, 1, 5), (2, 2, 5), (2, 3, 4),
    (3, 1, 5), (3, 2, 4), (3, 3, 3),
    (4, 1, 4), (4, 2, 3), (4, 3, 2),
    (3, 2, 3), (2, 2, 4),
)


def circuits(n: int, p: int, d: int) -> Iterator[AndExorNetwork]:
    """Every circuit of the shape, its gates drawn in lexicographic order."""
    gates = [(frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1), target)
             for mask in range(1 << n) for target in range(1, p + 1)]
    for chosen in itertools.product(gates, repeat=d):
        supports, targets = zip(*chosen)
        network = AndExorNetwork(n, p, supports, targets, name=f"sweep{n}x{p}x{d}")
        if not all(supports):
            network = normalize_zero_controls(network)
        yield expand_network(network)


def violation(network: AndExorNetwork, run) -> str | None:
    """What the run breaks of the theorem, or None."""
    evaluation, union = run.evaluation, run.union
    if union.fallback_count:
        return f"{union.fallback_count} fallback rows"
    left = evaluation.count("undetected") + evaluation.count("unresolved")
    if left:
        return f"{left} faults undetected or unresolved"
    if union.pre_dedup_size > size_bound(network):
        return f"union of {union.pre_dedup_size} over the bound {size_bound(network)}"
    return None


def check(network: AndExorNetwork):
    """Run the pipeline on ``network``; returns the faults, the run and the
    violation, if any."""
    faults = enumerate_faults(network)
    cfg = RunConfig("verify", oracle_cap=network.n + network.p)
    run = run_pipeline(network, faults, generate_sets(network).sets, cfg)
    return faults, run, violation(network, run)


def sweep(shapes) -> tuple[int, str | None]:
    """Check every circuit of ``shapes`` up to the first violation; returns
    the circuits checked and that violation with its circuit, or None."""
    total = 0
    for shape in shapes:
        start, before = time.perf_counter(), total
        for network in circuits(*shape):
            total += 1
            problem = check(network)[2]
            if problem is not None:
                return total, f"{problem}:\n{format_circuit(network)}"
        print("{}/{}/{}: {} circuits in {:.1f} s".format(*shape, total - before,
                                                       time.perf_counter() - start), flush=True)
    return total, None


def main() -> int:
    total, problem = sweep(SHAPES)
    if problem is not None:
        print(f"violation in circuit {total}: {problem}")
        return 1
    print(f"{total} circuits, no violation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
