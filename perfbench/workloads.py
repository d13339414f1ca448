"""Seeded workload generators.

Each workload turns a seed into a fixed list of operations.  An operation is
one `bridgetest` command line on one generated circuit (plus, for
`simulate`, one generated test file).  The program under test only ever
sees the generated files; the seed stays on this side.

Why each workload exists (which layer it loads, which it leaves idle) is
written next to its generator and in README.md.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

Gates = list[tuple[int, tuple[int, ...]]]  # (target line, controls)


@dataclass(frozen=True)
class Circuit:
    """A generated netlist as the benchmark knows it (before normalization)."""

    n: int
    p: int
    gates: tuple[tuple[int, tuple[int, ...]], ...]

    def text(self, title: str) -> str:
        lines = [f"# {title}", f".n {self.n}", f".p {self.p}"]
        for target, controls in self.gates:
            ctrl = " ".join(f"x{v}" for v in sorted(controls))
            lines.append(f".gate c{target} : {ctrl}".rstrip())
        lines.append(".end")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``args`` name the files as ``{circuit}``,
    ``{tests}`` and ``{out}``; the runner substitutes real paths."""

    name: str
    command: str  # verify | atpg | simulate
    args: tuple[str, ...]
    circuit: Circuit
    tests: str | None = None  # test-file text for simulate


def _random_gate_list(rng: random.Random, n: int, p: int, d: int,
                      inputs: list[int], max_controls: int = 4) -> Gates:
    """Random gates over ``inputs``, each with 1..max_controls controls,
    and every listed input used by at least one gate."""
    gates = []
    for _ in range(d):
        k = rng.randint(1, min(max_controls, len(inputs)))
        gates.append((rng.randint(1, p), tuple(rng.sample(inputs, k))))
    used = {v for _, ctrl in gates for v in ctrl}
    for v in inputs:
        if v in used:
            continue
        room = [g for g, (_, ctrl) in enumerate(gates) if len(ctrl) < max_controls]
        g = rng.choice(room)
        target, ctrl = gates[g]
        gates[g] = (target, ctrl + (v,))
    return gates


VERIFY_ARGS = ("verify", "{circuit}", "--format", "json", "--no-timestamp",
               "--jobs", "1", "--out", "{out}")


# ---------------------------------------------------------------------------
# verify-deep: the grading kernel.  Random circuits with every input used and
# 1-4 controls per gate; almost every fault is detected by the constructed
# sets, so the op is grading (twice per verify) with little oracle work.

DEEP_SHAPE = (6, 3, 16)
DEEP_OPS = 12


def _deep_ops(rng: random.Random) -> list[Op]:
    n, p, d = DEEP_SHAPE
    ops = []
    for k in range(DEEP_OPS):
        circ = Circuit(n, p, tuple(_random_gate_list(rng, n, p, d, list(range(1, n + 1)))))
        ops.append(Op(f"deep{k:02d}", "verify", VERIFY_ARGS, circ))
    return ops


# ---------------------------------------------------------------------------
# verify-shared: the exhaustive oracle and fallback repair.  Gates draw their
# control sets from a small pool of product terms, as multi-output ESOP
# netlists do, so AND outputs coincide and those APair bridges are redundant;
# each redundancy is proven by the width-(n+p) oracle.  Every input sits in two
# terms with different partners, and a term never feeds the same output twice,
# so input bridges stay detectable and generation stays cheap.  Every third
# circuit carries a 0-control gate (normalized onto a constant line at the
# same width), and every SHARED_OVER_CAP-th circuit is two lines wider than
# the default oracle cap, so its misses go through seeded random search and
# end unresolved.

SHARED_SHAPE = (18, 4)  # n+p = 22, the default oracle cap
SHARED_OVER_CAP_SHAPE = (20, 4)  # n+p = 24
SHARED_USES = (2, 2, 1, 1, 1, 1, 1)  # gates per pool term; d = 9
SHARED_OPS = 10
SHARED_OVER_CAP = 5


def _term_pool(rng: random.Random, inputs: list[int], size: int) -> list[tuple[int, ...]]:
    """``size`` distinct product terms; every input is in exactly two of them
    and no two inputs are in the same two."""
    pairs = list(itertools.combinations(range(size), 2))
    while True:
        member = dict(zip(inputs, rng.sample(pairs, len(inputs))))
        terms = [tuple(v for v in inputs if k in member[v]) for k in range(size)]
        if all(terms) and len(set(terms)) == size:
            return terms


def _shared_circuit(rng: random.Random, n: int, p: int, zero_controls: int) -> Circuit:
    pool = _term_pool(rng, list(range(1, n + 1)), len(SHARED_USES))
    gates: Gates = []
    for term, uses in zip(pool, SHARED_USES):
        for target in rng.sample(range(1, p + 1), uses):
            gates.append((target, term))
    rng.shuffle(gates)
    for _ in range(zero_controls):
        gates.insert(rng.randrange(len(gates) + 1), (rng.randint(1, p), ()))
    return Circuit(n, p, tuple(gates))


def _shared_ops(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(SHARED_OPS):
        if k % SHARED_OVER_CAP == SHARED_OVER_CAP - 1:
            n, p = SHARED_OVER_CAP_SHAPE
            circ = _shared_circuit(rng, n, p, 0)
        else:
            n, p = SHARED_SHAPE
            # one x line fewer: the constant line restores width n+p
            zero = 1 if k % 3 == 1 else 0
            circ = _shared_circuit(rng, n - zero, p, zero)
        ops.append(Op(f"shared{k:02d}", "verify", VERIFY_ARGS, circ))
    return ops


# ---------------------------------------------------------------------------
# atpg-idle: T3 generation.  Two inputs drive no gate (pass-through lines), so
# their wired-OR bridge is redundant and T3's case (c) walks every
# restriction set of the other inputs before giving up on that block.

IDLE_SHAPE = (12, 3, 15)
IDLE_UNUSED = 2
IDLE_OPS = 8


def _idle_ops(rng: random.Random) -> list[Op]:
    n, p, d = IDLE_SHAPE
    ops = []
    for k in range(IDLE_OPS):
        idle = set(rng.sample(range(1, n + 1), IDLE_UNUSED))
        used = [v for v in range(1, n + 1) if v not in idle]
        circ = Circuit(n, p, tuple(_random_gate_list(rng, n, p, d, used)))
        args = ("atpg", "{circuit}", "--fallback", "--jobs", "1", "--out", "{out}")
        ops.append(Op(f"idle{k:02d}", "atpg", args, circ))
    return ops


# ---------------------------------------------------------------------------
# simulate-long: grading of a long user test file.  Patterns over {0,1,d}
# are random, so grading is dominated by good simulation of every pattern
# and by redundant faults that scan the whole file; the misses then go
# through the classify-only fallback.

LONG_SHAPE = (6, 3, 16)
LONG_COPIES = 4  # gates that repeat another gate's control set
LONG_PATTERNS = 512
LONG_OPS = 12


def _long_ops(rng: random.Random) -> list[Op]:
    n, p, d = LONG_SHAPE
    ops = []
    for k in range(LONG_OPS):
        # Distinct control sets, then a fixed number of copies: the count of
        # redundant APair bridges, which scan the whole file, stays the same
        # from circuit to circuit.
        while True:
            gates = _random_gate_list(rng, n, p, d - LONG_COPIES, list(range(1, n + 1)), 3)
            if len({frozenset(ctrl) for _, ctrl in gates}) == len(gates):
                break
        for _, ctrl in rng.sample(gates, LONG_COPIES):
            gates.insert(rng.randrange(len(gates) + 1), (rng.randint(1, p), ctrl))
        circ = Circuit(n, p, tuple(gates))
        rows = ["".join(rng.choice("01d") for _ in range(p + n)) for _ in range(LONG_PATTERNS)]
        tests = "# random patterns: c lines then x lines\n" + "\n".join(rows) + "\n"
        args = ("simulate", "{circuit}", "--tests", "{tests}", "--format", "csv",
                "--jobs", "1", "--out", "{out}")
        ops.append(Op(f"long{k:02d}", "simulate", args, circ, tests))
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "verify-deep": _deep_ops,
    "verify-shared": _shared_ops,
    "atpg-idle": _idle_ops,
    "simulate-long": _long_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations for ``seed``; equal seeds give equal ops."""
    # String seeds hash deterministically in `random` (unlike hash()).
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
