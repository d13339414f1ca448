"""Bit-accurate good and faulty evaluation, stimulation masks, and the
exhaustive detectability oracle.

One fault-free evaluator, ``_columns``, walks the netlist over integer
columns: bit t of a column is a net's value under assignment t.  Coverage
grading packs the whole pattern list into columns and single-pattern
queries use one-bit columns.

Detection never re-walks a faulty netlist.  Each output is c_j XOR the AND
outputs of the gates targeting j, so a bridge changes an output by the XOR
of the changes it makes to the nets feeding it, and ``_output_changes``
reads those changes off the fault-free values with ``^ & |`` alone.  On
columns, the first detecting assignment is the lowest set bit of their OR.
The oracle runs the same closed form on GF(2) polynomials (``_Anf``) in the
pattern positions, which cover every assignment at once: a fault is
redundant exactly when every change is the zero polynomial.  Injection
stays only in ``eval_faulty``, which returns every faulty net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .faults import BridgingFault, FaultKind, FaultList, bridge_values
from .network import AndExorNetwork
from .patterns import TestPattern

__all__ = [
    "SimulationResult",
    "eval_good",
    "eval_faulty",
    "detects",
    "exor_stimulation_mask",
    "FULL_MASK",
    "OracleResult",
    "exhaustive_detectability",
    "FaultVerdict",
    "Evaluation",
    "evaluate_test_set",
]

FULL_MASK = 0b1111
DEFAULT_ORACLE_CAP = 22


@dataclass(frozen=True)
class SimulationResult:
    """Values of every net after one evaluation."""

    outputs: tuple[int, ...]
    x_values: tuple[int, ...]
    a_values: tuple[int, ...]
    cascade: tuple[tuple[int, ...], ...]  # cascade[j-1][level]


def _resolved_bits(
    network: AndExorNetwork, pattern: TestPattern, dc_policy: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if len(pattern.c) != network.p or len(pattern.x) != network.n:
        raise ValueError(
            f"pattern dimension mismatch: got p={len(pattern.c)} n={len(pattern.x)}, "
            f"network has p={network.p} n={network.n}"
        )
    return pattern.resolve(dc_policy)


def _columns(
    network: AndExorNetwork,
    c_cols: Sequence[int],
    x_cols: Sequence[int],
    ones: int,
    fault: BridgingFault | None,
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """Evaluate the netlist on columns, with ``fault`` injected if given.

    Bit t of every column is a net's value under assignment t, and ``ones``
    has a bit set for each assignment.  Returns the x and AND-output
    columns and the cascade: the p target-line columns at each level 0..d,
    the last being the outputs.
    """
    x = list(x_cols)
    if fault is not None and fault.kind is FaultKind.X_PAIR:
        i, j = fault.ids
        x[i - 1], x[j - 1] = bridge_values(x[i - 1], x[j - 1], fault.polarity)

    a = []
    for sup in network.gate_supports:
        col = ones
        for v in sup:
            col &= x[v - 1]
        a.append(col)
    if fault is not None and fault.kind is FaultKind.A_PAIR:
        i, j = fault.ids
        a[i - 1], a[j - 1] = bridge_values(a[i - 1], a[j - 1], fault.polarity)

    intra = fault is not None and fault.kind is FaultKind.INTRA_LEVEL
    w = list(c_cols)
    levels = []
    for level in range(network.d + 1):
        if level:
            w[network.gate_targets[level - 1] - 1] ^= a[level - 1]
        if intra and fault.ids[0] == level:
            _, j1, j2 = fault.ids
            w[j1 - 1], w[j2 - 1] = bridge_values(w[j1 - 1], w[j2 - 1], fault.polarity)
        levels.append(tuple(w))
    return x, a, levels


class _Anf(frozenset):
    """A multilinear polynomial over GF(2): the set of its monomials.

    A monomial is a bitmask of pattern positions (bit k for the k-th symbol
    from the left, c lines first), and the empty monomial 0 is the constant
    1.  ``^`` adds, ``&`` multiplies with repeated monomials cancelling, and
    ``|`` is a ^ b ^ ab, so the closed form runs on these unchanged.
    """

    @classmethod
    def sum(cls, monomials: Iterable[int]) -> "_Anf":
        odd: set[int] = set()
        for m in monomials:
            odd ^= {m}
        return cls(odd)

    def __xor__(self, other: "_Anf") -> "_Anf":
        return _Anf(frozenset.__xor__(self, other))

    def __and__(self, other: "_Anf") -> "_Anf":
        return _Anf.sum(m | k for m in self for k in other)

    def __or__(self, other: "_Anf") -> "_Anf":
        return self ^ other ^ (self & other)

    def at(self, bit: int, value: int) -> "_Anf":
        """The cofactor with the position ``bit`` fixed to ``value``."""
        if value:
            return _Anf.sum(m & ~bit for m in self)
        return _Anf(m for m in self if not m & bit)


class _Good:
    """Fault-free values, as ``_output_changes`` reads them.

    The values are integer columns or ``_Anf`` polynomials.  ``cols`` holds
    the c values then the x values, and ``ones`` is the value of an AND with
    no inputs.  ``a`` and ``levels`` (cascade levels 0..d) are the AND
    outputs and wires when the caller has evaluated the whole netlist;
    otherwise each read computes what it needs from ``cols``.
    """

    def __init__(
        self,
        network: AndExorNetwork,
        cols: Sequence[int | _Anf],
        ones: int | _Anf,
        a: Sequence[int] | None = None,
        levels: Sequence[tuple[int, ...]] | None = None,
    ) -> None:
        self.network = network
        self.cols = cols
        self.ones = ones
        self.a = a
        self.levels = levels

    def x(self, i: int) -> int | _Anf:
        return self.cols[self.network.p + i - 1]

    def and_out(self, gate_id: int) -> int | _Anf:
        if self.a is not None:
            return self.a[gate_id - 1]
        col = self.ones
        for v in self.network.gate_supports[gate_id - 1]:
            col &= self.x(v)
        return col

    def wire(self, level: int, j: int) -> int | _Anf:
        if self.levels is not None:
            return self.levels[level][j - 1]
        col = self.cols[j - 1]
        for gate_id, target in enumerate(self.network.gate_targets[:level], start=1):
            if target == j:
                col ^= self.and_out(gate_id)
        return col


def _output_changes(good: _Good, fault: BridgingFault) -> list[int | _Anf]:
    """The changes ``fault`` makes to the outputs; it shows wherever one is set.

    A bridge moves its two nets by disjoint amounts whose OR is v1 XOR v2,
    and the cascade passes each change on unchanged to its own output.  So
    an APair gives one entry, a_i XOR a_j, and an IntraLevel the XOR of its
    two wires.  An XPair changes each gate that reads x_i or x_j, and the
    changes of the gates on one target XOR into that output's entry.
    """
    if fault.kind is FaultKind.A_PAIR:
        i, j = fault.ids
        return [good.and_out(i) ^ good.and_out(j)]
    if fault.kind is FaultKind.INTRA_LEVEL:
        level, j1, j2 = fault.ids
        return [good.wire(level, j1) ^ good.wire(level, j2)]
    if fault.kind is not FaultKind.X_PAIR:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")

    i, j = fault.ids
    xi, xj = good.x(i), good.x(j)
    v, _ = bridge_values(xi, xj, fault.polarity)
    # a gate reading x_i only sees x_i become v, and one reading both sees x_i & x_j become v
    change = {frozenset((i,)): xi ^ v, frozenset((j,)): xj ^ v, frozenset((i, j)): (xi & xj) ^ v}
    pair = frozenset(fault.ids)
    deltas: dict[int, int | _Anf] = {}
    for sup, target in zip(good.network.gate_supports, good.network.gate_targets):
        col = change.get(sup & pair)
        if not col:
            continue
        for u in sup - pair:
            col &= good.x(u)
        deltas[target] = deltas[target] ^ col if target in deltas else col
    return list(deltas.values())


def _fault_difference(good: _Good, fault: BridgingFault) -> int:
    """Assignments under which ``fault`` changes some output."""
    diff = 0
    for col in _output_changes(good, fault):
        diff |= col
    return diff


def _lowest(col: int) -> int:
    return (col & -col).bit_length() - 1


def _pack(
    network: AndExorNetwork, patterns: Sequence[TestPattern], dc_policy: str
) -> tuple[list[int], list[int], int]:
    """c and x columns of a pattern list, bit t holding pattern t."""
    rows = [_resolved_bits(network, pattern, dc_policy) for pattern in patterns]
    c_cols = [sum(c[k] << t for t, (c, _) in enumerate(rows)) for k in range(network.p)]
    x_cols = [sum(x[k] << t for t, (_, x) in enumerate(rows)) for k in range(network.n)]
    return c_cols, x_cols, (1 << len(patterns)) - 1


def _single(
    network: AndExorNetwork,
    pattern: TestPattern,
    dc_policy: str,
    fault: BridgingFault | None,
) -> SimulationResult:
    c, x = _resolved_bits(network, pattern, dc_policy)
    x_vals, a, levels = _columns(network, c, x, 1, fault)
    cascade = tuple(tuple(level[j] for level in levels) for j in range(network.p))
    return SimulationResult(levels[-1], tuple(x_vals), tuple(a), cascade)


def eval_good(
    network: AndExorNetwork, pattern: TestPattern, dc_policy: str = "fill-zero"
) -> SimulationResult:
    """Fault-free evaluation of one pattern."""
    return _single(network, pattern, dc_policy, None)


def eval_faulty(
    network: AndExorNetwork,
    fault: BridgingFault,
    pattern: TestPattern,
    dc_policy: str = "fill-zero",
) -> SimulationResult:
    """Evaluation with one injected bridge.

    ExorInternal is an exhaustive-stimulation obligation, not an injectable
    defect, so passing one here is a usage error.
    """
    if fault.kind is FaultKind.EXOR_INTERNAL:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")
    return _single(network, pattern, dc_policy, fault)


def detects(
    network: AndExorNetwork,
    fault: BridgingFault,
    pattern: TestPattern,
    dc_policy: str = "fill-zero",
) -> bool:
    """True when the pattern distinguishes faulty outputs from good outputs.

    ExorInternal has no faulty outputs, so passing one is a usage error.
    """
    c, x = _resolved_bits(network, pattern, dc_policy)
    return _fault_difference(_Good(network, c + x, 1), fault) != 0


def exor_stimulation_mask(
    network: AndExorNetwork,
    patterns: Iterable[TestPattern],
    dc_policy: str = "fill-zero",
) -> list[int]:
    """4-bit mask per gate of the (left,right) EXOR input combinations seen.

    Bit (2*left + right) is set when the combination occurred under some
    pattern.  A full mask (0b1111) discharges the gate's ExorInternal
    obligation.
    """
    return evaluate_test_set(network, [], list(patterns), dc_policy).masks


@dataclass(frozen=True)
class OracleResult:
    status: str  # "detectable" or "redundant"
    witness: TestPattern | None = None

    @property
    def detectable(self) -> bool:
        return self.status == "detectable"


def exhaustive_detectability(network: AndExorNetwork, fault: BridgingFault) -> OracleResult:
    """Decide the fault over every full assignment; the witness is the
    lexicographically least detecting pattern.

    Each output change is a GF(2) polynomial in the pattern positions, and
    a reduced polynomial is zero only if it is zero everywhere.  The witness
    fixes the positions from the left: 0 whenever some change stays nonzero,
    else 1.  A constant-one line is the constant 1 polynomial and stays 1 in
    the witness.
    """
    width = network.n + network.p
    pinned = None if network.constant_line is None else network.p + network.constant_line - 1
    one = _Anf({0})
    cols = [one if k == pinned else _Anf({1 << k}) for k in range(width)]
    changes = [f for f in _output_changes(_Good(network, cols, one), fault) if f]
    if not changes:
        return OracleResult("redundant")

    bits = ""
    for k in range(width):
        at_zero = [f.at(1 << k, 0) for f in changes]
        if k != pinned and any(at_zero):
            bits += "0"
            changes = [f for f in at_zero if f]
        else:
            bits += "1"
            changes = [g for g in (f.at(1 << k, 1) for f in changes) if g]
    return OracleResult(
        "detectable", TestPattern(bits[: network.p], bits[network.p :], origin="Fallback")
    )


@dataclass(frozen=True)
class FaultVerdict:
    fault: BridgingFault
    status: str  # "detected" | "undetected" | "redundant" | "unresolved"
    pattern_index: int | None = None
    method: str | None = None  # "simulation" | "stimulation" | "exhaustive" | "random" | "constant-line"


@dataclass
class Evaluation:
    """Per-fault verdicts of one test set, in fault-enumeration order."""

    verdicts: list[FaultVerdict]
    masks: list[int]

    def count(self, status: str) -> int:
        return sum(1 for v in self.verdicts if v.status == status)

    def coverage(self) -> float:
        testable = len(self.verdicts) - self.count("redundant")
        if testable == 0:
            return 1.0
        return self.count("detected") / testable

    def faults_with(self, status: str) -> list[BridgingFault]:
        return [v.fault for v in self.verdicts if v.status == status]


def evaluate_test_set(
    network: AndExorNetwork,
    faults: FaultList | Sequence[BridgingFault],
    patterns: Sequence[TestPattern],
    dc_policy: str = "fill-zero",
) -> Evaluation:
    """Grade every fault against the pattern list.

    Detected faults record the first detecting pattern index (or, for
    ExorInternal, the index at which the stimulation mask became full).
    Verdicts come back in fault order.
    """
    return grade_columns(network, faults, *_pack(network, patterns, dc_policy))


def grade_columns(
    network: AndExorNetwork,
    faults: FaultList | Sequence[BridgingFault],
    c_cols: list[int],
    x_cols: list[int],
    ones: int,
) -> Evaluation:
    """``evaluate_test_set`` on packed columns, bit t holding pattern t."""
    _, a, levels = _columns(network, c_cols, x_cols, ones, None)
    good = _Good(network, c_cols + x_cols, ones, a, levels)

    # Bit 2*left + right of a gate's mask is set once its EXOR has seen that
    # input pair; a full mask completes at the latest first sighting of the four.
    masks = []
    full_at: dict[int, int] = {}
    for gate_id, target in enumerate(network.gate_targets, start=1):
        left, right = levels[gate_id - 1][target - 1], a[gate_id - 1]
        seen = (ones ^ (left | right), right & ~left, left & ~right, left & right)
        masks.append(sum(1 << k for k, col in enumerate(seen) if col))
        if all(seen):
            full_at[gate_id] = max(_lowest(col) for col in seen)

    verdicts = []
    for fault in faults:
        if fault.kind is FaultKind.EXOR_INTERNAL:
            gate_id = fault.ids[0]
            sup = network.gate_supports[gate_id - 1]
            if network.constant_line is not None and sup <= {network.constant_line}:
                # The AND value is pinned, so two of the four combinations can
                # never be applied: the obligation is unsatisfiable by design.
                verdicts.append(FaultVerdict(fault, "redundant", None, "constant-line"))
            elif gate_id in full_at:
                verdicts.append(FaultVerdict(fault, "detected", full_at[gate_id], "stimulation"))
            else:
                verdicts.append(FaultVerdict(fault, "undetected"))
            continue
        diff = _fault_difference(good, fault)
        if diff:
            verdicts.append(FaultVerdict(fault, "detected", _lowest(diff), "simulation"))
        else:
            verdicts.append(FaultVerdict(fault, "undetected"))
    return Evaluation(verdicts, masks)
