"""Bridge detection from fault-free values, stimulation masks, and the
exhaustive detectability oracle.

Fault-free values are integer columns, bit t holding a net's value under
assignment t: grading packs the pattern list into columns and keeps every
net of one walk, and single-pattern queries use one-bit columns.

No faulty netlist is ever evaluated.  Each output is c_j XOR the AND
outputs of the gates targeting j, so a bridge changes the outputs by the
XOR of its two nets (APair, IntraLevel), or, for an XPair, by flipping one
input where the two differ, wherever the outputs are sensitive to it.
Grading walks a ``FaultList`` a class block at a time over tables built
once per call.  ``_output_changes`` reads one fault; ``detects``, plain
fault lists, fallback repair and the oracle share it, the oracle on GF(2)
polynomials (``_Anf``) in the pattern positions, which cover every
assignment at once: a fault is redundant exactly when every change is zero.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .faults import BridgingFault, FaultKind, FaultList, Polarity
from .network import AndExorNetwork
from .patterns import FILL_TABLES, TestPattern

__all__ = [
    "detects",
    "OracleResult",
    "exhaustive_detectability",
    "FaultVerdict",
    "Evaluation",
    "evaluate_test_set",
]

DEFAULT_ORACLE_CAP = 22


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
        self._sensitivity: dict[int, list[int | _Anf]] = {}

    def x(self, i: int) -> int | _Anf:
        return self.cols[self.network.p + i - 1]

    def product(self, inputs: Iterable[int]) -> int | _Anf:
        col = self.ones
        for v in inputs:
            col &= self.x(v)
        return col

    def and_out(self, gate_id: int) -> int | _Anf:
        if self.a is not None:
            return self.a[gate_id - 1]
        return self.product(self.network.gate_supports[gate_id - 1])

    def sensitivity(self, v: int) -> list[int | _Anf]:
        """Where the outputs flip with x_v, computed once: per target t, the
        XOR of AND(sup(g) - {v}) over the gates g on t that read x_v.
        Integer columns OR the targets into one; polynomials keep each.
        """
        if v not in self._sensitivity:
            per_target: dict[int, int | _Anf] = {}
            for sup, target in zip(self.network.gate_supports, self.network.gate_targets):
                if v in sup:
                    col = self.product(sup - {v})
                    per_target[target] = per_target[target] ^ col if target in per_target else col
            sens = list(per_target.values())
            if not isinstance(self.ones, _Anf):
                sens = [functools.reduce(operator.or_, sens, 0)]
            self._sensitivity[v] = sens
        return self._sensitivity[v]

    def wire(self, level: int, j: int) -> int | _Anf:
        if self.levels is not None:
            return self.levels[level][j - 1]
        col = self.cols[j - 1]
        for gate_id, target in enumerate(self.network.gate_targets[:level], start=1):
            if target == j:
                col ^= self.and_out(gate_id)
        return col


def _output_changes(
    good: _Good, kind: FaultKind, ids: tuple[int, ...], polarity: Polarity | None
) -> list[int | _Anf]:
    """The changes a fault makes to the outputs; it shows wherever one is set.

    A bridge moves its two nets by disjoint amounts whose OR is v1 XOR v2,
    and the cascade passes each change on unchanged to its own output.  So
    an APair gives one entry, a_i XOR a_j, and an IntraLevel the XOR of its
    two wires.  Where x_i != x_j an XPair flips the input at 1 (wired-AND)
    or at 0 (wired-OR), changing the outputs sensitive to that input.
    """
    if kind is FaultKind.A_PAIR:
        i, j = ids
        return [good.and_out(i) ^ good.and_out(j)]
    if kind is FaultKind.INTRA_LEVEL:
        level, j1, j2 = ids
        return [good.wire(level, j1) ^ good.wire(level, j2)]
    if kind is not FaultKind.X_PAIR:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")

    i, j = ids
    xi, xj = good.x(i), good.x(j)
    only_i, only_j = xi & (good.ones ^ xj), xj & (good.ones ^ xi)
    if polarity is Polarity.WIRED_OR:
        only_i, only_j = only_j, only_i  # x_j pulled up where only x_i is 1
    flips = ((only_i, i), (only_j, j))
    return [where & col for where, v in flips if where for col in good.sensitivity(v)]


def _fault_difference(
    good: _Good, kind: FaultKind, ids: tuple[int, ...], polarity: Polarity | None
) -> int:
    """Assignments under which the fault changes some output."""
    return functools.reduce(operator.or_, _output_changes(good, kind, ids, polarity), 0)


def _pack(
    network: AndExorNetwork, patterns: Sequence[TestPattern], dc_policy: str
) -> tuple[list[int], list[int], int]:
    """c and x columns of a pattern list, bit t holding pattern t: with the lines
    joined last pattern first, column k is ``text[k::p + n]`` read in binary."""
    p, n = network.p, network.n
    for pattern in patterns:
        if len(pattern.c) != p or len(pattern.x) != n:
            raise ValueError(
                f"pattern dimension mismatch: got p={len(pattern.c)} n={len(pattern.x)}, "
                f"network has p={p} n={n}"
            )
    text = "".join([pat.c + pat.x for pat in reversed(patterns)]).translate(FILL_TABLES[dc_policy])
    cols = [int(text[k :: p + n] or "0", 2) for k in range(p + n)]
    return cols[:p], cols[p:], (1 << len(patterns)) - 1


def detects(
    network: AndExorNetwork,
    fault: BridgingFault,
    pattern: TestPattern,
    dc_policy: str = "fill-zero",
) -> bool:
    """True when the pattern distinguishes faulty outputs from good outputs.

    ExorInternal has no faulty outputs, so passing one is a usage error.
    """
    c, x, ones = _pack(network, [pattern], dc_policy)
    good = _Good(network, c + x, ones)
    return _fault_difference(good, fault.kind, fault.ids, fault.polarity) != 0


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
    good = _Good(network, cols, one)
    changes = [f for f in _output_changes(good, fault.kind, fault.ids, fault.polarity) if f]
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
    method: str | None = None  # "simulation" | "stimulation" | "exhaustive" | "constant-line"


STATUSES = ("undetected", "detected", "redundant", "unresolved")
UNDETECTED, DETECTED, REDUNDANT, UNRESOLVED = range(4)
METHODS = (None, "simulation", "stimulation", "exhaustive", "constant-line")
_SIMULATION, _STIMULATION, _CONSTANT_LINE = 1, 2, 4  # indices into METHODS


class Evaluation:
    """Per-fault verdicts of one test set, in the order of ``faults``.

    They are kept as parallel arrays: codes into ``STATUSES`` and
    ``METHODS``, and the first detecting pattern index (None when there is
    none).  ``verdicts`` builds the ``FaultVerdict`` list on each read.
    """

    def __init__(self, faults: FaultList | Sequence[BridgingFault], masks: list[int]) -> None:
        self.faults = faults
        self.masks = masks
        self.status = bytearray(len(faults))
        self.method = bytearray(len(faults))
        self.first: list[int | None] = [None] * len(faults)

    @property
    def verdicts(self) -> list[FaultVerdict]:
        return [
            FaultVerdict(fault, STATUSES[s], first, METHODS[m])
            for fault, s, first, m in zip(self.faults, self.status, self.first, self.method)
        ]

    def count(self, status: str) -> int:
        return self.status.count(STATUSES.index(status))

    def coverage(self) -> float:
        testable = len(self.status) - self.count("redundant")
        return self.count("detected") / testable if testable else 1.0

    def faults_with(self, status: str) -> list[BridgingFault]:
        code = STATUSES.index(status)
        return [self.faults[k] for k, s in enumerate(self.status) if s == code]


def evaluate_test_set(
    network: AndExorNetwork,
    faults: FaultList | Sequence[BridgingFault],
    patterns: Sequence[TestPattern],
    dc_policy: str = "fill-zero",
) -> Evaluation:
    """Grade every fault against the pattern list, verdicts in fault order.

    The patterns are packed into columns, bit t holding pattern t.  A
    detected fault records the first detecting pattern index; ExorInternal
    records the index at which its stimulation mask became full.  A
    ``FaultList`` is graded a class block at a time (``FaultList.blocks``).
    An APair or IntraLevel pair changes the outputs by the XOR of its two
    nets whatever its polarity, so one ``^`` decides both entries.  An XPair
    (i, j) flips x_i where x_i = 1 and x_j = 0 under wired-AND, and x_j
    there under wired-OR, where the outputs are sensitive to the flipped
    input.  A plain fault list is read one fault at a time.
    """
    c_cols, x_cols, ones = _pack(network, patterns, dc_policy)
    cols = c_cols + x_cols
    a = [_Good(network, cols, ones).product(sup) for sup in network.gate_supports]

    # Walk the cascade, keeping the wires of every level 0..d.  Bit
    # 2*left + right of a gate's mask is set once its EXOR has seen that input
    # pair; a full mask completes at the latest first sighting of the four.
    wires, levels, masks = list(c_cols), [tuple(c_cols)], []
    full_at: dict[int, int] = {}
    for gate_id, target in enumerate(network.gate_targets, start=1):
        left, right = wires[target - 1], a[gate_id - 1]
        seen = (ones ^ (left | right), right & ~left, left & ~right, left & right)
        masks.append(sum(1 << k for k, col in enumerate(seen) if col))
        if all(seen):
            full_at[gate_id] = max((col & -col).bit_length() - 1 for col in seen)
        wires[target - 1] ^= right
        levels.append(tuple(wires))
    good = _Good(network, cols, ones, a, levels)

    ev = Evaluation(faults, masks)
    status, method, first = ev.status, ev.method, ev.first

    def exor_internal(k: int, gate_id: int) -> None:
        sup = network.gate_supports[gate_id - 1]
        if network.constant_line is not None and sup <= {network.constant_line}:
            # The AND value is pinned, so two of the four combinations can
            # never be applied: the obligation is unsatisfiable by design.
            status[k], method[k] = REDUNDANT, _CONSTANT_LINE
        elif gate_id in full_at:
            status[k], method[k], first[k] = DETECTED, _STIMULATION, full_at[gate_id]

    if not isinstance(faults, FaultList):
        for k, f in enumerate(faults):
            if f.kind is FaultKind.EXOR_INTERNAL:
                exor_internal(k, f.ids[0])
            elif diff := _fault_difference(good, f.kind, f.ids, f.polarity):
                status[k], method[k] = DETECTED, _SIMULATION
                first[k] = (diff & -diff).bit_length() - 1
        return ev

    for gate_id in range(1, network.d + 1):
        exor_internal(gate_id - 1, gate_id)
    k = network.d
    for kind, lines, block_levels in faults.blocks():
        if kind is FaultKind.X_PAIR:
            # per input v: x_v, its complement, and S_v where x_v is 1 and where it is 0
            tables = [(xv, ones ^ xv, xv & sv, (ones ^ xv) & sv)
                      for xv, sv in ((good.x(v), good.sensitivity(v)[0]) for v in lines)]
            for (xi, ni, ui, di), (xj, nj, uj, dj) in itertools.combinations(tables, 2):
                for diff in (ui & nj | uj & ni, di & xj | dj & xi):  # WiredAnd, WiredOr
                    if diff:
                        status[k], method[k] = DETECTED, _SIMULATION
                        first[k] = (diff & -diff).bit_length() - 1
                    k += 1
            continue
        for level in block_levels:  # every wire of the level, or every AND output
            for u, w in itertools.combinations(a if level is None else levels[level], 2):
                if diff := u ^ w:
                    status[k] = status[k + 1] = DETECTED
                    method[k] = method[k + 1] = _SIMULATION
                    first[k] = first[k + 1] = (diff & -diff).bit_length() - 1
                k += 2
    return ev
