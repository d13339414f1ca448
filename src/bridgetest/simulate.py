"""Bridge detection from fault-free values, stimulation masks, and the
exhaustive detectability oracle.

Fault-free values are integer columns, bit t holding a net's value under
assignment t: grading packs the rows into columns and keeps every net of
one walk, and single-pattern queries use one-bit columns.  All read
per-network tables.

No faulty netlist is ever evaluated.  Each output is c_j XOR the AND
outputs of the gates targeting j, so a bridge changes the outputs by the
XOR of its two nets (APair, IntraLevel), or, for an XPair, by flipping one
input where the two differ, wherever the outputs are sensitive to it.
Grading walks a ``FaultList`` a class block at a time over tables built
once per call, and records verdicts by fault index.  ``_fault_difference``
reads one fault for ``detects`` and fallback repair.  The oracle reads the
monomials of the output changes off the gate supports, which covers every
assignment at once: a fault is redundant exactly when none is left.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, NamedTuple, Sequence

from .faults import BridgingFault, FaultKind, FaultList, Polarity
from .network import AndExorNetwork
from .patterns import FILL_TABLES

__all__ = [
    "detects",
    "OracleResult",
    "exhaustive_detectability",
    "FaultVerdict",
    "Evaluation",
    "evaluate_test_set",
]

DEFAULT_ORACLE_CAP = 22
_BITS = str.maketrans("", "", "01")  # deletes filled symbols


@functools.lru_cache(maxsize=4)  # an op reads one network throughout
def _gate_tables(network: AndExorNetwork) -> tuple[tuple, tuple, tuple]:
    """Per gate, its support as indices into ``_Good.cols``; per input v
    (entry v), ``(target, the other columns, their mask)`` per gate reading
    x_v; per gate, its support as a mask.  A mask has bit v for x_v."""
    p = network.p
    supports, readers, masks = [], [[] for _ in range(network.n + 1)], []
    for sup, target in zip(network.gate_supports, network.gate_targets):
        columns, mask = tuple([p + v - 1 for v in sup]), sum(1 << v for v in sup)
        supports.append(columns)
        masks.append(mask)
        for i, v in enumerate(sup):
            readers[v].append((target, columns[:i] + columns[i + 1 :], mask ^ 1 << v))
    return tuple(supports), tuple(map(tuple, readers)), tuple(masks)


class _Good:
    """Fault-free values as integer columns, as ``_fault_difference`` reads
    them.

    ``cols`` holds the c columns then the x columns, and ``ones`` has a bit
    set for each assignment.  Each read takes its products over
    ``_gate_tables``, and keeps the AND outputs and sensitivities it
    computed.
    """

    def __init__(self, network: AndExorNetwork, cols: Sequence[int], ones: int) -> None:
        self.network = network
        self.cols = cols
        self.ones = ones
        self.supports, self._readers, _ = _gate_tables(network)
        self._and: dict[int, int] = {}
        self._sensitivity: dict[int, int] = {}

    def x(self, i: int) -> int:
        return self.cols[self.network.p + i - 1]

    def product(self, columns: Iterable[int]) -> int:
        col = self.ones
        for k in columns:
            col &= self.cols[k]
        return col

    def and_out(self, gate_id: int) -> int:
        if gate_id not in self._and:
            self._and[gate_id] = self.product(self.supports[gate_id - 1])
        return self._and[gate_id]

    def sensitivity(self, v: int) -> int:
        """Where the outputs flip with x_v, computed once: the OR over the
        targets t of the XOR of AND(sup(g) - {v}) over the gates g on t
        that read x_v."""
        if v not in self._sensitivity:
            per_target: dict[int, int] = {}
            for target, others, _ in self._readers[v]:
                per_target[target] = per_target.get(target, 0) ^ self.product(others)
            self._sensitivity[v] = functools.reduce(operator.or_, per_target.values(), 0)
        return self._sensitivity[v]

    def wire(self, level: int, j: int) -> int:
        col = self.cols[j - 1]
        for gate_id, target in enumerate(self.network.gate_targets[:level], start=1):
            if target == j:
                col ^= self.and_out(gate_id)
        return col


def _fault_difference(
    good: _Good, kind: FaultKind, ids: tuple[int, ...], polarity: Polarity | None
) -> int:
    """Assignments under which the fault changes some output.

    A bridge moves its two nets by disjoint amounts whose OR is v1 XOR v2,
    and the cascade passes each change on unchanged to its own output.  So
    an APair changes the outputs by a_i XOR a_j, and an IntraLevel by the
    XOR of its two wires.  Where x_i != x_j an XPair flips the input at 1
    (wired-AND) or at 0 (wired-OR), changing the outputs sensitive to that
    input.
    """
    if kind is FaultKind.A_PAIR:
        i, j = ids
        return good.and_out(i) ^ good.and_out(j)
    if kind is FaultKind.INTRA_LEVEL:
        level, j1, j2 = ids
        return good.wire(level, j1) ^ good.wire(level, j2)
    if kind is not FaultKind.X_PAIR:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")

    i, j = ids
    xi, xj = good.x(i), good.x(j)
    only_i, only_j = xi & (good.ones ^ xj), xj & (good.ones ^ xi)
    if polarity is Polarity.WIRED_OR:
        only_i, only_j = only_j, only_i  # x_j pulled up where only x_i is 1
    diff = 0
    for where, v in ((only_i, i), (only_j, j)):
        if where:
            diff |= where & good.sensitivity(v)
    return diff


def _pack(
    network: AndExorNetwork, rows: Sequence[str], dc_policy: str
) -> tuple[list[int], list[int], int]:
    """c and x columns of a row list, bit t holding row t: with the rows
    joined last row first, column k is ``text[k::p + n]`` read in binary.
    Rows must be p + n long and all 0 or 1 once filled (``int`` reads ``_``)."""
    p, n = network.p, network.n
    if set(map(len, rows)) - {p + n}:
        row = next(row for row in rows if len(row) != p + n)
        raise ValueError(f"pattern has {len(row)} symbols, expected {p + n} (p={p} then n={n})")
    text = "".join(reversed(rows)).translate(FILL_TABLES[dc_policy])
    if text.translate(_BITS):
        raise ValueError(f"bad pattern symbol {sorted(set(text) - set('01'))!r}")
    cols = [int(text[k :: p + n] or "0", 2) for k in range(p + n)]
    return cols[:p], cols[p:], (1 << len(rows)) - 1


def _check_lines(network: AndExorNetwork, fault: BridgingFault) -> None:
    """Refuse a fault whose ids (ordered, any level at least 0) name an
    input, gate, line or level the network does not have."""
    kind, ids, intra = fault.kind, fault.ids, fault.kind is FaultKind.INTRA_LEVEL
    top = network.n if kind is FaultKind.X_PAIR else network.p if intra else network.d
    if min(ids[-2:]) < 1 or ids[-1] > top or (intra and ids[0] > network.d):
        raise ValueError(f"{fault.describe()} is not a fault of a network with "
                         f"n={network.n}, p={network.p} and d={network.d}")


def detects(
    network: AndExorNetwork,
    fault: BridgingFault,
    row: str,
    dc_policy: str = "fill-zero",
) -> bool:
    """True when the row distinguishes faulty outputs from good outputs.

    ExorInternal has no faulty outputs, so passing one is a usage error,
    as is a fault whose lines are not in the network.
    """
    c, x, ones = _pack(network, [row], dc_policy)
    _check_lines(network, fault)
    good = _Good(network, c + x, ones)
    return _fault_difference(good, fault.kind, fault.ids, fault.polarity) != 0


class OracleResult(NamedTuple):
    status: str  # "detectable" or "redundant"
    witness: str | None = None  # the witness row

    @property
    def detectable(self) -> bool:
        return self.status == "detectable"


def _change_monomials(
    network: AndExorNetwork, kind: FaultKind, ids: tuple[int, ...], polarity: Polarity | None
) -> set[int]:
    """Monomials of the fault's output changes: none when it is redundant,
    else holding the least monomial of the changes.

    A monomial is a bitmask of pattern positions, c_j at j - 1 and x_v at
    p + v - 1; the constant line is 1, so no monomial holds it.  AND output
    a_g is m(sup(g)): an APair changes the outputs by m(sup_i) + m(sup_j),
    an IntraLevel by c_j1 + c_j2 plus the AND outputs on either wire.  An
    XPair flips x_v, w the other input, where x_v = 1 and x_w = 0 under
    wired-AND, x_v = 0 and x_w = 1 under wired-OR, never if that 0 is the
    constant line.  On target t each gate reading x_v adds m(sup) +
    m(sup + {w}) under wired-AND if it does not read x_w, and
    m(sup - {v} + {w}) + m(sup + {w}) under wired-OR.  The second monomial
    is the first plus a position, so it cancels when the first does and is
    never the least: only the first is kept, when odd on some target.
    """
    p, (_, readers, masks) = network.p, _gate_tables(network)
    pin = 1 << (network.constant_line or 0)

    def monomial(mask: int) -> int:  # bit v for x_v -> position p + v - 1
        return (mask & ~pin) >> 1 << p

    if kind is FaultKind.A_PAIR:
        i, j = ids
        return {monomial(masks[i - 1])} ^ {monomial(masks[j - 1])}
    if kind is FaultKind.INTRA_LEVEL:
        level, j1, j2 = ids
        odd = {1 << (j1 - 1)} ^ {1 << (j2 - 1)}
        for gate_id, target in enumerate(network.gate_targets[:level], start=1):
            if target in (j1, j2):
                odd ^= {monomial(masks[gate_id - 1])}
        return odd
    if kind is not FaultKind.X_PAIR:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")

    wired_and = polarity is Polarity.WIRED_AND
    odd_on_target: set[tuple[int, int]] = set()
    for v, w in (ids, ids[::-1]):
        if (w if wired_and else v) == network.constant_line:  # x_v never flips
            continue
        for target, _, others in readers[v]:
            if not wired_and:
                odd_on_target ^= {(target, monomial(others | 1 << w))}
            elif not others >> w & 1:
                odd_on_target ^= {(target, monomial(others | 1 << v))}
    return {m for _, m in odd_on_target}


def exhaustive_detectability(network: AndExorNetwork, fault: BridgingFault) -> OracleResult:
    """Decide the fault over every full assignment; the witness is the
    lexicographically least detecting row.

    The fault is redundant exactly when its changes have no monomial
    (``_change_monomials``).  Otherwise the least, m, read as a row with
    the constant line at 1, is the witness: a row holds only monomials not
    after it, so m holds no other one and some change is 1 there, while a
    row before m holds none.  Faults outside the network are refused.
    """
    _check_lines(network, fault)
    monomials = _change_monomials(network, fault.kind, fault.ids, fault.polarity)
    if not monomials:
        return OracleResult("redundant")
    width = network.n + network.p
    pinned = 0 if network.constant_line is None else 1 << (network.p + network.constant_line - 1)
    return OracleResult("detectable", min(format(m | pinned, f"0{width}b")[::-1] for m in monomials))


class FaultVerdict(NamedTuple):
    fault: BridgingFault
    status: str  # "detected" | "undetected" | "redundant" | "unresolved"
    pattern_index: int | None = None
    method: str | None = None  # "simulation" | "stimulation" | "exhaustive" | "constant-line"


STATUSES = ("undetected", "detected", "redundant", "unresolved")
UNDETECTED, DETECTED, REDUNDANT, UNRESOLVED = range(4)
METHODS = (None, "simulation", "stimulation", "exhaustive", "constant-line")
_SIMULATION, _STIMULATION, _CONSTANT_LINE = 1, 2, 4  # indices into METHODS


class Evaluation:
    """Per-fault verdicts of one test set, indexed like the ``FaultList``.

    They are kept as parallel arrays: codes into ``STATUSES`` and
    ``METHODS``, and the first detecting pattern index (None when there is
    none).  A reader finds the entries of one verdict by index, for example
    with ``status.find(UNDETECTED, k)``; ``verdicts`` builds the
    ``FaultVerdict`` list on each read.
    """

    def __init__(self, faults: FaultList, masks: list[int]) -> None:
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


def evaluate_test_set(
    network: AndExorNetwork,
    faults: FaultList,
    rows: Sequence[str],
    dc_policy: str = "fill-zero",
) -> Evaluation:
    """Grade every fault against the rows, verdicts in fault order.

    The rows are packed into columns, bit t holding row t.  A
    detected fault records the first detecting pattern index; ExorInternal
    records the index at which its stimulation mask became full.  The
    ``FaultList`` is graded a class block at a time (``FaultList.blocks``),
    so no ``BridgingFault`` is built.  An APair or IntraLevel pair changes
    the outputs by the XOR of its two nets whatever its polarity, so one
    ``^`` decides both entries.  An XPair (i, j) flips x_i where x_i = 1 and
    x_j = 0 under wired-AND, and x_j there under wired-OR, where the outputs
    are sensitive to the flipped input.
    """
    c_cols, x_cols, ones = _pack(network, rows, dc_policy)
    good = _Good(network, c_cols + x_cols, ones)
    a = [good.product(columns) for columns in good.supports]

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

    ev = Evaluation(faults, masks)
    status, method, first = ev.status, ev.method, ev.first

    for k, sup in enumerate(network.gate_supports):  # ExorInternal, entry k is gate k + 1
        if network.constant_line is not None and sup <= {network.constant_line}:
            # The AND value is pinned, so two of the four combinations can
            # never be applied: the obligation is unsatisfiable by design.
            status[k], method[k] = REDUNDANT, _CONSTANT_LINE
        elif k + 1 in full_at:
            status[k], method[k], first[k] = DETECTED, _STIMULATION, full_at[k + 1]
    k = network.d
    for kind, lines, block_levels in faults.blocks():
        if kind is FaultKind.X_PAIR:
            # per input v: x_v, its complement, and S_v where x_v is 1 and where it is 0
            tables = [(xv, ones ^ xv, xv & sv, (ones ^ xv) & sv)
                      for xv, sv in ((good.x(v), good.sensitivity(v)) for v in lines)]
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
