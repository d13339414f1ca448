"""Bridge detection from fault-free values, stimulation masks, and the
exhaustive detectability oracle.

Fault-free values are integer columns, bit t holding a net's value under
assignment t: grading packs the rows into columns, and single-pattern
queries use one-bit columns.  All read the per-network gate tables
(``_gate_tables``).

No faulty netlist is ever evaluated.  Each output is c_j XOR the AND
outputs of the gates targeting j, so a bridge changes the outputs by the
XOR of its two nets (APair, IntraLevel), or, for an XPair, by flipping one
input where the two differ, wherever the outputs are sensitive to it.
So every change is read off three tables of ``_Good``: the AND outputs,
the cascade wires at every level, and per input its value and
sensitivity.  Grading walks a ``FaultList`` a class block at a time over
one ``_Good`` and records verdicts by fault index; ``_fault_difference``
reads one fault off the same tables for ``detects`` and fallback repair.
The oracle reads the monomials of the output changes off the gate
supports, which covers every assignment at once: a fault is redundant
exactly when none is left.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, NamedTuple, Sequence

from .circuit import AndExorNetwork
from .faults import BridgingFault, FaultKind, FaultList, Polarity
from .patterns import fill_table

__all__ = [
    "detects",
    "OracleResult",
    "exhaustive_detectability",
    "FaultVerdict",
    "Evaluation",
    "evaluate_test_set",
]

DEFAULT_ORACLE_CAP = 22  # up to this n + p a redundancy proof reads redundant, above it unresolved
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
    """Fault-free values as integer columns (``cols``: the c columns, then
    the x columns; ``ones``: a bit per assignment), and the three tables
    every bridge's output change is read from.  Each is built on first read
    with products over ``_gate_tables``, so a column is read only where a
    fault needs it."""

    def __init__(self, network: AndExorNetwork, cols: Sequence[int], ones: int) -> None:
        self.network = network
        self.cols = cols
        self.ones = ones
        self.supports, self._readers, _ = _gate_tables(network)
        self.ands: list[int | None] = [None] * network.d  # entry g - 1: a_g once read
        self._levels: list[tuple[int, ...]] | None = None
        self._xpair: list[tuple[int, int, int, int] | None] = [None] * (network.n + 1)

    def product(self, columns: Iterable[int]) -> int:
        col = self.ones
        for k in columns:
            col &= self.cols[k]
        return col

    def and_out(self, gate_id: int) -> int:
        col = self.ands[gate_id - 1]
        if col is None:
            col = self.ands[gate_id - 1] = self.product(self.supports[gate_id - 1])
        return col

    def levels(self) -> list[tuple[int, ...]]:
        """The c wires at every level 0..d, from one walk of the cascade:
        entry L, position j - 1 is wj@L.  It reads every AND output."""
        if self._levels is None:
            ands = self.ands = [self.product(sup) if a is None else a
                                for a, sup in zip(self.ands, self.supports)]
            wires = [self.cols[j] for j in range(self.network.p)]
            levels = self._levels = [tuple(wires)]
            for target, a in zip(self.network.gate_targets, ands):
                wires[target - 1] ^= a
                levels.append(tuple(wires))
        return self._levels

    def xpair(self, v: int) -> tuple[int, int, int, int]:
        """(x_v, its complement, S_v where x_v = 1, S_v where x_v = 0), where
        S_v, the outputs' sensitivity to x_v, is the OR over the targets t
        of the XOR of AND(sup(g) - {v}) over the gates g on t reading x_v."""
        table = self._xpair[v]
        if table is None:
            per_target = [0] * (self.network.p + 1)
            for target, others, _ in self._readers[v]:
                per_target[target] ^= self.product(others)
            sv = functools.reduce(operator.or_, per_target)
            xv = self.cols[self.network.p + v - 1]
            nv = self.ones ^ xv
            table = self._xpair[v] = (xv, nv, xv & sv, nv & sv)
        return table


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
        wires = good.levels()[level]
        return wires[j1 - 1] ^ wires[j2 - 1]
    if kind is not FaultKind.X_PAIR:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")
    (xi, ni, ui, di), (xj, nj, uj, dj) = good.xpair(ids[0]), good.xpair(ids[1])
    if polarity is Polarity.WIRED_OR:
        return di & xj | dj & xi
    return ui & nj | uj & ni


def _pack(network: AndExorNetwork, rows: Sequence[str], dc_policy: str) -> _Good:
    """The ``_Good`` of a row list, bit t of each column holding row t: with
    the rows joined last row first, column k is ``text[k::p + n]`` in binary.
    Rows must be p + n long and all 0 or 1 once filled (``int`` reads ``_``).
    The constant line is always 1: a d there reads as 1, and a 0 is refused."""
    p, n, aux = network.p, network.n, network.constant_line
    if set(map(len, rows)) - {p + n}:
        row = next(row for row in rows if len(row) != p + n)
        raise ValueError(f"pattern has {len(row)} symbols, expected {p + n} (p={p} then n={n})")
    text = "".join(reversed(rows))
    if aux is not None and "0" in text[p + aux - 1 :: p + n]:
        raise ValueError(f"0 on the constant line x{aux}, which is always 1")
    text = text.translate(fill_table(dc_policy))
    if text.translate(_BITS):
        raise ValueError(f"bad pattern symbol {sorted(set(text) - set('01'))!r}")
    cols = [int(text[k :: p + n] or "0", 2) for k in range(p + n)]
    ones = (1 << len(rows)) - 1
    if aux is not None:
        cols[p + aux - 1] = ones  # a d there, whatever the fill
    return _Good(network, cols, ones)


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
    good = _pack(network, [row], dc_policy)
    _check_lines(network, fault)
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
# a verdict's method, by (status code, is ExorInternal); other verdicts have none
METHODS = {(DETECTED, False): "simulation", (DETECTED, True): "stimulation",
           (REDUNDANT, False): "exhaustive", (REDUNDANT, True): "constant-line"}


class Evaluation:
    """Per-fault verdicts of one test set, indexed like the ``FaultList``.

    A verdict is its code into ``STATUSES`` (bytearray ``status``) and its
    first detecting pattern index (``first``, None when there is none); the
    method follows from the status and the fault class (``METHODS``).  A
    reader finds the entries of one verdict by index, for example with
    ``status.find(UNDETECTED, k)``; ``verdicts`` builds the
    ``FaultVerdict`` list on each read.
    """

    def __init__(self, faults: FaultList) -> None:
        self.faults = faults
        self.masks: list[int] = []  # ExorInternal stimulation masks, gate by gate
        self.status = bytearray(len(faults))
        self.first: list[int | None] = [None] * len(faults)

    @property
    def verdicts(self) -> list[FaultVerdict]:
        return [
            FaultVerdict(fault, STATUSES[s], first, METHODS.get((s, k < self.faults.d)))
            for k, (fault, s, first) in enumerate(zip(self.faults, self.status, self.first))
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

    The rows are packed into columns, bit t holding row t, and every
    verdict is read off one ``_Good``'s tables, as ``_fault_difference``
    reads them.  A detected fault records the first detecting pattern
    index; ExorInternal records the index at which its stimulation mask
    became full.  The ``FaultList`` is graded a class block at a time
    (``FaultList.blocks``), so no ``BridgingFault`` is built.  An APair or
    IntraLevel pair changes the outputs by the XOR of its two nets whatever
    its polarity, so one ``^`` decides both entries.  ``faults`` must be
    the fault list of ``network``: one of another network is refused.
    """
    if faults.network != network:
        raise ValueError("the fault list belongs to another network")
    good = _pack(network, rows, dc_policy)
    ones, levels = good.ones, good.levels()
    a = good.ands

    # ExorInternal, entry k for gate k + 1.  Bit 2*left + right of a gate's
    # mask is set once its EXOR has seen that input pair; a full mask
    # completes at the latest first sighting of the four.
    ev = Evaluation(faults)
    status, first = ev.status, ev.first
    for k, (sup, target, right, before) in enumerate(
            zip(network.gate_supports, network.gate_targets, a, levels)):
        left = before[target - 1]
        seen = (ones ^ (left | right), right & ~left, left & ~right, left & right)
        ev.masks.append(sum(1 << b for b, col in enumerate(seen) if col))
        if network.constant_line is not None and sup <= {network.constant_line}:
            # The AND value is pinned, so two of the four combinations can
            # never be applied: the obligation is unsatisfiable by design.
            status[k] = REDUNDANT
        elif all(seen):
            status[k], first[k] = DETECTED, max((col & -col).bit_length() - 1 for col in seen)
    k = network.d
    for kind, lines, block_levels in faults.blocks():
        if kind is FaultKind.X_PAIR:
            # the two entries of _fault_difference's XPair read, per pair
            for (xi, ni, ui, di), (xj, nj, uj, dj) in itertools.combinations(
                    map(good.xpair, lines), 2):
                for diff in (ui & nj | uj & ni, di & xj | dj & xi):  # WiredAnd, WiredOr
                    if diff:
                        status[k], first[k] = DETECTED, (diff & -diff).bit_length() - 1
                    k += 1
            continue
        for level in block_levels:  # every wire of the level, or every AND output
            for u, w in itertools.combinations(a if level is None else levels[level], 2):
                if diff := u ^ w:
                    status[k] = status[k + 1] = DETECTED
                    first[k] = first[k + 1] = (diff & -diff).bit_length() - 1
                k += 2
    return ev
