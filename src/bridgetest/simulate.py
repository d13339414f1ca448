"""Bit-accurate good and faulty evaluation, stimulation masks, and the
exhaustive detectability oracle.

One evaluator, ``_columns``, walks the netlist over integer columns: bit t
of a column is a net's value under assignment t.  Coverage grading packs
the whole pattern list into columns, single-pattern queries use one-bit
columns, and the oracle uses the truth-table columns of all 2^(n+p) full
assignments.  The first detecting assignment is the lowest set bit of the
output difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    "OracleCapExceeded",
    "OracleResult",
    "exhaustive_detectability",
    "FaultVerdict",
    "Evaluation",
    "evaluate_test_set",
]

FULL_MASK = 0b1111
DEFAULT_ORACLE_CAP = 22
MAX_ORACLE_CAP = 24  # a width-24 truth-table column takes 2 MiB


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
) -> tuple[list[int], list[int], Iterator[tuple[int, ...]]]:
    """Evaluate the netlist on columns, with ``fault`` injected if given.

    Bit t of every column is a net's value under assignment t, and ``ones``
    has a bit set for each assignment.  Returns the x and AND-output
    columns and an iterator over the cascade: the p target-line columns at
    each level 0..d, the last being the outputs.  The cascade is produced
    level by level, so a caller that only reads the outputs never holds
    the earlier levels.
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

    def cascade() -> Iterator[tuple[int, ...]]:
        w = list(c_cols)
        for level in range(network.d + 1):
            if level:
                w[network.gate_targets[level - 1] - 1] ^= a[level - 1]
            if intra and fault.ids[0] == level:
                _, j1, j2 = fault.ids
                w[j1 - 1], w[j2 - 1] = bridge_values(w[j1 - 1], w[j2 - 1], fault.polarity)
            yield tuple(w)

    return x, a, cascade()


def _outputs(
    network: AndExorNetwork,
    c_cols: Sequence[int],
    x_cols: Sequence[int],
    ones: int,
    fault: BridgingFault | None,
) -> tuple[int, ...]:
    """Output columns; each earlier cascade level is dropped as it passes."""
    for w in _columns(network, c_cols, x_cols, ones, fault)[2]:
        pass
    return w


def _difference(good: Sequence[int], faulty: Sequence[int]) -> int:
    """Assignments under which some output differs."""
    diff = 0
    for g, f in zip(good, faulty):
        diff |= g ^ f
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
    history = list(levels)
    cascade = tuple(tuple(level[j] for level in history) for j in range(network.p))
    return SimulationResult(history[-1], tuple(x_vals), tuple(a), cascade)


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
    """True when the pattern distinguishes faulty outputs from good outputs."""
    c, x = _resolved_bits(network, pattern, dc_policy)
    return _outputs(network, c, x, 1, None) != _outputs(network, c, x, 1, fault)


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


class OracleCapExceeded(RuntimeError):
    """The exhaustive oracle refuses inputs wider than its cap."""


@dataclass(frozen=True)
class OracleResult:
    status: str  # "detectable" or "redundant"
    witness: TestPattern | None = None

    @property
    def detectable(self) -> bool:
        return self.status == "detectable"


def _input_column(pos_from_left: int, width: int) -> int:
    # Truth-table column of one input over all 2^width assignments, built by
    # doubling.  Assignment v is bit v; the leftmost pattern symbol is the
    # most significant bit of v, so smaller v means lexicographically
    # smaller pattern.
    bit = width - 1 - pos_from_left
    run = 1 << bit
    col = ((1 << run) - 1) << run
    span = run << 1
    total = 1 << width
    while span < total:
        col |= col << span
        span <<= 1
    return col


def exhaustive_detectability(
    network: AndExorNetwork,
    fault: BridgingFault,
    cap: int = DEFAULT_ORACLE_CAP,
) -> OracleResult:
    """Try every full assignment; first detecting pattern in lexicographic order.

    Assignments are ordered with the c bits most significant, matching the
    pattern string layout.  A constant-one line is pinned: assignments that
    drive it to 0 are never counted as witnesses.  Raises OracleCapExceeded
    when n + p exceeds ``cap``; callers must surface that, not skip it.
    """
    if fault.kind is FaultKind.EXOR_INTERNAL:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")
    width = network.n + network.p
    if width > cap:
        raise OracleCapExceeded(f"n + p = {width} exceeds oracle cap {cap}")

    c_cols = [_input_column(j, width) for j in range(network.p)]
    x_cols = [_input_column(network.p + i, width) for i in range(network.n)]
    ones = (1 << (1 << width)) - 1

    diff = _difference(
        _outputs(network, c_cols, x_cols, ones, None),
        _outputs(network, c_cols, x_cols, ones, fault),
    )
    if network.constant_line is not None:
        diff &= x_cols[network.constant_line - 1]
    if diff == 0:
        return OracleResult("redundant")

    bits = format(_lowest(diff), f"0{width}b")
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
    dc_policy: str = "fill-zero"

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
    c_cols, x_cols, ones = _pack(network, patterns, dc_policy)
    _, a, levels = _columns(network, c_cols, x_cols, ones, None)
    history = list(levels)
    good = history[-1]

    # Bit 2*left + right of a gate's mask is set once its EXOR has seen that
    # input pair; a full mask completes at the latest first sighting of the four.
    masks = []
    full_at: dict[int, int] = {}
    for gate_id, target in enumerate(network.gate_targets, start=1):
        left, right = history[gate_id - 1][target - 1], a[gate_id - 1]
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
        diff = _difference(good, _outputs(network, c_cols, x_cols, ones, fault))
        if diff:
            verdicts.append(FaultVerdict(fault, "detected", _lowest(diff), "simulation"))
        else:
            verdicts.append(FaultVerdict(fault, "undetected"))
    return Evaluation(verdicts, masks, dc_policy)
