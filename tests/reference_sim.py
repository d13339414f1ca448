"""Reference routes that differential tests compare the library against.

The scalar simulator walks one assignment at a time through the netlist.
The library evaluates bit-packed columns and reads each bridge's output
difference off the fault-free columns; the scalar walk, the column walk
with the bridge injected (``eval_good``, ``eval_faulty``,
``injected_difference``) and the injection-based oracle below are the
independent routes.  The library's
oracle reads the monomials of the output changes off the gate supports;
``truth_table_detectability`` runs the closed form of ``_fault_difference``
on the truth-table columns of every assignment instead.
The library packs rows by slicing one resolved string; ``resolve_bits``
and ``reference_pack`` split each row into its c and x parts, fill
don't-cares and set column bits one at a time.  The library's fallback
finds the misses by index in a graded evaluation, reads each once against
all repair rows, packed, and remembers the last oracle verdict;
``reference_fallback`` takes a list of missed faults, asks ``detects``
pattern by pattern, proves every fault again, builds each random draw as a
string and picks one by injection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from bridgetest import (
    OracleResult,
    AndExorNetwork,
    BridgingFault,
    FaultKind,
    FaultVerdict,
    bridge_values,
    detects,
    enumerate_faults,
    evaluate_test_set,
    exhaustive_detectability,
    gen_corner_set,
)
from bridgetest.simulate import _fault_difference, _Good

FULL_MASK = 0b1111


@dataclass(frozen=True)
class SimulationResult:
    """Values of every net after one evaluation."""

    outputs: tuple[int, ...]
    x_values: tuple[int, ...]
    a_values: tuple[int, ...]
    cascade: tuple[tuple[int, ...], ...]  # cascade[j-1][level]


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


def resolve_bits(
    network: AndExorNetwork, row: str, dc_policy: str = "fill-zero"
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The row's c and x bits, don't-cares filled one symbol at a time,
    except on the constant line: a d there is 1, and a 0 is refused."""
    fill = {"fill-zero": 0, "fill-one": 1}[dc_policy]
    c = tuple(fill if ch == "d" else int(ch) for ch in row[: network.p])
    x = [fill if ch == "d" else int(ch) for ch in row[network.p :]]
    aux = network.constant_line
    if aux is not None:
        if row[network.p + aux - 1] == "0":
            raise ValueError(f"0 on the constant line x{aux}")
        x[aux - 1] = 1
    return c, tuple(x)


def reference_pack(
    network: AndExorNetwork, rows: Sequence[str], dc_policy: str
) -> tuple[list[int], list[int], int]:
    """``_pack`` bit by bit: bit t of each column is row t's symbol."""
    c_cols, x_cols = [0] * network.p, [0] * network.n
    for t, row in enumerate(rows):
        c, x = resolve_bits(network, row, dc_policy)
        for cols, bits in ((c_cols, c), (x_cols, x)):
            for k, bit in enumerate(bits):
                cols[k] |= bit << t
    return c_cols, x_cols, (1 << len(rows)) - 1


def _single(
    network: AndExorNetwork,
    row: str,
    dc_policy: str,
    fault: BridgingFault | None,
) -> SimulationResult:
    if len(row) != network.p + network.n:
        raise ValueError("pattern dimension mismatch")
    c, x = resolve_bits(network, row, dc_policy)
    x_vals, a, levels = _columns(network, c, x, 1, fault)
    cascade = tuple(tuple(level[j] for level in levels) for j in range(network.p))
    return SimulationResult(levels[-1], tuple(x_vals), tuple(a), cascade)


def eval_good(
    network: AndExorNetwork, row: str, dc_policy: str = "fill-zero"
) -> SimulationResult:
    """Fault-free evaluation of one row."""
    return _single(network, row, dc_policy, None)


def eval_faulty(
    network: AndExorNetwork,
    fault: BridgingFault,
    row: str,
    dc_policy: str = "fill-zero",
) -> SimulationResult:
    """Evaluation with one injected bridge.

    ExorInternal is an exhaustive-stimulation obligation, not an injectable
    defect, so passing one here is a usage error.
    """
    if fault.kind is FaultKind.EXOR_INTERNAL:
        raise ValueError("ExorInternal faults are graded by stimulation masks, not injection")
    return _single(network, row, dc_policy, fault)


def exor_stimulation_mask(
    network: AndExorNetwork,
    rows: Iterable[str],
    dc_policy: str = "fill-zero",
) -> list[int]:
    """4-bit mask per gate of the (left,right) EXOR input combinations seen.

    Bit (2*left + right) is set when the combination occurred under some
    pattern.  A full mask (0b1111) discharges the gate's ExorInternal
    obligation.
    """
    return evaluate_test_set(network, enumerate_faults(network), list(rows), dc_policy).masks


def _simulate(
    network: AndExorNetwork,
    c_bits: Sequence[int],
    x_bits: Sequence[int],
    fault: BridgingFault | None,
) -> SimulationResult:
    x = list(x_bits)
    if fault is not None and fault.kind is FaultKind.X_PAIR:
        i, j = fault.ids
        x[i - 1], x[j - 1] = bridge_values(x[i - 1], x[j - 1], fault.polarity)

    a = [1 if all(x[v - 1] for v in sup) else 0 for sup in network.gate_supports]
    if fault is not None and fault.kind is FaultKind.A_PAIR:
        i, j = fault.ids
        a[i - 1], a[j - 1] = bridge_values(a[i - 1], a[j - 1], fault.polarity)

    intra = fault if fault is not None and fault.kind is FaultKind.INTRA_LEVEL else None
    w = list(c_bits)
    history = [tuple(w)]
    if intra is not None and intra.ids[0] == 0:
        _, j1, j2 = intra.ids
        w[j1 - 1], w[j2 - 1] = bridge_values(w[j1 - 1], w[j2 - 1], intra.polarity)
        history[0] = tuple(w)
    for gate_id, target in enumerate(network.gate_targets, start=1):
        w[target - 1] ^= a[gate_id - 1]
        if intra is not None and intra.ids[0] == gate_id:
            _, j1, j2 = intra.ids
            w[j1 - 1], w[j2 - 1] = bridge_values(w[j1 - 1], w[j2 - 1], intra.polarity)
        history.append(tuple(w))

    cascade = tuple(tuple(col[j] for col in history) for j in range(network.p))
    return SimulationResult(tuple(w), tuple(x), tuple(a), cascade)


def reference_grade(
    network: AndExorNetwork,
    faults: Sequence[BridgingFault],
    rows: Sequence[str],
    dc_policy: str = "fill-zero",
) -> tuple[list[FaultVerdict], list[int]]:
    """Verdicts and stimulation masks, one pattern and one fault at a time."""
    resolved = [resolve_bits(network, row, dc_policy) for row in rows]
    good_sims = [_simulate(network, c, x, None) for c, x in resolved]

    masks = [0] * network.d
    mask_full_at: dict[int, int] = {}
    for idx, sim in enumerate(good_sims):
        for gate_id, target in enumerate(network.gate_targets, start=1):
            if gate_id in mask_full_at:
                continue
            left = sim.cascade[target - 1][gate_id - 1]
            right = sim.a_values[gate_id - 1]
            masks[gate_id - 1] |= 1 << (left * 2 + right)
            if masks[gate_id - 1] == FULL_MASK:
                mask_full_at[gate_id] = idx

    verdicts = []
    for fault in faults:
        if fault.kind is FaultKind.EXOR_INTERNAL:
            gate_id = fault.ids[0]
            sup = network.gate_supports[gate_id - 1]
            if network.constant_line is not None and sup <= {network.constant_line}:
                verdicts.append(FaultVerdict(fault, "redundant", None, "constant-line"))
            elif gate_id in mask_full_at:
                verdicts.append(
                    FaultVerdict(fault, "detected", mask_full_at[gate_id], "stimulation")
                )
            else:
                verdicts.append(FaultVerdict(fault, "undetected"))
            continue
        first = next(
            (
                idx for idx, (c, x) in enumerate(resolved)
                if _simulate(network, c, x, fault).outputs != good_sims[idx].outputs
            ),
            None,
        )
        if first is None:
            verdicts.append(FaultVerdict(fault, "undetected"))
        else:
            verdicts.append(FaultVerdict(fault, "detected", first, "simulation"))
    return verdicts, masks


def reference_detects(network: AndExorNetwork, fault: BridgingFault, row: str) -> bool:
    c, x = resolve_bits(network, row)
    return _simulate(network, c, x, None).outputs != _simulate(network, c, x, fault).outputs


def _outputs(network, c_cols, x_cols, ones, fault):
    for w in _columns(network, c_cols, x_cols, ones, fault)[2]:
        pass
    return w


def injected_difference(
    network: AndExorNetwork,
    c_cols: Sequence[int],
    x_cols: Sequence[int],
    ones: int,
    fault: BridgingFault,
) -> int:
    """Assignments under which some output differs, by walking the netlist
    once fault-free and once with the bridge injected."""
    diff = 0
    for good, faulty in zip(
        _outputs(network, c_cols, x_cols, ones, None),
        _outputs(network, c_cols, x_cols, ones, fault),
    ):
        diff |= good ^ faulty
    return diff


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


class TruthColumns(dict):
    """Truth-table columns by position from the left, each built on first read."""

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, pos: int) -> int:
        col = self[pos] = _input_column(pos, self.width)
        return col


def _witness(network: AndExorNetwork, diff: int) -> OracleResult:
    """The lowest assignment in ``diff`` that holds a constant line at 1."""
    if network.constant_line is not None:
        diff &= _input_column(network.p + network.constant_line - 1, network.n + network.p)
    if diff == 0:
        return OracleResult("redundant")
    row = format((diff & -diff).bit_length() - 1, f"0{network.n + network.p}b")
    return OracleResult("detectable", row)


def reference_difference(network: AndExorNetwork, fault: BridgingFault) -> int:
    """The assignments, of all 2^(n+p), that hold a constant line at 1 and
    under which the injected bridge changes some output: bit v for the row
    ``format(v, "0{n+p}b")``."""
    width = network.n + network.p
    c_cols = [_input_column(j, width) for j in range(network.p)]
    x_cols = [_input_column(network.p + i, width) for i in range(network.n)]
    diff = injected_difference(network, c_cols, x_cols, (1 << (1 << width)) - 1, fault)
    if network.constant_line is not None:
        diff &= x_cols[network.constant_line - 1]
    return diff


def reference_oracle(network: AndExorNetwork, fault: BridgingFault) -> OracleResult:
    """The exhaustive oracle by injection over every truth-table column."""
    return _witness(network, reference_difference(network, fault))


def truth_table_detectability(network: AndExorNetwork, fault: BridgingFault) -> OracleResult:
    """The closed form on the truth-table columns of all 2^(n+p) assignments,
    built only where the fault reads them; the lowest detecting assignment
    is the witness."""
    width = network.n + network.p
    good = _Good(network, TruthColumns(width), (1 << (1 << width)) - 1)
    return _witness(network, _fault_difference(good, fault.kind, fault.ids, fault.polarity))


@dataclass
class ReferenceFallback:
    """``reference_fallback``'s result: repair rows, and the faults proved
    redundant or left unresolved, in the order they were met."""

    patterns: list[str] = field(default_factory=list)
    redundant: list[BridgingFault] = field(default_factory=list)
    unresolved: list[BridgingFault] = field(default_factory=list)


def reference_fallback(
    network: AndExorNetwork,
    faults: Sequence[BridgingFault],
    oracle_cap: int,
    classify_only: bool = False,
) -> ReferenceFallback:
    """``fallback_search`` over a list of misses, with no proof cache, one
    pattern at a time.

    Proving a pair's second polarity again changes nothing: it is either
    detected by the first polarity's witness or redundant like it.  Above
    ``oracle_cap`` the 512 draws of the ``idx``-th miss are strings, one
    ``rng.choice`` per line except the constant line, which stays 1, and
    the first draw the injected bridge changes is kept.
    """
    out = ReferenceFallback()
    corners_added = False
    for idx, fault in enumerate(faults):
        if fault.kind is FaultKind.EXOR_INTERNAL:
            if not classify_only and not corners_added:
                corners = gen_corner_set(network)
                out.patterns.extend(corners)
                corners_added = True
            continue
        if any(detects(network, fault, row) for row in out.patterns):
            continue
        if network.n + network.p <= oracle_cap:
            res = exhaustive_detectability(network, fault)
            if not res.detectable:
                out.redundant.append(fault)
            elif not classify_only:
                out.patterns.append(res.witness)
            continue
        diff = 0
        if not classify_only:
            rng = random.Random(271828 * 1000003 + idx)
            draws = [
                "".join(rng.choice("01") for _ in range(network.p))
                + "".join(
                    "1" if v == network.constant_line else rng.choice("01")
                    for v in range(1, network.n + 1)
                )
                for _ in range(512)
            ]
            diff = injected_difference(network, *reference_pack(network, draws, "fill-zero"), fault)
        if not diff:
            out.unresolved.append(fault)
        else:
            out.patterns.append(draws[(diff & -diff).bit_length() - 1])
    return out
