"""Built-in 7-input, 3-output benchmark circuit with reference tables.

The circuit realizes

    f1 = x1 + x2 + x4 + x5 + x1x2 + x1x2x3 + x1x5 + x2x6 + x3x4 + x3x5
         + x1x2x4 + x1x2x3x4x5
    f2 = x3x4 + x4x7 + x5x6x7 + x3x4x5x6x7
    f3 = x6x7 + x5x6x7 + x3x4x5

(+ meaning EXOR) as nineteen gates in the term order written above.

The REFERENCE_* constants are the hand-tabulated companion tables shipped
with this benchmark: term counts and the parity matrix for the function,
the same pair for the subfunction restricted at x1 = 0, and worked T2/T3
sets.  A few tabulated cells disagree with what the circuit itself gives;
recomputed values are authoritative, and `tabulated_discrepancies` lists
every cell where the two differ so the reference data can still be checked
against mechanically.
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

from .atpg import _parity_rows
from .circuit import AndExorNetwork, parse_circuit

__all__ = [
    "BENCHMARK_TEXT",
    "benchmark_circuit",
    "REFERENCE_TERM_COUNTS",
    "REFERENCE_RESTRICTED_TERM_COUNTS",
    "REFERENCE_PARITY_ROWS",
    "REFERENCE_RESTRICTED_PARITY_ROWS",
    "REFERENCE_T2_X",
    "REFERENCE_T3_X",
    "derived_term_counts",
    "tabulated_discrepancies",
]

BENCHMARK_TEXT = """\
# 7-input, 3-output AND-EXOR benchmark (19 gates)
.n 7
.p 3
.gate c1 : x1
.gate c1 : x2
.gate c1 : x4
.gate c1 : x5
.gate c1 : x1 x2
.gate c1 : x1 x2 x3
.gate c1 : x1 x5
.gate c1 : x2 x6
.gate c1 : x3 x4
.gate c1 : x3 x5
.gate c1 : x1 x2 x4
.gate c1 : x1 x2 x3 x4 x5
.gate c2 : x3 x4
.gate c2 : x4 x7
.gate c2 : x5 x6 x7
.gate c2 : x3 x4 x5 x6 x7
.gate c3 : x6 x7
.gate c3 : x5 x6 x7
.gate c3 : x3 x4 x5
.end
"""


def benchmark_circuit() -> AndExorNetwork:
    return parse_circuit(BENCHMARK_TEXT, name="bench7x3")


# Tabulated per-output counts of AND terms containing x_i (diagonal) or
# both x_i and x_j.  Keys are (i, j) with i <= j; values are (f1, f2, f3).
REFERENCE_TERM_COUNTS: Mapping[tuple[int, int], tuple[int, int, int]] = {
    (1, 1): (6, 0, 0), (1, 2): (4, 0, 0), (1, 3): (2, 0, 0),
    (1, 4): (2, 0, 0), (1, 5): (2, 0, 0), (1, 6): (0, 0, 0),
    (1, 7): (0, 0, 0),
    (2, 2): (6, 0, 0), (2, 3): (2, 0, 0), (2, 4): (2, 0, 0),
    (2, 5): (1, 0, 0), (2, 6): (0, 0, 0), (2, 7): (0, 0, 0),
    (3, 3): (4, 2, 1), (3, 4): (2, 2, 1), (3, 5): (2, 1, 1),
    (3, 6): (0, 1, 0), (3, 7): (0, 1, 0),
    (4, 4): (4, 3, 1), (4, 5): (1, 1, 0), (4, 6): (0, 1, 0),
    (4, 7): (0, 2, 0),
    (5, 5): (3, 2, 2), (5, 6): (0, 2, 1), (5, 7): (0, 2, 1),
    (6, 6): (0, 2, 2), (6, 7): (0, 2, 2),
    (7, 7): (0, 3, 2),
}

# Same table for the subfunction with x1 held at 0 (variables x2..x7).
REFERENCE_RESTRICTED_TERM_COUNTS: Mapping[tuple[int, int], tuple[int, int, int]] = {
    (2, 2): (1, 0, 0), (2, 3): (0, 0, 0), (2, 4): (0, 0, 0),
    (2, 5): (0, 0, 0), (2, 6): (0, 0, 0), (2, 7): (0, 0, 0),
    (3, 3): (0, 2, 1), (3, 4): (0, 2, 1), (3, 5): (0, 1, 1),
    (3, 6): (0, 1, 0), (3, 7): (0, 1, 0),
    (4, 4): (1, 3, 1), (4, 5): (0, 1, 1), (4, 6): (0, 1, 0),
    (4, 7): (0, 2, 0),
    (5, 5): (1, 2, 2), (5, 6): (0, 2, 1), (5, 7): (0, 2, 1),
    (6, 6): (0, 2, 2), (6, 7): (0, 2, 2),
    (7, 7): (0, 3, 2),
}

# Tabulated parity matrix, rows x1..x7 over columns x1..x7.  Kept exactly
# as tabulated, including its one asymmetric pair of entries.
REFERENCE_PARITY_ROWS: tuple[str, ...] = (
    "0000000",
    "0000110",
    "0011111",
    "0011110",
    "0111111",
    "0011100",
    "0010101",
)

# Tabulated parity matrix of the x1 = 0 subfunction, rows/columns x2..x7.
REFERENCE_RESTRICTED_PARITY_ROWS: tuple[str, ...] = (
    "100000",
    "011111",
    "011110",
    "011111",
    "011100",
    "010101",
)

# Worked x-parts of the wired-AND set (c lines don't care).
REFERENCE_T2_X: tuple[str, ...] = (
    "1000000",
    "0100000",
    "0001000",
    "0000100",
    "0011000",
    "0001001",
)

# Worked x-parts of the wired-OR set.
REFERENCE_T3_X: tuple[str, ...] = (
    "1101111",
    "1110111",
    "1111011",
    "1111110",
    "1111001",
    "0011111",
)


def derived_term_counts(
    network: AndExorNetwork, variables: Sequence[int], zeros: Collection[int] = frozenset()
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per cell (i, j), i <= j, and per target: the gates whose support holds
    x_i and x_j and misses ``zeros`` (the target's AND terms, ``zeros`` at 0)."""
    kept = [(sup, target) for sup, target in zip(network.gate_supports, network.gate_targets)
            if sup.isdisjoint(zeros)]
    return {
        (i, j): tuple(sum(target == k and i in sup and j in sup for sup, target in kept)
                      for k in range(1, network.p + 1))
        for a, i in enumerate(variables) for j in variables[a:]
    }


def tabulated_discrepancies() -> list[dict]:
    """Cells where the shipped tables disagree with the benchmark circuit.

    Each entry names the table, the cell, the tabulated value, and the
    recomputed one (the recomputed value is the one every generator in
    this package uses).
    """
    network = benchmark_circuit()

    def tabulated_bits(rows: Sequence[str], variables: range) -> dict:
        return {(i, j): int(b) for row, i in zip(rows, variables) for b, j in zip(row, variables)}

    def derived_bits(zeros: int, variables: range) -> dict:
        rows = _parity_rows(network, zeros)
        return {(i, j): rows.get(i, 0) >> j & 1 for i in variables for j in variables}

    # the restricted tables hold x1 at 0; a mask has bit v for x_v
    full, sub = range(1, 8), range(2, 8)
    tables = (
        ("term-counts", REFERENCE_TERM_COUNTS, derived_term_counts(network, full)),
        ("restricted-term-counts", REFERENCE_RESTRICTED_TERM_COUNTS,
         derived_term_counts(network, sub, zeros={1})),
        ("parity", tabulated_bits(REFERENCE_PARITY_ROWS, full), derived_bits(0, full)),
        ("restricted-parity", tabulated_bits(REFERENCE_RESTRICTED_PARITY_ROWS, sub),
         derived_bits(1 << 1, sub)),
    )
    return [
        {"table": table, "cell": cell, "reference": reference, "derived": derived[cell]}
        for table, tabulated, derived in tables
        for cell, reference in sorted(tabulated.items())
        if derived[cell] != reference
    ]
