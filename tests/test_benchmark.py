"""Built-in benchmark and its shipped reference tables."""

from reference_t3 import restrict

from bridgetest import BENCHMARK_TEXT, benchmark_circuit, derive_pprm, tabulated_discrepancies
from bridgetest.benchmark import (
    REFERENCE_PARITY_ROWS,
    REFERENCE_RESTRICTED_PARITY_ROWS,
    REFERENCE_RESTRICTED_TERM_COUNTS,
    REFERENCE_T2_X,
    REFERENCE_T3_X,
    REFERENCE_TERM_COUNTS,
    derived_term_counts,
    is_benchmark,
)
from bridgetest.circuit import parse_circuit


def test_text_matches_data_file(bench):
    built = benchmark_circuit()
    assert is_benchmark(built)
    assert is_benchmark(bench)
    assert built.n == 7 and built.p == 3 and built.d == 19


def test_is_benchmark_rejects_variants(bench):
    assert not is_benchmark(parse_circuit(".n 2\n.p 1\n.gate c1 : x1 x2\n.end\n"))
    # same shape, one control moved
    text = BENCHMARK_TEXT.replace(".gate c1 : x2\n", ".gate c1 : x3\n", 1)
    assert not is_benchmark(parse_circuit(text))


def test_reference_tables_are_complete():
    # all pairs over x1..x7, and over x2..x7 for the restricted table
    assert set(REFERENCE_TERM_COUNTS) == {
        (i, j) for i in range(1, 8) for j in range(i, 8)
    }
    assert set(REFERENCE_RESTRICTED_TERM_COUNTS) == {
        (i, j) for i in range(2, 8) for j in range(i, 8)
    }
    assert len(REFERENCE_PARITY_ROWS) == 7
    assert all(len(row) == 7 for row in REFERENCE_PARITY_ROWS)
    assert len(REFERENCE_RESTRICTED_PARITY_ROWS) == 6
    assert len(REFERENCE_T2_X) == 6 and len(REFERENCE_T3_X) == 6


def test_derived_term_counts_spot_values(bench):
    pprms = derive_pprm(bench)
    counts = derived_term_counts(pprms, range(1, 8))
    assert counts[(1, 1)] == (6, 0, 0)
    assert counts[(3, 3)] == (4, 2, 1)
    assert counts[(4, 7)] == (0, 2, 0)
    assert counts[(7, 7)] == (0, 3, 2)
    sub = derived_term_counts([restrict(f, {1}) for f in pprms], range(2, 8))
    assert sub[(2, 2)] == (2, 0, 0)
    assert sub[(7, 7)] == (0, 3, 2)


def test_discrepancy_list_is_frozen(bench):
    # every cell where a shipped table disagrees with the circuit  [DERIVED]
    got = {
        (d["table"], d["cell"]): (d["reference"], d["derived"])
        for d in tabulated_discrepancies(bench)
    }
    assert got == {
        ("term-counts", (2, 6)): ((0, 0, 0), (1, 0, 0)),
        ("term-counts", (4, 5)): ((1, 1, 0), (1, 1, 1)),
        ("term-counts", (5, 5)): ((3, 2, 2), (4, 2, 2)),
        ("term-counts", (6, 6)): ((0, 2, 2), (1, 2, 2)),
        ("restricted-term-counts", (2, 2)): ((1, 0, 0), (2, 0, 0)),
        ("restricted-term-counts", (2, 6)): ((0, 0, 0), (1, 0, 0)),
        ("restricted-term-counts", (3, 3)): ((0, 2, 1), (2, 2, 1)),
        ("restricted-term-counts", (3, 4)): ((0, 2, 1), (1, 2, 1)),
        ("restricted-term-counts", (3, 5)): ((0, 1, 1), (1, 1, 1)),
        ("restricted-term-counts", (4, 4)): ((1, 3, 1), (2, 3, 1)),
        ("restricted-term-counts", (5, 5)): ((1, 2, 2), (2, 2, 2)),
        ("restricted-term-counts", (6, 6)): ((0, 2, 2), (1, 2, 2)),
        ("parity", (5, 5)): (1, 0),
        ("parity", (6, 2)): (0, 1),
        ("parity", (6, 6)): (0, 1),
        ("restricted-parity", (2, 2)): (1, 0),
        ("restricted-parity", (2, 6)): (0, 1),
        ("restricted-parity", (5, 5)): (1, 0),
        ("restricted-parity", (6, 2)): (0, 1),
        ("restricted-parity", (6, 6)): (0, 1),
    }
    assert len(tabulated_discrepancies(bench)) == 20


def test_discrepancies_empty_off_benchmark():
    other = parse_circuit(".n 2\n.p 1\n.gate c1 : x1 x2\n.end\n")
    assert tabulated_discrepancies(other) == []


def test_reference_parity_rows_keep_tabulated_asymmetry():
    # the shipped matrix is asymmetric at exactly (2,6)/(6,2); the derived
    # one is symmetric, which is part of why those cells are flagged
    r = REFERENCE_PARITY_ROWS
    asym = {
        (i + 1, j + 1)
        for i in range(7)
        for j in range(7)
        if r[i][j] != r[j][i]
    }
    assert asym == {(2, 6), (6, 2)}
