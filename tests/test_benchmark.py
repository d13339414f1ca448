"""Built-in benchmark and its shipped reference tables."""

import os
import subprocess
import sys
from pathlib import Path

from bridgetest import benchmark_circuit, expand_network, tabulated_discrepancies
from bridgetest.benchmark import (
    REFERENCE_PARITY_ROWS,
    REFERENCE_RESTRICTED_PARITY_ROWS,
    REFERENCE_RESTRICTED_TERM_COUNTS,
    REFERENCE_T2_X,
    REFERENCE_T3_X,
    REFERENCE_TERM_COUNTS,
    derived_term_counts,
)


def test_text_matches_data_file(bench):
    built = benchmark_circuit()
    assert (built.n, built.p, built.gates) == (bench.n, bench.p, bench.gates)
    assert built.n == 7 and built.p == 3 and built.d == 19


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
    net = expand_network(bench)
    counts = derived_term_counts(net, range(1, 8))
    assert counts[(1, 1)] == (6, 0, 0)
    assert counts[(3, 3)] == (4, 2, 1)
    assert counts[(4, 7)] == (0, 2, 0)
    assert counts[(7, 7)] == (0, 3, 2)
    sub = derived_term_counts(net, range(2, 8), zeros={1})
    assert sub[(2, 2)] == (2, 0, 0)
    assert sub[(7, 7)] == (0, 3, 2)


def test_discrepancy_list_is_frozen():
    # every cell where a shipped table disagrees with the circuit  [DERIVED]
    got = {
        (d["table"], d["cell"]): (d["reference"], d["derived"])
        for d in tabulated_discrepancies()
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
    assert len(tabulated_discrepancies()) == 20


def test_tables_load_no_pprm():
    # pytest has loaded bridgetest.pprm already, so ask a fresh interpreter
    code = ("import sys, bridgetest as b; b.tabulated_discrepancies();"
            " print('bridgetest.pprm' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


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
