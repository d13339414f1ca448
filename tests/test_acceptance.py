"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 3 and 4 share one 100-circuit random sweep.
"""

import json
import random
import time

import pytest
from conftest import evaluation_missing, random_circuit
from reference_sim import FULL_MASK, exor_stimulation_mask

from bridgetest import (
    AndExorNetwork,
    BridgingFault,
    FaultKind,
    Polarity,
    assemble_union,
    bridge_values,
    ceil_log2,
    detects,
    enumerate_faults,
    evaluate_test_set,
    exhaustive_detectability,
    expand_network,
    fallback_search,
    gen_cascade_pair_tests,
    generate_sets,
    parse_circuit,
    size_bound,
    tabulated_discrepancies,
)
from bridgetest.atpg import _parity_rows
from bridgetest.benchmark import REFERENCE_PARITY_ROWS, REFERENCE_T2_X, REFERENCE_T3_X
from bridgetest.cli import main
from bridgetest.simulate import DETECTED

AND = Polarity.WIRED_AND
OR = Polarity.WIRED_OR

SWEEP_SEED = 20260816
SWEEP_SIZE = 100


def _ok(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# criterion 1: fixture test sets


def test_criterion_1_fixture_sets(bench):
    start = time.perf_counter()
    net = expand_network(bench)
    result = generate_sets(net)
    sets = result.sets

    # T1, T4, T5 must reproduce the worked tables byte for byte,
    # don't-care symbols included
    assert sets["T1"] == [
        "0000000000", "0001111111", "1110000000", "1111111111",
    ]
    assert sets["T4"] == ["1100000000", "1010000000"]
    assert sets["T5"] == [
        "ddd0111111", "ddd1011111", "ddd1101111", "ddd1110111",
        "ddd1111011", "ddd1111101", "ddd1111110",
    ]

    # T2 and T3 must hit their documented sizes and cover all 21 pairs of
    # their polarity, confirmed by fault simulation
    assert len(sets["T2"]) == 6
    assert len(sets["T3"]) == 6
    for i in range(1, 8):
        for j in range(i + 1, 8):
            assert any(
                detects(net, BridgingFault.x_pair(i, j, AND), row)
                for row in sets["T2"]
            ), f"wired-AND pair ({i},{j}) missed by T2"
            assert any(
                detects(net, BridgingFault.x_pair(i, j, OR), row)
                for row in sets["T3"]
            ), f"wired-OR pair ({i},{j}) missed by T3"

    union = assemble_union(result.sets)
    bound = size_bound(net)
    assert union.pre_dedup_size == 25
    assert bound == 3 * 7 + ceil_log2(3) + 2 == 25
    assert union.pre_dedup_size <= bound

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture generation took {elapsed:.2f}s"

    t2_match = [row[3:] for row in sets["T2"]] == list(REFERENCE_T2_X)
    t3_match = [row[3:] for row in sets["T3"]] == list(REFERENCE_T3_X)
    _ok(
        "criterion 1: PASS - sets sized 4/6/6/2/7, T1/T4/T5 byte-identical,"
        " T2 covers 21 wired-AND and T3 covers 21 wired-OR pairs,"
        f" union 25 = bound 25, {elapsed:.2f}s"
        f" (worked-table match: T2 {t2_match}, T3 {t3_match})"
    )


# ---------------------------------------------------------------------------
# criterion 2: parity-matrix fidelity


def test_criterion_2_parity_fidelity(bench):
    rows = _parity_rows(expand_network(bench), 0)

    def entry(i: int, j: int) -> int:
        return rows.get(i, 0) >> j & 1

    # independent oracle straight off the gate list, no product-term layer
    per_target: dict[int, list[frozenset]] = {1: [], 2: [], 3: []}
    for support, target in zip(bench.gate_supports, bench.gate_targets):
        per_target[target].append(support)

    def oracle_bit(i: int, j: int) -> int:
        need = {i, j}
        return (
            1
            if any(
                sum(1 for controls in terms if need <= controls) % 2
                for terms in per_target.values()
            )
            else 0
        )

    for i in range(1, 8):
        for j in range(1, 8):
            assert entry(i, j) == oracle_bit(i, j), (i, j)

    # agreement cells
    assert entry(3, 3) == 1
    assert entry(4, 4) == 1
    assert entry(7, 7) == 1
    assert entry(1, 2) == 0
    assert entry(2, 6) == 1

    # known-discrepant cells: recomputed value wins, tabulated value is
    # flagged in the discrepancy notes
    assert entry(5, 5) == 0
    assert int(REFERENCE_PARITY_ROWS[4][4]) == 1
    noted = {
        (d["table"], d["cell"]): (d["reference"], d["derived"])
        for d in tabulated_discrepancies()
    }
    assert noted[("parity", (5, 5))] == (1, 0)
    assert ("parity", (6, 6)) in noted and ("parity", (6, 2)) in noted

    _ok(
        "criterion 2: PASS - parity matrix equals the gate-list oracle on all"
        " 49 cells; p33=p44=p77=1, p12=0, p26=1; discrepant cells"
        " (5,5), (6,2), (6,6) recomputed and listed"
    )


# ---------------------------------------------------------------------------
# criteria 3 and 4: shared random sweep


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(SWEEP_SEED)
    start = time.perf_counter()
    stats = {
        "circuits": 0,
        "faults_checked": 0,
        "coverage_misses": [],
        "unconfirmed_redundant": [],
        "unresolved": [],
        "mask_violations": [],
        "bound_violations": [],
        "no_fallback_circuits": 0,
    }
    for idx in range(SWEEP_SIZE):
        circuit = random_circuit(rng, idx)
        net = expand_network(circuit)
        faults = enumerate_faults(net)
        result = generate_sets(net)
        sets = result.sets

        base = assemble_union(sets)
        first = evaluate_test_set(net, faults, base.rows)
        fb = fallback_search(first)
        union = assemble_union(sets, fb.patterns)
        final = evaluate_test_set(net, faults, union.rows)

        if fb.unresolved:
            stats["unresolved"].append((circuit.name, [faults[k] for k in fb.unresolved]))

        redundant = set(fb.redundant)
        for k, fault in enumerate(faults):
            if fault.kind is FaultKind.EXOR_INTERNAL:
                continue
            stats["faults_checked"] += 1
            oracle = exhaustive_detectability(net, fault)
            if oracle.detectable and final.status[k] != DETECTED:
                stats["coverage_misses"].append((circuit.name, fault))
            if k in redundant and oracle.detectable:
                stats["unconfirmed_redundant"].append((circuit.name, fault))

        masks = exor_stimulation_mask(net, result.sets["T1"])
        if masks != [FULL_MASK] * net.d:
            stats["mask_violations"].append(circuit.name)

        if not fb.patterns:
            stats["no_fallback_circuits"] += 1
            bound = size_bound(net)
            if union.pre_dedup_size > bound:
                stats["bound_violations"].append((circuit.name, union.pre_dedup_size, bound))
        stats["circuits"] += 1

    stats["elapsed"] = time.perf_counter() - start
    return stats


def test_criterion_3_random_coverage(sweep):
    assert sweep["circuits"] >= 100
    assert sweep["coverage_misses"] == []
    assert sweep["unconfirmed_redundant"] == []
    assert sweep["unresolved"] == []
    assert sweep["mask_violations"] == []
    assert sweep["elapsed"] < 60.0, f"sweep took {sweep['elapsed']:.1f}s"
    _ok(
        f"criterion 3: PASS - {sweep['circuits']} random circuits,"
        f" {sweep['faults_checked']} bridging faults oracle-checked, zero"
        " coverage misses, all redundancy verdicts confirmed, T1 masks full,"
        f" {sweep['elapsed']:.1f}s"
    )


def test_criterion_4_size_bound(sweep):
    assert sweep["bound_violations"] == []
    assert sweep["no_fallback_circuits"] > 0
    _ok(
        f"criterion 4: PASS - {sweep['no_fallback_circuits']} of"
        f" {sweep['circuits']} circuits needed no fallback and every one"
        " stayed within 3n + ceil(log2 p) + 2"
    )


# ---------------------------------------------------------------------------
# criterion 5: wired-bridge semantics


def test_criterion_5_bridge_semantics():
    table = [
        (0, 0, AND, (0, 0)), (0, 1, AND, (0, 0)),
        (1, 0, AND, (0, 0)), (1, 1, AND, (1, 1)),
        (0, 0, OR, (0, 0)), (0, 1, OR, (1, 1)),
        (1, 0, OR, (1, 1)), (1, 1, OR, (1, 1)),
    ]
    for v1, v2, pol, expect in table:
        assert bridge_values(v1, v2, pol) == expect, (v1, v2, pol)
        b1, b2 = bridge_values(v1, v2, pol)
        flips = (b1 != v1) + (b2 != v2)
        assert flips == (0 if v1 == v2 else 1), (v1, v2, pol)
    _ok(
        "criterion 5: PASS - all 8 wired-AND/OR rows exact, single-flip"
        " property holds in all 8 cases"
    )


# ---------------------------------------------------------------------------
# criterion 6: T4 column distinctness


def test_criterion_6_t4_distinctness():
    for p in range(1, 65):
        rows = gen_cascade_pair_tests(AndExorNetwork(1, p, (), ()))
        assert len(rows) == ceil_log2(p)
        codes = [tuple(row[j] for row in rows) for j in range(p)]
        assert len(set(codes)) == p, f"duplicate column code at p={p}"
        for a in range(p):
            for b in range(a + 1, p):
                assert any(row[a] != row[b] for row in rows)
    assert gen_cascade_pair_tests(AndExorNetwork(1, 3, (), ())) == ["1100", "1010"]
    _ok(
        "criterion 6: PASS - pairwise-distinct column codes for p = 1..64,"
        " every c pair driven opposite somewhere, p=3 gives {110, 101}"
    )


# ---------------------------------------------------------------------------
# criterion 7: determinism


def test_criterion_7_determinism(tmp_path, bench_path):
    outs = []
    for name, jobs in (("r1.json", "1"), ("r2.json", "1"), ("r4.json", "4")):
        out = tmp_path / name
        code = main([
            "verify", str(bench_path), "-f", "json", "--no-timestamp",
            "-o", str(out), "--jobs", jobs,
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    _ok(
        "criterion 7: PASS - verify output byte-identical across repeat runs"
        " and across --jobs 1/4"
    )


# ---------------------------------------------------------------------------
# criterion 8: redundancy proof on the 2-input AND fixture


def test_criterion_8_redundancy(tmp_path, and2_path, capsys):
    out = tmp_path / "and2.json"
    code = main([
        "verify", str(and2_path), "-f", "json", "--no-timestamp", "-o", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    rows = {
        (r["class"], r["line_a"], r["line_b"], r["polarity"]): r
        for r in report["verdicts"]
    }
    row = rows[("XPair", "x1", "x2", "WiredAnd")]
    assert row["verdict"] == "Redundant"
    assert row["detail"] == "exhaustive"
    assert report["coverage"]["undetected"] == 0
    assert report["coverage"]["unresolved"] == 0

    # same verdict straight from the library, to pin the proving route
    net = expand_network(parse_circuit(and2_path.read_text()))
    fault = BridgingFault.x_pair(1, 2, AND)
    assert not exhaustive_detectability(net, fault).detectable
    ev = evaluation_missing(net, [fault])
    fb = fallback_search(ev)
    assert [ev.faults[k] for k in fb.redundant] == [fault] and fb.patterns == []
    _ok(
        "criterion 8: PASS - (x1,x2) wired-AND reported Redundant with an"
        " exhaustive proof and verify exits 0"
    )
