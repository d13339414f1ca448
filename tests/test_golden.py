"""Recorded reports, replayed byte for byte.

Each case runs one command line in-process, with ``--no-timestamp`` where
the subcommand takes it, and compares stdout and the exit code with the
file of the same name under ``tests/data/golden/``, then runs it again
with ``--out`` naming a file that already holds a longer text, which the
report must replace.  When an output change is intended, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from bridgetest.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# golden file name -> (exit code, argv with circuit and test files relative to DATA)
CASES = {
    "verify_bench7x3.json": (0, ["verify", "bench7x3.rev", "--format", "json"]),
    "verify_bench7x3.csv": (0, ["verify", "bench7x3.rev", "--format", "csv"]),
    "verify_bench7x3.txt": (0, ["verify", "bench7x3.rev", "--format", "text"]),
    "verify_and2.json": (0, ["verify", "and2.rev", "--format", "json"]),
    "verify_and2.csv": (0, ["verify", "and2.rev", "--format", "csv"]),
    "verify_and2.txt": (0, ["verify", "and2.rev", "--format", "text"]),
    "atpg_bench7x3.txt": (0, ["atpg", "bench7x3.rev"]),
    "atpg_bench7x3.json": (0, ["atpg", "bench7x3.rev", "--format", "json"]),
    # T2, T3 and T5 left out so the sets miss faults and fallback repairs them;
    # the 0-control gate adds a constant line and a constant-line verdict
    "atpg_rand5z_fallback.txt": (0, ["atpg", "rand5z.rev", "--fallback", "--sets", "T1,T4"]),
    "atpg_rand5z_cap0.txt": (
        0, ["atpg", "rand5z.rev", "--fallback", "--sets", "T1,T4", "--oracle-cap", "0"]
    ),
    "verify_rand5z.txt": (0, ["verify", "rand5z.rev", "--sets", "T1,T4"]),
    "simulate_bench7x3_user.csv": (
        1, ["simulate", "bench7x3.rev", "--tests", "bench7x3_user.tests", "--format", "csv"]
    ),
    # no other simulate case fills don't-cares with 1
    "simulate_bench7x3_user_fill_one.csv": (
        1, ["simulate", "bench7x3.rev", "--tests", "bench7x3_user.tests", "--format", "csv",
            "--dc-policy", "fill-one"]
    ),
    "simulate_bench7x3_empty.csv": (
        1, ["simulate", "bench7x3.rev", "--tests", "empty.tests", "--format", "csv"]
    ),
    "verify_bench7x3_fill_one.json": (
        0, ["verify", "bench7x3.rev", "--format", "json", "--dc-policy", "fill-one"]
    ),
    # above the cap the oracle's proof of the redundant bridge reads unresolved
    "verify_and2_cap2.txt": (4, ["verify", "and2.rev", "--oracle-cap", "2"]),
    # two idle inputs: T3 case (c) gives up on their block, and the oracle
    # proves their bridges redundant, so fallback adds no pattern
    "atpg_idle12_fallback.txt": (0, ["atpg", "idle12.rev", "--fallback"]),
    "verify_idle12.json": (0, ["verify", "idle12.rev", "--format", "json"]),
    # parity rows that cancel until an input is held at 0: only case (c) splits
    "atpg_cancel4_fallback.txt": (0, ["atpg", "cancel4.rev", "--fallback"]),
    "verify_cancel4.json": (0, ["verify", "cancel4.rev", "--format", "json"]),
    # dedup drops repeats across T3 and T5 while fallback appends patterns,
    # so the final union differs from the concatenation of its parts
    "verify_idle12_dedup.json": (
        0, ["verify", "idle12.rev", "--sets", "T3,T5", "--dedup", "--format", "json"]
    ),
    # misses are classified but not repaired: exit 1, and the constant line's
    # bridge is still proven redundant
    "verify_rand5z_nofallback.txt": (1, ["verify", "rand5z.rev", "--sets", "T1,T4", "--no-fallback"]),
    # the built-in benchmark: tabulated cells against recomputation, and the
    # generated T2/T3 x parts against the tabulated sets
    "bench.txt": (0, ["bench"]),
    "bench.json": (0, ["bench", "--format", "json"]),
    # the fault universe: class counts, the out-of-model tally, the constant
    # line paired in input bridges, and the csv rows
    "faults_bench7x3_oom.txt": (0, ["faults", "bench7x3.rev", "--out-of-model"]),
    "faults_rand5z_aux.json": (0, ["faults", "rand5z.rev", "--include-aux", "--format", "json"]),
    "faults_and2.csv": (0, ["faults", "and2.rev", "--format", "csv"]),
    # verdict row shapes: Unresolved rows above the cap, aux XPairs with
    # Redundant rows from both proof methods, Undetected rows with no
    # patterns, a user test file in text, and an empty verdict list
    "verify_and2_cap2.json": (4, ["verify", "and2.rev", "--oracle-cap", "2", "--format", "json"]),
    "verify_and2_cap2.csv": (4, ["verify", "and2.rev", "--oracle-cap", "2", "--format", "csv"]),
    "verify_rand5z_aux.csv": (0, ["verify", "rand5z.rev", "--include-aux", "--format", "csv"]),
    "simulate_bench7x3_empty.json": (
        1, ["simulate", "bench7x3.rev", "--tests", "empty.tests", "--format", "json"]
    ),
    "simulate_bench7x3_user.txt": (
        1, ["simulate", "bench7x3.rev", "--tests", "bench7x3_user.tests", "--format", "text"]
    ),
    "verify_empty1.json": (0, ["verify", "empty1.rev", "--format", "json"]),
    # a user file's test_sets and union pattern blocks
    "simulate_bench7x3_user.json": (
        1, ["simulate", "bench7x3.rev", "--tests", "bench7x3_user.tests", "--format", "json"]
    ),
    # rows written for the un-normalized width, padded with the constant 1;
    # comments, blank lines, tabs and spaces inside rows
    "simulate_rand5z_short.json": (
        1, ["simulate", "rand5z.rev", "--tests", "rand5z_short.tests", "--format", "json"]
    ),
    # dedup drops T5 rows that repeat T3 ones: the origin comments stay put
    "atpg_bench7x3_dedup.txt": (0, ["atpg", "bench7x3.rev", "--dedup"]),
    # a --sets list out of canonical order: the config echoes it as given,
    # while the test sets, the union and its origin comments run T2 then T5
    "verify_bench7x3_sets_T5T2.json": (
        0, ["verify", "bench7x3.rev", "--sets", "T5,T2", "--format", "json"]
    ),
    "atpg_bench7x3_sets_T5T2.txt": (0, ["atpg", "bench7x3.rev", "--sets", "T5,T2"]),
    # many misses above the cap: every repair row is the oracle's witness, as
    # below it, and only the proofs read unresolved
    "atpg_rand8x4_cap0.txt": (
        0, ["atpg", "rand8x4.rev", "--fallback", "--sets", "T1,T4", "--oracle-cap", "0"]
    ),
    "verify_rand8x4_cap0.txt": (
        4, ["verify", "rand8x4.rev", "--sets", "T1,T4", "--oracle-cap", "0", "--format", "text"]
    ),
    # hundreds of oracle witnesses and proofs: the repair order and the
    # redundant verdicts of both entries of a pair
    "atpg_rand24x8_fallback.txt": (
        0, ["atpg", "rand24x8.rev", "--fallback", "--sets", "T1,T4", "--oracle-cap", "1000"]
    ),
    # the json bound block of a union over the bound: passed false, and the
    # construction's 7 rows apart from the fallback's 212
    "atpg_rand24x8_fallback.json": (
        0, ["atpg", "rand24x8.rev", "--fallback", "--sets", "T1,T4", "--oracle-cap", "1000",
            "--format", "json"]
    ),
    "verify_rand24x8_cap1000.txt": (
        0, ["verify", "rand24x8.rev", "--sets", "T1,T4", "--oracle-cap", "1000", "--format", "text"]
    ),
    # the canonical text form: sorted controls, comments dropped, and a
    # 0-control gate moved onto the constant line that normalization appends
    "parse_bench7x3.txt": (0, ["parse", "bench7x3.rev"]),
    "parse_rand5z_normalize.txt": (0, ["parse", "rand5z.rev", "--normalize"]),
}

_FILE_SUFFIXES = (".rev", ".tests")


def _replay(argv: list[str]) -> tuple[int, str]:
    full = [str(DATA / a) if a.endswith(_FILE_SUFFIXES) else a for a in argv]
    if argv[0] != "parse":  # the one subcommand that writes no report
        full.append("--no-timestamp")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(full)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected_code, argv = CASES[name]
    code, text = _replay(argv)
    assert code == expected_code
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_through_out_over_a_longer_file(name, tmp_path):
    # --out writes over the old file in place: the report must come out
    # whole and the old file's longer tail cut off
    expected_code, argv = CASES[name]
    golden = (GOLDEN / name).read_bytes()
    path = tmp_path / name
    path.write_bytes(golden + b"junk\n" * (len(golden) // 5 + 1))
    code, text = _replay([*argv, "--out", str(path)])
    assert (code, text) == (expected_code, "")
    assert path.read_bytes() == golden


def test_every_golden_has_a_case():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (expected_code, argv) in sorted(CASES.items()):
        code, text = _replay(argv)
        (GOLDEN / name).write_text(text, encoding="utf-8")
        flag = "" if code == expected_code else f"  (exit {code}, table says {expected_code})"
        print(f"{name}: {len(text)} bytes{flag}")


if __name__ == "__main__":
    sys.exit(_record())
