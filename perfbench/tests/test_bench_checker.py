import itertools
import json
from pathlib import Path

import pytest

import checker
from bridgetest import cli

DATA = Path(__file__).resolve().parents[2] / "tests" / "data"
CIRCUITS = ["and2.rev", "bench7x3.rev"]


def run_cli(args, tmp_path):
    out = tmp_path / "out"
    code = cli.main([*args, "--out", str(out)])
    return code, out.read_bytes()


def netlist(name):
    return checker.read_netlist((DATA / name).read_text())


def verify_json(name, tmp_path):
    return run_cli(["verify", str(DATA / name), "--format", "json", "--no-timestamp"],
                   tmp_path)


@pytest.mark.parametrize("name", CIRCUITS)
def test_verify_report_passes(name, tmp_path):
    code, report = verify_json(name, tmp_path)
    result = checker.check_verify_json(netlist(name), report, code)
    assert result.errors == []
    assert result.faults == json.loads(report)["fault_counts"]["total"]
    assert result.detected + result.redundant == result.faults


@pytest.mark.parametrize("name", CIRCUITS)
def test_atpg_then_simulate_passes(name, tmp_path):
    code, tests = run_cli(["atpg", str(DATA / name), "--fallback"], tmp_path)
    atpg = checker.check_atpg_text(netlist(name), tests, code)
    assert atpg.errors == [] and atpg.undetected == 0
    test_file = tmp_path / "t.tests"
    test_file.write_bytes(tests)
    code, report = run_cli(["simulate", str(DATA / name), "--tests", str(test_file),
                            "--format", "csv"], tmp_path)
    sim = checker.check_simulate_csv(netlist(name), report, tests.decode(), code)
    assert sim.errors == []
    assert (sim.detected, sim.redundant) == (atpg.detected, atpg.redundant)


def _mutate(report, change):
    doc = json.loads(report)
    change(doc)
    return json.dumps(doc).encode()


def _first(doc, verdict, kind=None):
    return next(r for r in doc["verdicts"]
                if r["verdict"] == verdict and kind in (None, r["class"]))


def test_disproves_a_wrong_cited_pattern(tmp_path):
    code, report = verify_json("bench7x3.rev", tmp_path)
    net = netlist("bench7x3.rev")
    grader = checker.Grader(net, [r["pattern"] for r in json.loads(report)["union"]["patterns"]])
    row = _first(json.loads(report), "Detected", "APair")
    fault = checker.parse_fault(row["class"], row["line_a"], row["line_b"], row["polarity"])
    miss = next(k for k in range(len(grader.patterns)) if not grader.detects(fault, k))

    def cite_miss(doc):
        _first(doc, "Detected", "APair")["detail"] = f"simulation, pattern {miss + 1}"

    result = checker.check_verify_json(net, _mutate(report, cite_miss), code)
    assert any("cited pattern does not detect" in e for e in result.errors)


def test_disproves_a_false_redundancy_and_a_false_miss(tmp_path):
    code, report = verify_json("bench7x3.rev", tmp_path)

    def false_redundant(doc):
        row = _first(doc, "Detected", "XPair")
        row["verdict"], row["detail"] = "Redundant", "exhaustive"
        doc["coverage"]["detected"] -= 1
        doc["coverage"]["redundant"] += 1

    def false_miss(doc):
        row = _first(doc, "Detected", "IntraLevel")
        row["verdict"], row["detail"] = "Undetected", ""
        doc["coverage"]["detected"] -= 1
        doc["coverage"]["undetected"] += 1

    net = netlist("bench7x3.rev")
    redundant = checker.check_verify_json(net, _mutate(report, false_redundant), code)
    assert [e for e in redundant.errors if "a detecting assignment exists" in e]
    missed = checker.check_verify_json(net, _mutate(report, false_miss), 1)
    assert [e for e in missed.errors if "detects it" in e]


def test_checks_exit_code_and_counts(tmp_path):
    code, report = verify_json("and2.rev", tmp_path)
    net = netlist("and2.rev")
    assert checker.check_verify_json(net, report, code).errors == []
    assert any("exit code" in e for e in checker.check_verify_json(net, report, 4).errors)

    def miscount(doc):
        doc["coverage"]["detected"] += 1

    assert any("coverage block" in e
               for e in checker.check_verify_json(net, _mutate(report, miscount), code).errors)


def test_atpg_output_missing_a_needed_pattern_fails(tmp_path):
    code, tests = run_cli(["atpg", str(DATA / "bench7x3.rev"), "--fallback"], tmp_path)
    lines = tests.decode().splitlines()
    kept = [ln for ln in lines if ln.startswith("#")] + [
        ln for ln in lines if not ln.startswith("#")][:3]
    result = checker.check_atpg_text(netlist("bench7x3.rev"), "\n".join(kept).encode(), code)
    assert any("no pattern detects it" in e for e in result.errors)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 6])
def test_input_columns_enumerate_assignments(width):
    cols = [checker._input_column(width - 1 - k, width) for k in range(width)]
    for v in range(1 << width):
        bits = format(v, f"0{width}b")
        assert [(col >> v) & 1 for col in cols] == [int(b) for b in bits]


def test_truth_table_redundancy_matches_scalar_enumeration():
    net = checker.Netlist(3, 2, ((1, 2), (1, 2), (3,), (3,)), (1, 2, 1, 1), constant_line=3)
    patterns = ["".join(bits) for bits in itertools.product("01", repeat=net.width)]
    patterns = [pat for pat in patterns if pat[-1] == "1"]  # constant line held at 1
    grader = checker.Grader(net, patterns)
    verdicts = {}
    for fault in checker.fault_universe(net):
        if fault[0] == checker.EXOR_INTERNAL:
            continue
        assert grader.is_redundant(fault) == (grader.first_detect(fault) is None), fault
        verdicts[fault] = grader.is_redundant(fault)
    assert verdicts[(checker.A_PAIR, (1, 2), checker.WIRED_AND)]  # equal supports
    assert verdicts[(checker.A_PAIR, (3, 4), checker.WIRED_OR)]  # both on the constant
    assert not verdicts[(checker.A_PAIR, (1, 3), checker.WIRED_AND)]
