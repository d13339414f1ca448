"""Report assembly and the three output renderers."""

import csv
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bridgetest import (
    assemble_union,
    check_bound,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    generate_sets,
)
from bridgetest.report import (
    REPORT_FORMATS,
    SCHEMA_VERSION,
    build_coverage_report,
    build_fault_report,
    build_generation_report,
    render_report,
    _detail,
    _json,
)


@pytest.fixture(scope="module")
def bench_union(bench):
    return assemble_union(generate_sets(expand_network(bench)).ordered_sets())


@pytest.fixture(scope="module")
def bench_report(bench, bench_union):
    net = expand_network(bench)
    faults = enumerate_faults(net)
    result = generate_sets(net)
    union = bench_union
    evaluation = evaluate_test_set(net, faults, union.test_set.rows)
    bound = check_bound(union, 7, 3)
    report = build_coverage_report(
        bench, net, faults, evaluation, result.ordered_sets(), union, bound,
        {"dc_policy": "fill-zero"}, timestamp=False,
    )
    return report


def test_verdict_detail_strings():
    assert _detail(None, None) == ""
    assert _detail("exhaustive", None) == "exhaustive"
    assert _detail("simulation", 4) == "simulation, pattern 5"


def test_coverage_report_shape(bench_report):
    report = bench_report
    assert list(report) == [
        "schema_version", "circuit", "config", "fault_counts",
        "test_sets", "union", "bound", "coverage", "exor_masks", "verdicts",
    ]
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["circuit"] == {
        "name": "bench7x3", "n": 7, "p": 3, "d": 19, "constant_line": None,
    }
    assert report["fault_counts"]["total"] == 523
    assert report["test_sets"]["T1"]["size"] == 4
    assert report["test_sets"]["T3"]["patterns"][0] == "ddd1101111"
    assert report["union"]["pre_dedup_size"] == 25
    assert report["bound"] == {
        "size": 25, "bound": 25, "passed": True,
        "construction_size": 25, "fallback_count": 0,
        "exceeds_construction": False,
    }
    # four oracle-redundant APairs are still "undetected" pre-fallback
    assert report["coverage"]["total"] == 523
    assert report["coverage"]["detected"] == 519
    assert report["coverage"]["undetected"] == 4
    assert report["exor_masks"]["g1"] == 0b1111
    verdicts = json.loads(render_report(report, "json"))["verdicts"]
    assert len(verdicts) == 523
    assert verdicts[0] == {
        "class": "ExorInternal", "line_a": "g1", "line_b": "",
        "polarity": "", "verdict": "Detected", "detail": "stimulation, pattern 4",
    }


def test_timestamp_toggle(bench, bench_report):
    net = expand_network(bench)
    faults = enumerate_faults(net)
    report = build_fault_report(bench, net, faults, {}, timestamp=True)
    assert list(report)[:2] == ["schema_version", "generated_at"]
    # ISO-8601 with explicit offset
    assert "T" in report["generated_at"] and "+00:00" in report["generated_at"]
    assert "generated_at" not in bench_report


def test_json_round_trip_and_stability(bench_report, bench_union):
    text = render_report(bench_report, "json")
    assert text.endswith("\n")
    loaded = json.loads(text)
    # the rows load as the csv rows do, the union's patterns as its rows and
    # origins, and the rest as the report holds it
    csv_rows = csv.DictReader(io.StringIO(render_report(bench_report, "csv")))
    assert loaded.pop("verdicts") == list(csv_rows)
    union_rows = zip(bench_union.test_set.rows, bench_union.origins, strict=True)
    assert loaded["union"].pop("patterns") == [
        {"pattern": row, "origin": origin} for row, origin in union_rows
    ]
    expected = {key: value for key, value in bench_report.items() if key != "verdicts"}
    expected["union"] = {k: v for k, v in expected["union"].items() if k != "patterns"}
    assert loaded == expected
    assert render_report(bench_report, "json") == text


class _Unreadable:
    def __getattr__(self, name):
        raise AssertionError(f"read {name!r} of the union rows")


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_csv_and_text_never_read_the_union_rows(bench_report, fmt):
    report = {**bench_report, "union": {**bench_report["union"], "patterns": _Unreadable()}}
    assert render_report(report, fmt) == render_report(bench_report, fmt)
    with pytest.raises(AssertionError, match="of the union rows"):
        render_report(report, "json")


def _json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    return st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)), max_leaves=20)


@given(_json_values())
@example({"": [], "é\"\\\n\x00\u2028": {}, "k": (True, False, None, -1, 0.1, 1e100, -0.0)})
@example(["\ud800", "\U0001f600", [[{}]], ()])
def test_json_emitter_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


def test_csv_verdicts(bench_report):
    text = render_report(bench_report, "csv")
    lines = text.splitlines()
    assert lines[0] == "class,line_a,line_b,polarity,verdict,detail"
    assert len(lines) == 1 + 523
    assert lines[1] == 'ExorInternal,g1,,,Detected,"stimulation, pattern 4"'


def test_csv_faults(bench):
    net = expand_network(bench)
    report = build_fault_report(bench, net, enumerate_faults(net), {}, timestamp=False)
    text = render_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "class,line_a,line_b,polarity"
    assert lines[1] == "ExorInternal,g1,,"
    assert lines[20] == "XPair,x1,x2,WiredAnd"
    assert len(lines) == 1 + 523


def test_csv_needs_rows(bench, bench_report):
    net = expand_network(bench)
    result = generate_sets(net)
    union = assemble_union(result.ordered_sets())
    gen = build_generation_report(
        bench, net, result.ordered_sets(), union, check_bound(union, 7, 3),
        {}, timestamp=False,
    )
    with pytest.raises(ValueError, match="no row section"):
        render_report(gen, "csv")


def test_text_rendering(bench_report):
    text = render_report(bench_report, "text")
    assert "circuit: bench7x3  n=7  p=3  d=19" in text
    assert "faults: 523 (ExorInternal 19, XPair 42, IntraLevel 120, APair 342)" in text
    assert "sets: T1 4, T2 6, T3 6, T4 2, T5 7" in text
    assert "union: 25 patterns (pre-dedup 25, fallback 0)" in text
    assert "bound: 25 ≤ 25 (pass)" in text
    assert "coverage: 519/523 testable detected (99.24%)" in text
    # only the four undetected APairs get per-fault lines
    verdict_lines = [l for l in text.splitlines() if l.startswith("  ")]
    assert len(verdict_lines) == 4
    assert verdict_lines[0] == "  undetected: APair a9 a13 WiredAnd"


def test_text_bound_fail_and_fallback_note(bench, bench_report):
    net = expand_network(bench)
    result = generate_sets(net)
    union = assemble_union(result.ordered_sets(), ["0001111111"])
    gen = build_generation_report(
        bench, net, result.ordered_sets(), union, check_bound(union, 7, 3),
        {}, timestamp=False,
    )
    text = render_report(gen, "text")
    assert "bound: 26 ≤ 25 (FAIL)" in text
    assert "note: 1 fallback pattern(s) beyond the construction" in text


def test_generation_report_has_no_verdicts(bench):
    net = expand_network(bench)
    result = generate_sets(net)
    union = assemble_union(result.ordered_sets())
    gen = build_generation_report(
        bench, net, result.ordered_sets(), union, check_bound(union, 7, 3),
        {"sets": "T1,T2,T3,T4,T5"}, timestamp=False,
    )
    assert list(gen) == ["schema_version", "circuit", "config", "test_sets", "union", "bound"]
    assert gen["config"] == {"sets": "T1,T2,T3,T4,T5"}


def test_out_of_model_block(bench):
    net = expand_network(bench)
    faults = enumerate_faults(net, record_out_of_model=True)
    report = build_fault_report(bench, net, faults, {}, timestamp=False)
    assert report["out_of_model"] == {
        "x-a": 266, "x-w": 840, "a-w": 2280, "total": 3386,
    }
    text = render_report(report, "text")
    assert "out of model: 3386 (x-a 266, x-w 840, a-w 2280)" in text


def test_unknown_format(bench_report):
    assert REPORT_FORMATS == ("json", "csv", "text")
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(bench_report, "yaml")
