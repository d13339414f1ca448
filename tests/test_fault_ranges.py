"""The indexed fault universe, its per-pair grading and the template rows,
against the eager references they replaced.

``FaultList`` is arithmetic over class ranges; ``eager_faults`` builds every
fault up front.  Grading reads an APair or IntraLevel pair once for both
polarities and an XPair once per polarity; ``reference_grade`` walks one
fault and one pattern at a time.  Report rows come from one template;
``reference_render`` encodes one dict per row.
"""

import json
import random
from collections import defaultdict

import pytest
from conftest import DATA, random_circuit, random_rows, with_zero_control
from reference_report import dict_rows, eager_faults, reference_render
from reference_sim import reference_grade

from bridgetest import (
    DC_POLICIES,
    SET_NAMES,
    FaultKind,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    generate_sets,
    normalize_zero_controls,
    parse_circuit,
    parse_test_file,
    size_bound,
)
from bridgetest.cli import RunConfig, run_pipeline
from bridgetest.report import (
    REPORT_FORMATS,
    build_coverage_report,
    build_fault_report,
    render_report,
)


def _circuits(seed, count):
    rng = random.Random(seed)
    for index in range(count):
        circuit = random_circuit(rng, index, max_n=6, max_p=4, max_d=9, width_cap=10)
        yield rng, with_zero_control(circuit, rng) if index % 2 else circuit


@pytest.mark.parametrize("include_aux", (False, True))
@pytest.mark.parametrize("out_of_model", (False, True))
def test_fault_list_matches_eager_enumeration(include_aux, out_of_model):
    circuits = [circuit for _, circuit in _circuits(11, 12)]
    circuits.append(parse_circuit(".n 1\n.p 1\n.end\n"))  # no gates, no pairs
    for circuit in circuits:
        net = expand_network(circuit)
        faults = enumerate_faults(net, include_aux=include_aux, record_out_of_model=out_of_model)
        eager, counts, oom = eager_faults(
            net, include_aux=include_aux, record_out_of_model=out_of_model
        )
        assert len(faults) == len(eager)
        assert list(faults) == list(eager)
        assert [faults[k] for k in range(len(faults))] == list(eager)
        assert [faults[-k] for k in range(1, len(faults) + 1)] == list(eager[::-1])
        assert faults.counts == counts
        assert faults.out_of_model == oom
        for outside in (len(faults), -len(faults) - 1):
            with pytest.raises(IndexError):
                faults[outside]
        # a slice is a list, as the eager enumeration gave; other indices
        # must be integers
        for cut in (slice(None, None, 2), slice(1, -1), slice(None, None, -3), slice(5, 2)):
            assert faults[cut] == list(eager)[cut]
        for index in ("1", 1.0, None):
            with pytest.raises(TypeError):
                faults[index]


# one 300-line block each: XPair over 300 inputs, IntraLevel over 300
# target lines, APair over 300 gates
_WIDE_TEXTS = (
    ".n 300\n.p 1\n.gate c1 : x1\n.end\n",
    ".n 1\n.p 300\n.end\n",
    ".n 1\n.p 1\n" + ".gate c1 : x1\n" * 300 + ".end\n",
)


@pytest.mark.parametrize("text", _WIDE_TEXTS, ids=("XPair", "IntraLevel", "APair"))
def test_fault_list_indexing_on_a_wide_block(text):
    faults = enumerate_faults(expand_network(parse_circuit(text)))
    assert len(faults) >= 300 * 299
    assert [faults[k] for k in range(len(faults))] == list(faults)


@pytest.mark.parametrize("seed", range(3))
def test_grading_matches_scalar_reference(seed):
    split_xpairs = 0  # XPairs whose two polarities are first detected apart
    for rng, circuit in _circuits(seed, 8):
        net = expand_network(circuit)
        faults = enumerate_faults(net, include_aux=True)
        rows = random_rows(rng, net, rng.randint(0, 40))
        verdicts, masks = reference_grade(net, list(faults), rows)
        ev = evaluate_test_set(net, faults, rows)
        assert ev.verdicts == verdicts
        assert ev.masks == masks
        for status in ("detected", "undetected", "redundant", "unresolved"):
            assert ev.count(status) == sum(v.status == status for v in verdicts)
        xpairs = [v for v in verdicts if v.fault.kind is FaultKind.X_PAIR]
        split_xpairs += sum(
            and_.pattern_index != or_.pattern_index for and_, or_ in zip(xpairs[::2], xpairs[1::2])
        )
    assert split_xpairs > 0


# x3 and x4 drive no gate (every bridge between them is redundant), gates 1
# and 2 share a support (APair a1 a2 is redundant), and gate 4's 0-control
# puts it on a constant-one line x5
_REDUNDANT_TEXT = """.n 4
.p 2
.gate c1 : x1 x2
.gate c2 : x1 x2
.gate c1 : x1
.gate c2 :
.end
"""


@pytest.mark.parametrize("include_aux", (False, True))
@pytest.mark.parametrize("dc_policy", DC_POLICIES)
def test_grading_edge_cases_match_scalar_reference(include_aux, dc_policy):
    rng = random.Random(include_aux)
    outcomes = defaultdict(set)  # statuses seen per fault class
    texts = (_REDUNDANT_TEXT, (DATA / "rand5z.rev").read_text())
    for text in texts:
        circuit = normalize_zero_controls(parse_circuit(text, allow_zero_controls=True))
        net = expand_network(circuit)
        assert net.constant_line is not None
        faults = enumerate_faults(net, include_aux=include_aux)
        for count in (0, 1, 16):
            rows = random_rows(rng, net, count)
            verdicts, masks = reference_grade(net, list(faults), rows, dc_policy)
            ev = evaluate_test_set(net, faults, rows, dc_policy)
            assert ev.verdicts == verdicts, (net.n, include_aux, dc_policy, count)
            assert ev.masks == masks
            for v in verdicts:
                outcomes[v.fault.kind].add(v.status)
    for kind in (FaultKind.X_PAIR, FaultKind.INTRA_LEVEL, FaultKind.A_PAIR):
        assert outcomes[kind] == {"detected", "undetected"}, kind
    assert outcomes[FaultKind.EXOR_INTERNAL] == {"detected", "undetected", "redundant"}


# (sets, fallback, oracle cap): repaired, classified only, and over the cap
_RUNS = ((SET_NAMES, True, 22), (("T1", "T4"), False, 22), (("T1", "T4"), True, 0))


def _test_file(rng, net, count):
    """A random {0,1,d} test file, with a comment, blank lines and spacing."""
    rows = [f"{row[: net.p]} {row[net.p :]}  # pattern {t + 1}"
            for t, row in enumerate(random_rows(rng, net, count))]
    return "# user patterns\n\n" + "\n".join(rows) + "\n"


def _assert_verdicts_render_like_reference(report, faults, evaluation, union):
    reference = dict_rows(report, faults, evaluation, union)
    assert json.loads(render_report(report, "json")) == reference
    for fmt in REPORT_FORMATS:
        assert render_report(report, fmt) == reference_render(reference, fmt)


# empty pair classes, whose row heads come from an empty combinations():
# no gates and one line each (no row at all), p = 1 (no IntraLevel pair),
# one gate (no APair), and a 0-control gate on a constant line x3
_EDGE_TEXTS = (
    ".n 1\n.p 1\n.end\n",
    ".n 3\n.p 1\n.gate c1 : x1 x2\n.gate c1 : x3\n.end\n",
    ".n 2\n.p 2\n.gate c2 : x1\n.end\n",
    ".n 2\n.p 2\n.gate c1 :\n.gate c2 : x1 x2\n.end\n",
)


def _render_circuits():
    yield from _circuits(5, 6)
    rng = random.Random(6)
    for text in _EDGE_TEXTS:
        yield rng, normalize_zero_controls(parse_circuit(text, allow_zero_controls=True))


def test_reports_match_reference_renderer():
    statuses, methods, shapes = set(), set(), set()
    for rng, circuit in _render_circuits():
        net = expand_network(circuit)
        for include_aux in (False, True):
            faults = enumerate_faults(net, include_aux=include_aux, record_out_of_model=True)
            shapes.add((net.p == 1, net.d <= 1, len(faults) == 0,
                        include_aux and net.constant_line is not None))
            report = build_fault_report(faults, {}, timestamp=False)
            reference = dict_rows(report, eager_faults(net, include_aux=include_aux)[0])
            assert json.loads(render_report(report, "json")) == reference
            for fmt in REPORT_FORMATS:
                assert render_report(report, fmt) == reference_render(reference, fmt)

            for names, fallback, cap in _RUNS:
                cfg = RunConfig("verify", names, oracle_cap=cap, fallback=fallback,
                                include_aux=include_aux)
                sets = generate_sets(net, names).sets
                run = run_pipeline(net, faults, sets, cfg)
                report = build_coverage_report(
                    run.evaluation, sets, run.union, size_bound(net), cfg.echo(),
                    timestamp=False,
                )
                _assert_verdicts_render_like_reference(report, faults, run.evaluation, run.union)
                statuses.update(v.status for v in run.evaluation.verdicts)

            # simulate-style: a user test file, graded without fallback
            for dc_policy in DC_POLICIES:
                text = _test_file(rng, net, rng.randint(0, 30))
                sets = {"User": parse_test_file(text, net)}
                cfg = RunConfig("simulate", dc_policy=dc_policy, fallback=False,
                                include_aux=include_aux)
                run = run_pipeline(net, faults, sets, cfg)
                report = build_coverage_report(
                    run.evaluation, sets, run.union, None, cfg.echo(),
                    timestamp=False,
                )
                _assert_verdicts_render_like_reference(report, faults, run.evaluation, run.union)
                methods.update(v.method for v in run.evaluation.verdicts)
    assert statuses == {"detected", "undetected", "redundant", "unresolved"}
    assert methods == {None, "simulation", "stimulation", "exhaustive", "constant-line"}
    # p = 1, d <= 1, no fault at all, and a constant line among the XPair lines
    assert all(map(any, zip(*shapes)))
