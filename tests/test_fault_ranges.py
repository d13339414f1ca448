"""The indexed fault universe, its per-pair grading and the template rows,
against the eager references they replaced.

``FaultList`` is arithmetic over class ranges; ``eager_faults`` builds every
fault up front.  Grading reads an APair or IntraLevel pair once for both
polarities and an XPair once per polarity; ``reference_grade`` walks one
fault and one pattern at a time.  Report rows come from one template;
``reference_render`` encodes one dict per row.
"""

import random

import pytest
from conftest import random_circuit, with_zero_control
from reference_report import dict_rows, eager_faults, reference_render
from reference_sim import reference_grade

from bridgetest import (
    DC_POLICIES,
    SET_NAMES,
    FaultKind,
    TestPattern,
    TestSet,
    derive_pprm,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    generate_sets,
    parse_circuit,
    parse_test_file,
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


def _patterns(rng, net, count):
    rows = ["".join(rng.choice("01d") for _ in range(net.p + net.n)) for _ in range(count)]
    return [TestPattern(row[: net.p], row[net.p :]) for row in rows]


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


@pytest.mark.parametrize("seed", range(3))
def test_grading_matches_scalar_reference(seed):
    split_xpairs = 0  # XPairs whose two polarities are first detected apart
    for rng, circuit in _circuits(seed, 8):
        net = expand_network(circuit)
        faults = enumerate_faults(net, include_aux=True)
        patterns = _patterns(rng, net, rng.randint(0, 40))
        verdicts, masks = reference_grade(net, list(faults), patterns)
        for graded in (faults, list(faults)):  # one grading loop serves both
            ev = evaluate_test_set(net, graded, patterns)
            assert ev.verdicts == verdicts
            assert ev.masks == masks
            for status in ("detected", "undetected", "redundant", "unresolved"):
                marked = [v.fault for v in verdicts if v.status == status]
                assert ev.count(status) == len(marked)
                assert ev.faults_with(status) == marked
        xpairs = [v for v in verdicts if v.fault.kind is FaultKind.X_PAIR]
        split_xpairs += sum(
            and_.pattern_index != or_.pattern_index for and_, or_ in zip(xpairs[::2], xpairs[1::2])
        )
    assert split_xpairs > 0


# (sets, fallback, oracle cap): repaired, classified only, and over the cap
_RUNS = ((SET_NAMES, True, 22), (("T1", "T4"), False, 22), (("T1", "T4"), True, 0))


def _test_file(rng, net, count):
    """A random {0,1,d} test file, with a comment, blank lines and spacing."""
    rows = ["".join(rng.choice("01d") for _ in range(net.p + net.n)) for _ in range(count)]
    rows = [f"{row[: net.p]} {row[net.p :]}  # pattern {t + 1}" for t, row in enumerate(rows)]
    return "# user patterns\n\n" + "\n".join(rows) + "\n"


def _assert_verdicts_render_like_reference(report, faults, evaluation):
    reference = dict_rows(report, faults, evaluation)
    rows = report["verdicts"]
    assert rows == reference["verdicts"]
    assert [rows[k] for k in range(len(rows))] == reference["verdicts"]
    for fmt in REPORT_FORMATS:
        assert render_report(report, fmt) == reference_render(reference, fmt)


def test_reports_match_reference_renderer():
    statuses, methods = set(), set()
    for rng, circuit in _circuits(5, 6):
        net = expand_network(circuit)
        pprms = derive_pprm(circuit)
        for include_aux in (False, True):
            faults = enumerate_faults(net, include_aux=include_aux, record_out_of_model=True)
            report = build_fault_report(circuit, net, faults, {}, timestamp=False)
            reference = dict_rows(report, eager_faults(net, include_aux=include_aux)[0])
            assert report["faults"] == reference["faults"]
            for fmt in REPORT_FORMATS:
                assert render_report(report, fmt) == reference_render(reference, fmt)

            for names, fallback, cap in _RUNS:
                cfg = RunConfig("verify", names, oracle_cap=cap, fallback=fallback,
                                include_aux=include_aux)
                sets = generate_sets(pprms, net, names).ordered_sets()
                run = run_pipeline(net, faults, sets, cfg)
                report = build_coverage_report(
                    circuit, net, faults, run.evaluation, sets, run.union, run.bound,
                    cfg.echo(), timestamp=False,
                )
                _assert_verdicts_render_like_reference(report, faults, run.evaluation)
                statuses.update(v.status for v in run.evaluation.verdicts)

            # simulate-style: a user test file, graded without fallback
            for dc_policy in DC_POLICIES:
                text = _test_file(rng, net, rng.randint(0, 30))
                sets = [TestSet("User", parse_test_file(text, net.n, net.p))]
                cfg = RunConfig("simulate", dc_policy=dc_policy, fallback=False,
                                include_aux=include_aux)
                run = run_pipeline(net, faults, sets, cfg)
                report = build_coverage_report(
                    circuit, net, faults, run.evaluation, sets, run.union, None,
                    cfg.echo(), timestamp=False,
                )
                _assert_verdicts_render_like_reference(report, faults, run.evaluation)
                methods.update(v.method for v in run.evaluation.verdicts)
    assert statuses == {"detected", "undetected", "redundant", "unresolved"}
    assert methods == {None, "simulation", "stimulation", "exhaustive", "constant-line"}
