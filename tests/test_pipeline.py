"""``run_pipeline`` against the sequence it replaced.

The reference below is the generate → grade → fallback → regrade sequence
the commands used to spell out: grade the base union, repair the misses
with ``reference_fallback`` (one ``detects`` call per repair pattern, no
proof cache), grade the whole final union again, then classify what
fallback proved.  The pipeline grades the final union again only when
fallback appended patterns, so the two must agree on every verdict,
pattern index, mask and union.
"""

import inspect
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgetest import (
    SET_NAMES,
    BridgingFault,
    FaultKind,
    assemble_union,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    fallback_search,
    format_circuit,
    generate_sets,
    normalize_zero_controls,
    parse_circuit,
    size_bound,
)
from bridgetest import atpg
from bridgetest.report import build_coverage_report, build_fault_report
from bridgetest.cli import RunConfig, run_pipeline
from bridgetest.simulate import (DEFAULT_ORACLE_CAP, REDUNDANT, UNDETECTED, UNRESOLVED,
                                 FaultVerdict)
from conftest import DATA, random_circuit, with_zero_control
from reference_sim import reference_fallback

SELECTIONS = (SET_NAMES, ("T1", "T4"), ("T3", "T5"), ("T4",))


def reference(network, sets, cfg):
    dc = cfg.dc_policy
    faults = enumerate_faults(network, include_aux=cfg.include_aux)
    base = assemble_union(sets, dc_policy=dc)
    first = evaluate_test_set(network, faults, base.rows, dc_policy=dc)
    missed = [faults[k] for k, status in enumerate(first.status) if status == UNDETECTED]
    fb = reference_fallback(network, missed, cfg.oracle_cap, not cfg.fallback)
    union = assemble_union(sets, fb.patterns, dedup=cfg.dedup, dc_policy=dc)
    final = evaluate_test_set(network, faults, union.rows, dc_policy=dc)
    verdicts = []
    for v in final.verdicts:
        if v.status == "undetected" and v.fault in fb.redundant:
            v = FaultVerdict(v.fault, "redundant", None, "exhaustive")
        elif v.status == "undetected" and v.fault in fb.unresolved:
            v = FaultVerdict(v.fault, "unresolved", None, None)
        verdicts.append(v)
    return verdicts, final.masks, union


def _circuits(count):
    rng = random.Random(4242)
    for index in range(count):
        circuit = random_circuit(rng, index, max_n=6, max_p=3, max_d=8, width_cap=9)
        yield with_zero_control(circuit, rng) if index % 2 else circuit


def test_pipeline_matches_reference_sequence():
    both = 0  # runs where dedup removed patterns and fallback appended some
    for index, circuit in enumerate(_circuits(5)):
        network = expand_network(circuit)
        dc = ("fill-zero", "fill-one")[index // 2 % 2]
        for names, dedup, fallback, cap in itertools.product(
            SELECTIONS, (False, True), (True, False), (DEFAULT_ORACLE_CAP, 0)
        ):
            cfg = RunConfig("verify", names, dc, cap, fallback, dedup)
            sets = generate_sets(network, names).sets
            verdicts, masks, union = reference(network, sets, cfg)
            run = run_pipeline(network, sets, cfg)
            label = (circuit.name, names, dedup, fallback, cap)
            assert run.evaluation.verdicts == verdicts, label
            assert run.evaluation.masks == masks, label
            assert run.union == union, label
            both += union.removed > 0 and union.fallback_count > 0
    assert both >= 5


def test_oracle_cap_only_relabels_proofs():
    # the oracle is exact at any width, so the cap only decides whether a
    # proof reads redundant or unresolved: cap 0 and cap n + p give the same
    # union, first detections and masks, and statuses that differ only
    # there, in both fallback modes, with and without dedup, in both fills,
    # with a constant line and with its faults enumerated
    seen = dict.fromkeys(("relabelled", "repaired", "constant line"), 0)
    for index, circuit in enumerate(_circuits(40)):
        network = expand_network(circuit)
        width = network.n + network.p
        dc = ("fill-zero", "fill-one")[index // 2 % 2]
        for names, dedup, fallback, aux in itertools.product(
            SELECTIONS, (False, True), (True, False), (False, True)
        ):
            sets = generate_sets(network, names).sets
            wide, exact = (run_pipeline(network, sets,
                                        RunConfig("verify", names, dc, cap, fallback, dedup, aux))
                           for cap in (0, width))
            label = (circuit.name, names, dedup, fallback, aux)
            assert wide.union == exact.union, label
            assert wide.evaluation.first == exact.evaluation.first, label
            assert wide.evaluation.masks == exact.evaluation.masks, label
            assert UNRESOLVED not in exact.evaluation.status, label
            assert wide.evaluation.status.replace(bytes([UNRESOLVED]), bytes([REDUNDANT])) \
                == exact.evaluation.status, label
            seen["relabelled"] += UNRESOLVED in wide.evaluation.status
            seen["repaired"] += exact.union.fallback_count > 0
            seen["constant line"] += network.constant_line is not None
    assert all(count >= 100 for count in seen.values()), seen


def test_one_fault_object_per_oracle_call(monkeypatch):
    # fallback decodes its misses by index: the only BridgingFault a repair
    # run builds is the one handed to the oracle
    circuit = parse_circuit((DATA / "rand8x4.rev").read_text())
    network = expand_network(circuit)
    cfg = RunConfig("atpg", ("T1", "T4"))
    sets = generate_sets(network, cfg.sets).sets
    built, calls = [], []
    new, oracle = BridgingFault.__new__, atpg.exhaustive_detectability
    monkeypatch.setattr(BridgingFault, "__new__",
                        lambda cls, *args, **kw: built.append(new(cls, *args, **kw)) or built[-1])
    monkeypatch.setattr(atpg, "exhaustive_detectability",
                        lambda net, f: calls.append(f) or oracle(net, f))
    run = run_pipeline(network, sets, cfg)
    assert run.union.fallback_count and len(calls) > 10
    assert built == calls


@pytest.mark.parametrize("include_aux", [False, True])
def test_pipeline_enumerates_the_faults_of_its_config(include_aux):
    # run_pipeline grades the network's own fault list, with the constant
    # line's XPair entries exactly when the config includes them
    text = ".n 2\n.p 2\n.gate c1 :\n.gate c2 : x1 x2\n.gate c1 : x2\n.end\n"
    network = expand_network(normalize_zero_controls(parse_circuit(text, allow_zero_controls=True)))
    assert network.constant_line == 3
    cfg = RunConfig("verify", include_aux=include_aux)
    run = run_pipeline(network, generate_sets(network).sets, cfg)
    faults, expected = run.evaluation.faults, enumerate_faults(network, include_aux=include_aux)
    assert faults.network is network
    assert (faults.blocks(), len(faults)) == (expected.blocks(), len(expected))
    aux = [f for f in faults if f.kind is FaultKind.X_PAIR and network.constant_line in f.ids]
    assert len(aux) == (4 if include_aux else 0)


def test_fault_list_of_another_network_refused():
    # a fault list carries its network; graded against another one, its
    # indices would be read in the other network's layout
    text_a = ".n 3\n.p 2\n.gate c1 : x1 x2\n.gate c2 : x3\n.end\n"
    a = expand_network(parse_circuit(text_a))
    b = expand_network(parse_circuit(
        ".n 3\n.p 1\n.gate c1 : x1 x2\n.gate c1 : x3\n.gate c1 : x2\n.end\n"))
    for network, faults, rows in ((b, enumerate_faults(a), ["0111", "1010"]),
                                  (a, enumerate_faults(b), ["00111", "01010"])):
        with pytest.raises(ValueError, match="^the fault list belongs to another network$"):
            evaluate_test_set(network, faults, rows)
    # the same circuit expanded again is the same network
    again = expand_network(parse_circuit(text_a))
    assert again is not a
    assert evaluate_test_set(again, enumerate_faults(a), ["00111"]).faults.network is a
    # the stages handed a fault list, or an evaluation, read the network off it
    for stage in (fallback_search, build_coverage_report, build_fault_report):
        assert "network" not in inspect.signature(stage).parameters, stage.__name__


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_five_sets_detect_every_detectable_fault_within_the_bound(seed, zero_control):
    # The paper's theorem: T1-T5 detect every detectable single bridging
    # fault with at most 3n + ceil(log2 p) + 2 patterns.  With the oracle
    # cap at the width, every miss is proved redundant, so fallback
    # appends nothing.
    rng = random.Random(seed)
    circuit = random_circuit(rng, seed)
    if zero_control:
        circuit = with_zero_control(circuit, rng)
    network = expand_network(circuit)
    cfg = RunConfig("verify", oracle_cap=network.n + network.p)
    sets = generate_sets(network).sets
    run = run_pipeline(network, sets, cfg)
    label = format_circuit(circuit)
    assert run.union.fallback_count == 0, label
    bound = 3 * len(network.real_inputs()) + (network.p - 1).bit_length() + 2
    assert len(run.union.rows) <= run.union.pre_dedup_size <= bound == size_bound(network), label
    assert run.evaluation.count("undetected") == run.evaluation.count("unresolved") == 0, label
