"""``run_pipeline`` against the sequence it replaced.

The reference below is the generate → grade → fallback → regrade sequence
the commands used to spell out: grade the base union, repair the misses
with ``reference_fallback`` (one ``detects`` call per repair pattern, no
proof cache), grade the whole final union again, then classify what
fallback proved.  The pipeline grades the final union again only when
fallback appended patterns, so the two must agree on every verdict,
pattern index, mask, union and bound.
"""

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from bridgetest import (
    SET_NAMES,
    BridgingFault,
    assemble_union,
    check_bound,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    format_circuit,
    generate_sets,
    parse_circuit,
)
from bridgetest import atpg
from bridgetest.cli import RunConfig, run_pipeline
from bridgetest.simulate import DEFAULT_ORACLE_CAP, UNDETECTED, FaultVerdict
from conftest import DATA, random_circuit, with_zero_control
from reference_sim import reference_fallback

SELECTIONS = (SET_NAMES, ("T1", "T4"), ("T3", "T5"), ("T4",))


def reference(network, faults, sets, cfg):
    dc = cfg.dc_policy
    base = assemble_union(sets, dc_policy=dc)
    first = evaluate_test_set(network, faults, base.test_set.rows, dc_policy=dc)
    missed = [faults[k] for k, status in enumerate(first.status) if status == UNDETECTED]
    fb = reference_fallback(network, missed, cfg.oracle_cap, not cfg.fallback)
    union = assemble_union(sets, fb.patterns, dedup=cfg.dedup, dc_policy=dc)
    bound = check_bound(union, len(network.real_inputs()), network.p)
    final = evaluate_test_set(network, faults, union.test_set.rows, dc_policy=dc)
    verdicts = []
    for v in final.verdicts:
        if v.status == "undetected" and v.fault in fb.redundant:
            v = FaultVerdict(v.fault, "redundant", None, "exhaustive")
        elif v.status == "undetected" and v.fault in fb.unresolved:
            v = FaultVerdict(v.fault, "unresolved", None, None)
        verdicts.append(v)
    return verdicts, final.masks, union, bound


def _circuits(count):
    rng = random.Random(4242)
    for index in range(count):
        circuit = random_circuit(rng, index, max_n=6, max_p=3, max_d=8, width_cap=9)
        yield with_zero_control(circuit, rng) if index % 2 else circuit


def test_pipeline_matches_reference_sequence():
    both = 0  # runs where dedup removed patterns and fallback appended some
    for index, circuit in enumerate(_circuits(5)):
        network = expand_network(circuit)
        faults = enumerate_faults(network)
        dc = ("fill-zero", "fill-one")[index // 2 % 2]
        for names, dedup, fallback, cap in itertools.product(
            SELECTIONS, (False, True), (True, False), (DEFAULT_ORACLE_CAP, 0)
        ):
            cfg = RunConfig("verify", names, dc, cap, fallback, dedup)
            sets = generate_sets(network, names).ordered_sets()
            verdicts, masks, union, bound = reference(network, faults, sets, cfg)
            run = run_pipeline(network, faults, sets, cfg)
            label = (circuit.name, names, dedup, fallback, cap)
            assert run.evaluation.verdicts == verdicts, label
            assert run.evaluation.masks == masks, label
            assert run.union == union and run.bound == bound, label
            both += union.removed > 0 and union.fallback_count > 0
    assert both >= 5


def test_one_fault_object_per_oracle_call(monkeypatch):
    # fallback decodes its misses by index: the only BridgingFault a repair
    # run builds is the one handed to the oracle
    circuit = parse_circuit((DATA / "rand8x4.rev").read_text())
    network = expand_network(circuit)
    faults = enumerate_faults(network)
    cfg = RunConfig("atpg", ("T1", "T4"))
    sets = generate_sets(network, cfg.sets).ordered_sets()
    built, calls = [], []
    new, oracle = BridgingFault.__new__, atpg.exhaustive_detectability
    monkeypatch.setattr(BridgingFault, "__new__",
                        lambda cls, *args, **kw: built.append(new(cls, *args, **kw)) or built[-1])
    monkeypatch.setattr(atpg, "exhaustive_detectability",
                        lambda net, f: calls.append(f) or oracle(net, f))
    run = run_pipeline(network, faults, sets, cfg)
    assert run.fallback.patterns and len(calls) > 10
    assert built == calls


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
    sets = generate_sets(network).ordered_sets()
    run = run_pipeline(network, enumerate_faults(network), sets, cfg)
    label = format_circuit(circuit)
    assert run.union.fallback_count == 0, label
    bound = 3 * len(network.real_inputs()) + (network.p - 1).bit_length() + 2
    assert run.bound.passed and len(run.union.test_set) <= bound == run.bound.bound, label
    assert run.evaluation.count("undetected") == run.evaluation.count("unresolved") == 0, label
