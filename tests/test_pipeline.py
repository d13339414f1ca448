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

from bridgetest import (
    SET_NAMES,
    assemble_union,
    check_bound,
    derive_pprm,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    generate_sets,
)
from bridgetest.cli import RunConfig, run_pipeline
from bridgetest.simulate import DEFAULT_ORACLE_CAP, FaultVerdict
from conftest import random_circuit, with_zero_control
from reference_sim import reference_fallback

SELECTIONS = (SET_NAMES, ("T1", "T4"), ("T3", "T5"), ("T4",))


def reference(network, faults, sets, cfg):
    dc = cfg.dc_policy
    base = assemble_union(sets, dc_policy=dc)
    first = evaluate_test_set(network, faults, list(base.test_set), dc_policy=dc)
    fb = reference_fallback(network, first.faults_with("undetected"), cfg.oracle_cap,
                            not cfg.fallback)
    union = assemble_union(sets, fb.patterns, dedup=cfg.dedup, dc_policy=dc)
    bound = check_bound(union, len(network.real_inputs()), network.p)
    final = evaluate_test_set(network, faults, list(union.test_set), dc_policy=dc)
    verdicts = []
    for v in final.verdicts:
        if v.status == "undetected" and v.fault in fb.redundant:
            v = FaultVerdict(v.fault, "redundant", None, fb.redundant[v.fault])
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
        pprms = derive_pprm(circuit)
        dc = ("fill-zero", "fill-one")[index // 2 % 2]
        for names, dedup, fallback, cap in itertools.product(
            SELECTIONS, (False, True), (True, False), (DEFAULT_ORACLE_CAP, 0)
        ):
            cfg = RunConfig("verify", names, dc, cap, fallback, dedup)
            sets = generate_sets(pprms, network, names).ordered_sets()
            verdicts, masks, union, bound = reference(network, faults, sets, cfg)
            run = run_pipeline(network, faults, sets, cfg)
            label = (circuit.name, names, dedup, fallback, cap)
            assert run.evaluation.verdicts == verdicts, label
            assert run.evaluation.masks == masks, label
            assert run.union == union and run.bound == bound, label
            both += union.removed > 0 and union.fallback_count > 0
    assert both >= 5

