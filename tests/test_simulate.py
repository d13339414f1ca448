"""Pattern simulator, fault injection, stimulation masks, and the oracle."""

import random
import re

import pytest
from conftest import random_circuit, random_rows, with_zero_control
from hypothesis import example, given
from hypothesis import strategies as st
from reference_sim import (
    FULL_MASK,
    _simulate,
    eval_faulty,
    eval_good,
    exor_stimulation_mask,
    reference_detects,
    reference_grade,
    reference_pack,
    resolve_bits,
)

from bridgetest import (
    DC_POLICIES,
    assemble_union,
    FaultKind,
    BridgingFault,
    Polarity,
    detects,
    enumerate_faults,
    evaluate_test_set,
    exhaustive_detectability,
    expand_network,
    normalize_zero_controls,
    parse_circuit,
    parse_test_file,
)
from bridgetest.atpg import gen_corner_set
from bridgetest.pprm import derive_pprm
from bridgetest.simulate import _pack

AND = Polarity.WIRED_AND
OR = Polarity.WIRED_OR


def _net(text, **kw):
    return expand_network(parse_circuit(text, **kw))


@pytest.fixture(scope="module")
def twoline():
    # two gates copying x1 onto both targets: f1 = c1 + x1, f2 = c2 + x1
    return _net(".n 1\n.p 2\n.gate c1 : x1\n.gate c2 : x1\n.end\n")


class TestGoodEvaluation:
    def test_benchmark_outputs_match_pprm(self, bench):
        # dual route: netlist walk vs canonical product-term parity  [DERIVED]
        net = expand_network(bench)
        pprms = derive_pprm(bench)
        rng = random.Random(11)
        for _ in range(200):
            c = [rng.randint(0, 1) for _ in range(3)]
            x = [rng.randint(0, 1) for _ in range(7)]
            sim = eval_good(net, "".join(map(str, c + x)))
            expect = tuple(c[j] ^ pprms[j].evaluate(x) for j in range(3))
            assert sim.outputs == expect

    def test_random_circuits_match_pprm(self):
        rng = random.Random(12)
        for idx in range(20):
            circuit = random_circuit(rng, idx)
            net = expand_network(circuit)
            pprms = derive_pprm(circuit)
            for _ in range(20):
                c = [rng.randint(0, 1) for _ in range(circuit.p)]
                x = [rng.randint(0, 1) for _ in range(circuit.n)]
                got = eval_good(net, "".join(map(str, c + x))).outputs
                expect = tuple(
                    c[j] ^ pprms[j].evaluate(x) for j in range(circuit.p)
                )
                assert got == expect

    def test_cascade_and_intermediate_values(self, twoline):
        sim = eval_good(twoline, "001")
        assert sim.x_values == (1,)
        assert sim.a_values == (1, 1)
        assert sim.cascade == ((0, 1, 1), (0, 0, 1))
        assert sim.outputs == (1, 1)

    def test_dc_policy_resolution(self, twoline):
        assert eval_good(twoline, "ddd").outputs == (0, 0)
        assert eval_good(twoline, "ddd", "fill-one").outputs == (0, 0)
        assert eval_good(twoline, "0dd", "fill-one").outputs == (1, 0)

    def test_dimension_mismatch(self, twoline):
        with pytest.raises(ValueError, match="dimension mismatch"):
            eval_good(twoline, "01")


class TestInjection:
    def test_x_pair_or(self, and2):
        # f1 = x1 x2; bridging the two inputs wired-OR turns 01 into 11
        net = expand_network(and2)
        fault = BridgingFault.x_pair(1, 2, OR)
        pat = "001"
        assert eval_good(net, pat).outputs == (0,)
        faulty = eval_faulty(net, fault, pat)
        assert faulty.x_values == (1, 1)
        assert faulty.outputs == (1,)
        assert detects(net, fault, pat)

    def test_x_pair_and_masked(self, and2):
        # same stimulus wired-AND lands on 00: the AND output cannot change
        net = expand_network(and2)
        fault = BridgingFault.x_pair(1, 2, AND)
        pat = "001"
        assert eval_faulty(net, fault, pat).outputs == (0,)
        assert not detects(net, fault, pat)

    def test_a_pair(self):
        net = _net(".n 2\n.p 1\n.gate c1 : x1\n.gate c1 : x2\n.end\n")
        fault_and = BridgingFault.a_pair(1, 2, AND)
        fault_or = BridgingFault.a_pair(1, 2, OR)
        pat = "010"  # a = (1, 0), good output 1
        assert eval_good(net, pat).outputs == (1,)
        sim = eval_faulty(net, fault_and, pat)
        assert sim.a_values == (0, 0)
        assert sim.outputs == (0,)
        assert eval_faulty(net, fault_or, pat).a_values == (1, 1)
        assert eval_faulty(net, fault_or, pat).outputs == (0,)
        # equal AND values mask the bridge
        assert not detects(net, fault_or, "011")

    def test_intra_level_zero_hits_initial_column(self, twoline):
        fault = BridgingFault.intra_level(0, 1, 2, OR)
        pat = "011"
        assert eval_good(twoline, pat).outputs == (1, 0)
        sim = eval_faulty(twoline, fault, pat)
        assert sim.cascade[0][0] == 1 and sim.cascade[1][0] == 1
        assert sim.outputs == (0, 0)

    def test_intra_level_mid_cascade(self, twoline):
        fault = BridgingFault.intra_level(1, 1, 2, AND)
        # level 1 sits between the two gates: W(1,1)=1, W(2,1)=0 under c=00
        pat = "001"
        sim = eval_faulty(twoline, fault, pat)
        assert sim.cascade == ((0, 0, 0), (0, 0, 1))
        assert sim.outputs == (0, 1)
        assert detects(twoline, fault, pat)
        # but the same fault is invisible when both wires agree
        # (c=10, x=1: gate 1 clears W(1,1) to 0 = W(2,1))
        assert not detects(twoline, fault, "101")

    def test_intra_level_at_outputs(self, twoline):
        fault = BridgingFault.intra_level(2, 1, 2, AND)
        assert not detects(twoline, fault, "001")  # both end 1
        assert detects(twoline, fault, "011")  # (1,0) -> (0,0)

    def test_exor_internal_not_injectable(self, twoline):
        with pytest.raises(ValueError, match="stimulation masks"):
            eval_faulty(twoline, BridgingFault.exor_internal(1), "001")
        with pytest.raises(ValueError, match="stimulation masks"):
            exhaustive_detectability(twoline, BridgingFault.exor_internal(1))
        with pytest.raises(ValueError, match="stimulation masks"):
            detects(twoline, BridgingFault.exor_internal(1), "001")


class TestStimulationMasks:
    def test_corners_fill_benchmark_masks(self, bench):
        net = expand_network(bench)
        corners = gen_corner_set(net)
        assert exor_stimulation_mask(net, corners) == [FULL_MASK] * 19

    def test_partial_masks(self, twoline):
        # all-zero pattern stimulates only (left, right) = (0, 0)
        assert exor_stimulation_mask(twoline, ["000"]) == [0b0001, 0b0001]
        # x=1 under c=00: gate 1 sees (0,1); gate 2 sees (0,1) on its own target
        masks = exor_stimulation_mask(twoline, ["001"])
        assert masks == [0b0010, 0b0010]

    def test_masks_accumulate(self, twoline):
        corners = gen_corner_set(twoline)
        assert exor_stimulation_mask(twoline, corners) == [FULL_MASK, FULL_MASK]


class TestOracle:
    def test_witness_is_smallest_and_detects(self, and2):
        net = expand_network(and2)
        fault = BridgingFault.x_pair(1, 2, OR)
        res = exhaustive_detectability(net, fault)
        assert res.detectable
        assert res.witness is not None and detects(net, fault, res.witness)
        # the witness is a row, as a test file holds it
        assert parse_test_file(res.witness, net) == [res.witness]
        # nothing lexicographically earlier detects
        v = int(res.witness, 2)
        for u in range(v):
            assert not detects(net, fault, format(u, "03b"))

    def test_redundant_verdict(self, and2):
        # wired-AND across the inputs of a single 2-input AND changes nothing
        net = expand_network(and2)
        res = exhaustive_detectability(net, BridgingFault.x_pair(1, 2, AND))
        assert res.status == "redundant" and res.witness is None

    def test_constant_line_pinned(self):
        text = ".n 2\n.p 1\n.gate c1 :\n.gate c1 : x1 x2\n.end\n"
        circuit = normalize_zero_controls(parse_circuit(text, allow_zero_controls=True))
        net = expand_network(circuit)
        res = exhaustive_detectability(net, BridgingFault.x_pair(1, 2, OR))
        assert res.detectable
        # the witness must hold the constant line at 1
        assert res.witness[net.p + 2] == "1"
        assert res.witness == "0011"

    @pytest.mark.parametrize("fault", [
        BridgingFault.intra_level(0, 1, 3, AND),  # no line c3: was read as x1's column
        BridgingFault.intra_level(3, 1, 2, OR),  # levels run 0..d
        BridgingFault.a_pair(1, 5, AND),  # no gate 5: was an IndexError
        BridgingFault.a_pair(0, 1, OR),
        BridgingFault.x_pair(1, 3, OR),
        BridgingFault.exor_internal(3),
    ])
    def test_faults_outside_the_network_are_refused(self, fault):
        net = _net(".n 2\n.p 2\n.gate c1 : x1\n.gate c2 : x2\n.end\n")
        message = rf"^{re.escape(fault.describe())} is not a fault of a network with n=2, p=2 and d=2$"
        with pytest.raises(ValueError, match=message):
            detects(net, fault, "0010")
        with pytest.raises(ValueError, match=message):
            exhaustive_detectability(net, fault)

    def test_faults_on_the_network_edges_are_read(self):
        net = _net(".n 2\n.p 2\n.gate c1 : x1\n.gate c2 : x2\n.end\n")
        for fault in (BridgingFault.intra_level(2, 1, 2, AND), BridgingFault.a_pair(1, 2, OR),
                      BridgingFault.x_pair(1, 2, OR)):
            res = exhaustive_detectability(net, fault)
            assert res.detectable and detects(net, fault, res.witness)

    def test_oracle_agrees_with_scalar_search(self):
        # dual route: truth-table columns vs the scalar reference simulator
        rng = random.Random(7)
        for idx in range(8):
            circuit = random_circuit(rng, idx, max_n=5, max_p=3, max_d=6, width_cap=8)
            net = expand_network(circuit)
            faults = [f for f in enumerate_faults(net) if f.kind.value != "ExorInternal"]
            for fault in faults[:: max(1, len(faults) // 12)]:
                res = exhaustive_detectability(net, fault)
                width = net.n + net.p
                found = None
                for v in range(1 << width):
                    row = format(v, f"0{width}b")
                    if reference_detects(net, fault, row):
                        found = row
                        break
                if res.detectable:
                    assert found is not None
                    assert found == res.witness
                else:
                    assert found is None


class TestEvaluateTestSet:
    def test_benchmark_with_corners(self, bench):
        net = expand_network(bench)
        faults = enumerate_faults(net)
        ev = evaluate_test_set(net, faults, gen_corner_set(net))
        assert ev.masks == [FULL_MASK] * 19
        for v in ev.verdicts[:19]:
            assert v.status == "detected" and v.method == "stimulation"

    def test_detection_records_first_pattern(self, and2):
        net = expand_network(and2)
        faults = enumerate_faults(net)
        k = faults.index(BridgingFault.x_pair(1, 2, OR))
        ev = evaluate_test_set(net, faults, ["000", "001", "010"])
        assert ev.verdicts[k].status == "detected"
        assert ev.verdicts[k].pattern_index == 1
        assert ev.verdicts[k].method == "simulation"

    def test_undetected_and_coverage(self, and2):
        # ExorInternal g1, then XPair (x1,x2) WiredAnd and WiredOr: "000"
        # detects none of them
        net = expand_network(and2)
        faults = enumerate_faults(net)
        k = faults.index(BridgingFault.x_pair(1, 2, OR))
        ev = evaluate_test_set(net, faults, ["000"])
        assert ev.verdicts[k].status == "undetected"
        assert ev.count("undetected") == len(faults) == 3
        assert ev.coverage() == 0.0

    def test_constant_line_obligation_redundant(self):
        circuit = normalize_zero_controls(
            parse_circuit(".n 1\n.p 1\n.gate c1 :\n.end\n", allow_zero_controls=True)
        )
        net = expand_network(circuit)
        faults = enumerate_faults(net)
        ev = evaluate_test_set(net, faults, gen_corner_set(net))
        assert [(v.status, v.method) for v in ev.verdicts] == [("redundant", "constant-line")]
        assert ev.coverage() == 1.0


@given(
    seed=st.integers(0, 2**32 - 1),
    zero_control=st.booleans(),
    count=st.integers(0, 70),
    dc_policy=st.sampled_from(DC_POLICIES),
)
@example(seed=1, zero_control=True, count=0, dc_policy="fill-zero")
@example(seed=2, zero_control=False, count=1, dc_policy="fill-one")
@example(seed=3, zero_control=True, count=70, dc_policy="fill-one")
@example(seed=4, zero_control=False, count=65, dc_policy="fill-zero")
def test_columns_match_scalar_reference(seed, zero_control, count, dc_policy):
    # dual route: bit-packed columns vs the scalar reference, every fault class
    rng = random.Random(seed)
    circuit = random_circuit(rng, seed)
    if zero_control:
        circuit = with_zero_control(circuit, rng)
    net = expand_network(circuit)
    faults = enumerate_faults(net, include_aux=True)
    rows = random_rows(rng, net, count)

    ev = evaluate_test_set(net, faults, rows, dc_policy)
    verdicts, masks = reference_grade(net, faults, rows, dc_policy)
    assert ev.verdicts == verdicts
    assert ev.masks == masks
    assert exor_stimulation_mask(net, rows, dc_policy) == masks

    for row in rows[:1]:
        c, x = resolve_bits(net, row, dc_policy)
        assert eval_good(net, row, dc_policy) == _simulate(net, c, x, None)
        for fault in faults:
            if fault.kind is not FaultKind.EXOR_INTERNAL:
                assert eval_faulty(net, fault, row, dc_policy) == _simulate(net, c, x, fault)


@pytest.mark.parametrize("dc_policy", DC_POLICIES)
@pytest.mark.parametrize("count", (0, 1, 512))
@pytest.mark.parametrize("zero_control", (False, True))
def test_pack_matches_reference_resolution(dc_policy, count, zero_control):
    rng = random.Random(count)
    circuit = random_circuit(rng, count)
    if zero_control:
        circuit = with_zero_control(circuit, rng)
    net = expand_network(circuit)
    assert (net.constant_line is not None) == zero_control
    rows = random_rows(rng, net, count)
    good, want = _pack(net, rows, dc_policy), reference_pack(net, rows, dc_policy)
    assert (good.cols[: net.p], good.cols[net.p :], good.ones) == want


@pytest.mark.parametrize("c, x", [("0", "1"), ("000", "1"), ("00", "")])
def test_pack_rejects_wrong_width(twoline, c, x):
    message = f"pattern has {len(c + x)} symbols, expected 3 (p=2 then n=1)"
    with pytest.raises(ValueError, match=re.escape(message)):
        _pack(twoline, ["001", c + x, "001"], "fill-zero")


@pytest.mark.parametrize("row", ["0_1", "01 ", "0x1", "+01"])
@pytest.mark.parametrize("dc_policy", DC_POLICIES)
def test_pack_rejects_bad_symbols(twoline, row, dc_policy):
    # int(..., 2) alone would read "0_1", " 01" or "+01"
    with pytest.raises(ValueError, match="bad pattern symbol"):
        _pack(twoline, ["0d1", row], dc_policy)


# x4 is the constant line normalization adds to Z3; XPair (x2, x4) WiredOr
# is redundant, since with x4 at 1 the OR never moves it
Z3_TEXT = ".n 3\n.p 2\n.gate c1 : x1\n.gate c2 :\n.end\n"


@pytest.fixture(scope="module")
def z3():
    net = expand_network(normalize_zero_controls(parse_circuit(Z3_TEXT, allow_zero_controls=True)))
    assert net.constant_line == 4
    return net


def _x2_x4_or(faults):
    return next(k for k, f in enumerate(faults) if (f.kind, f.ids, f.polarity)
                == (FaultKind.X_PAIR, (2, 4), OR))


@pytest.mark.parametrize("dc_policy", DC_POLICIES)
def test_constant_line_zero_refused_by_library(z3, dc_policy):
    faults = enumerate_faults(z3, include_aux=True)
    message = "0 on the constant line x4, which is always 1"
    with pytest.raises(ValueError, match=message):
        evaluate_test_set(z3, faults, ["000101", "000100"], dc_policy)
    with pytest.raises(ValueError, match=message):
        detects(z3, faults[_x2_x4_or(faults)], "000100", dc_policy)


@pytest.mark.parametrize("dc_policy", DC_POLICIES)
def test_constant_line_dont_care_reads_as_one_in_library(z3, dc_policy):
    faults = enumerate_faults(z3, include_aux=True)
    k = _x2_x4_or(faults)
    assert not exhaustive_detectability(z3, faults[k]).detectable
    ev = evaluate_test_set(z3, faults, ["00010d"], dc_policy)
    assert ev.verdicts[k].status == "undetected"
    assert ev.verdicts == evaluate_test_set(z3, faults, ["000101"], dc_policy).verdicts
    assert not detects(z3, faults[k], "00010d", dc_policy)
    assert _pack(z3, ["00010d", "1dd1dd"], dc_policy).cols[z3.p + 3] == 0b11


@pytest.mark.parametrize("call", [
    lambda net, faults: evaluate_test_set(net, faults, ["000"], dc_policy="fill-two"),
    lambda net, faults: detects(net, faults[1], "000", "zero"),
    lambda net, faults: assemble_union({"User": ["000"]}, dedup=True, dc_policy="x"),
], ids=["evaluate_test_set", "detects", "assemble_union"])
def test_unknown_dc_policy_is_a_value_error(and2, call):
    net = expand_network(and2)
    with pytest.raises(ValueError, match=r"unknown dc_policy '.*', expected one of "
                       + re.escape(repr(DC_POLICIES))):
        call(net, enumerate_faults(net))
