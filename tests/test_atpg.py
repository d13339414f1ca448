"""Test-set construction: counts, parity matrix, the five sets, union,
size bound, and fallback repair."""

import itertools
import random
from unittest import mock

import pytest
from conftest import evaluation_missing, random_circuit, run_fallback, with_zero_control
from hypothesis import given
from hypothesis import strategies as st
from reference_sim import reference_fallback

from bridgetest import (
    DC_POLICIES,
    AndExorNetwork,
    BridgingFault,
    FaultKind,
    Polarity,
    assemble_union,
    ceil_log2,
    detects,
    enumerate_faults,
    evaluate_test_set,
    exhaustive_detectability,
    expand_network,
    fallback_search,
    gen_cascade_pair_tests,
    gen_corner_set,
    gen_input_and_tests,
    gen_input_or_tests,
    gen_walking_zero_tests,
    generate_sets,
    parse_circuit,
    size_bound,
)
from bridgetest import atpg, simulate
from bridgetest.atpg import _parity_rows
from bridgetest.benchmark import derived_term_counts
from bridgetest.report import build_generation_report
from bridgetest.simulate import UNDETECTED

AND = Polarity.WIRED_AND
OR = Polarity.WIRED_OR

XOR3_TEXT = ".n 3\n.p 1\n.gate c1 : x1\n.gate c1 : x2\n.gate c1 : x3\n.end\n"
DUP_TEXT = ".n 3\n.p 2\n.gate c1 : x1\n.gate c1 : x1\n.gate c2 : x1 x2\n.end\n"
# a T1,T4 union misses every XPair and APair here: 252 faults, 16 repairs
REPAIR_TEXT = """.n 7
.p 4
.gate c1 : x1 x2 x3 x4
.gate c2 : x3 x4 x6
.gate c3 : x2
.gate c1 : x5 x6
.gate c3 : x1 x3 x6
.gate c3 : x2 x3
.gate c2 : x2 x5
.gate c3 : x2 x4 x6 x7
.gate c3 : x1
.gate c4 : x2 x3 x5 x7
.gate c1 : x1 x2 x3
.gate c3 : x2 x4
.gate c1 : x4 x5
.gate c4 : x1 x3 x5 x6
.gate c4 : x2 x4
.end
"""


@pytest.fixture(scope="module")
def bench_net(bench):
    return expand_network(bench)


def _net(text):
    return expand_network(parse_circuit(text))


def _bits(mask):
    """The set bits of ``mask``, ascending, one bit position at a time: the
    reference for ``atpg._bits``, which steps from set bit to set bit."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def test_bits_match_bit_position_scan():
    rng = random.Random(27)
    masks = [0, 1, 1 << 64, 1 << 299, (1 << 300) - 1, (1 << 65) | 1]
    for width in (1, 8, 20, 64, 70, 300):
        masks += [rng.getrandbits(width) for _ in range(50)]
        masks += [rng.getrandbits(width) | 1 for _ in range(10)]  # bit 0: no constant line
    for mask in masks:
        assert atpg._bits(mask) == _bits(mask), hex(mask)


class TestTermCounts:
    # spot values recomputed by hand from the gate list  [DERIVED]; a cell
    # holds the counts for targets c1, c2, c3
    def test_single_variable(self, bench_net):
        counts = derived_term_counts(bench_net, range(1, 8))
        assert counts[(1, 1)] == (6, 0, 0)
        assert counts[(5, 5)] == (4, 2, 2)
        assert counts[(4, 4)] == (4, 3, 1)
        assert counts[(7, 7)] == (0, 3, 2)

    def test_pair(self, bench_net):
        counts = derived_term_counts(bench_net, range(1, 8))
        assert counts[(1, 2)] == (4, 0, 0)
        assert counts[(2, 6)] == (1, 0, 0)
        assert counts[(4, 5)] == (1, 1, 1)
        assert counts[(4, 7)] == (0, 2, 0)

    def test_counts_respect_multiset(self):
        # both physical copies of the x1 gate count, even though they cancel
        assert derived_term_counts(_net(DUP_TEXT), (1,))[(1, 1)] == (2, 1)


class TestParityMatrix:
    # parity rows as bitmasks: bit j of row i is entry (i, j)
    @staticmethod
    def _matrix(net, order):
        rows = _parity_rows(net, 0)
        return ["".join(str(rows.get(i, 0) >> j & 1) for j in order) for i in order]

    def test_benchmark_rows(self, bench_net):
        # full derived matrix  [DERIVED]
        net = bench_net
        assert self._matrix(net, range(1, 8)) == [
            "0000000",
            "0000110",
            "0011111",
            "0011110",
            "0111011",
            "0111110",
            "0010101",
        ]

    def test_symmetry_and_accessor(self, bench_net):
        net = bench_net
        rows = _parity_rows(net, 0)
        for i in range(1, 8):
            for j in range(1, 8):
                assert rows.get(i, 0) >> j & 1 == rows.get(j, 0) >> i & 1
        assert rows[2] >> 6 & 1 == 1
        assert rows[5] >> 5 & 1 == 0

    def test_subset_of_variables(self, bench_net):
        net = bench_net
        assert self._matrix(net, (3, 5, 7)) == ["111", "101", "111"]

    def test_is_zero(self):
        net = _net(".n 2\n.p 1\n.gate c1 : x1\n.gate c1 : x1\n.end\n")
        assert not any(_parity_rows(net, 0).values())


def _lines(n, p, constant_line=None):
    """A network with no gates: T1, T4 and T5 read only its lines."""
    return AndExorNetwork(n, p, (), (), constant_line)


class TestCornerSet:
    def test_benchmark(self, bench_net):
        rows = gen_corner_set(bench_net)
        assert rows == [
            "0000000000",
            "0001111111",
            "1110000000",
            "1111111111",
        ]

    def test_constant_line_held_high(self):
        rows = gen_corner_set(_lines(2, 1, constant_line=2))
        assert rows == ["001", "011", "101", "111"]


class TestInputAndSet:
    def test_benchmark_patterns(self, bench_net):
        # frozen construction output (differs from the shipped worked set in
        # its last two rows; coverage is verified pairwise below)  [DERIVED]
        net = bench_net
        rows, uncovered = gen_input_and_tests(net)
        assert rows == [
            "ddd1000000",
            "ddd0100000",
            "ddd0001000",
            "ddd0000100",
            "ddd0100010",
            "ddd0011000",
        ]
        assert uncovered == ()

    def test_benchmark_covers_all_wired_and_pairs(self, bench_net):
        net = bench_net
        rows, _ = gen_input_and_tests(net)
        for i in range(1, 8):
            for j in range(i + 1, 8):
                fault = BridgingFault(FaultKind.X_PAIR, (i, j), AND)
                assert any(detects(net, fault, row) for row in rows), (i, j)

    def test_unsplittable_block(self, and2):
        # the only gate's support equals the whole block: nothing can split
        rows, uncovered = gen_input_and_tests(expand_network(and2))
        assert rows == []
        assert uncovered == ((1, 2),)

    def test_candidate_rejected_then_accepted(self):
        # f1 cancels to 0, so the single-control candidates detect nothing
        # and the two-control gate must carry the first split
        net = _net(DUP_TEXT)
        rows, uncovered = gen_input_and_tests(net)
        assert rows == ["dd110"]
        assert uncovered == ((1, 2),)


class TestInputOrSet:
    def test_benchmark_patterns(self, bench_net):
        # four case-(a) splits, one case (b), one case (c) at x1 = 0  [DERIVED]
        net = bench_net
        rows, uncovered = gen_input_or_tests(net)
        assert rows == [
            "ddd1101111",
            "ddd1110111",
            "ddd1111101",
            "ddd1111110",
            "ddd1011011",
            "ddd0011101",
        ]
        assert uncovered == ()

    def test_benchmark_covers_all_wired_or_pairs(self, bench_net):
        net = bench_net
        rows, _ = gen_input_or_tests(net)
        for i in range(1, 8):
            for j in range(i + 1, 8):
                fault = BridgingFault(FaultKind.X_PAIR, (i, j), OR)
                assert any(detects(net, fault, row) for row in rows), (i, j)

    def test_emission_is_partition_gated(self):
        # x = 110 would detect the pairs it leaves joined, but no block
        # split justifies it, so the generator stays at n - 1 patterns
        net = _net(XOR3_TEXT)
        rows, uncovered = gen_input_or_tests(net)
        assert rows == ["d011", "d101"]
        assert uncovered == ()
        probe = "d110"
        assert detects(net, BridgingFault(FaultKind.X_PAIR, (1, 3), OR), probe)
        assert detects(net, BridgingFault(FaultKind.X_PAIR, (2, 3), OR), probe)

    def test_case_a_on_and2(self, and2):
        rows, uncovered = gen_input_or_tests(expand_network(and2))
        assert rows == ["d01"]
        assert uncovered == ()

    def test_duplicate_terms_cancel_into_case_a(self):
        net = _net(DUP_TEXT)
        rows, uncovered = gen_input_or_tests(net)
        assert rows == ["dd011", "dd101"]
        assert uncovered == ()

    def test_size_within_partition_budget(self, bench_net):
        net = bench_net
        rows, _ = gen_input_or_tests(net)
        assert len(rows) <= net.n - 1


class TestCascadePairSet:
    def test_benchmark(self, bench_net):
        rows = gen_cascade_pair_tests(bench_net)
        assert rows == ["1100000000", "1010000000"]

    def test_p_one_needs_nothing(self):
        assert gen_cascade_pair_tests(_lines(2, 1)) == []

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 8, 16])
    def test_column_codes_distinct(self, p):
        rows = gen_cascade_pair_tests(_lines(1, p))
        assert len(rows) == ceil_log2(p)
        codes = [tuple(row[j] for row in rows) for j in range(p)]
        assert len(set(codes)) == p
        # distinct codes mean every pair differs in some pattern
        for a in range(p):
            for b in range(a + 1, p):
                assert any(
                    row[a] != row[b] for row in rows
                ), (a + 1, b + 1)

    def test_constant_line_held_high(self):
        rows = gen_cascade_pair_tests(_lines(3, 2, constant_line=3))
        assert rows == ["10001"]


class TestWalkingZeroSet:
    def test_benchmark(self, bench_net):
        rows = gen_walking_zero_tests(bench_net)
        assert rows == [
            "ddd0111111",
            "ddd1011111",
            "ddd1101111",
            "ddd1110111",
            "ddd1111011",
            "ddd1111101",
            "ddd1111110",
        ]

    def test_constant_line_skipped(self):
        rows = gen_walking_zero_tests(_lines(3, 1, constant_line=3))
        assert rows == ["d011", "d101"]


class TestGenerateSets:
    def test_full_benchmark_run(self, bench_net):
        net = bench_net
        result = generate_sets(net)
        assert list(result.sets) == ["T1", "T2", "T3", "T4", "T5"]
        sizes = {name: len(rows) for name, rows in result.sets.items()}
        assert sizes == {"T1": 4, "T2": 6, "T3": 6, "T4": 2, "T5": 7}
        assert result.t2_uncovered == ()
        assert result.t3_uncovered == ()

    def test_selector(self, bench_net):
        net = bench_net
        result = generate_sets(net, ["T1", "T4"])
        assert list(result.sets) == ["T1", "T4"]
        assert result.t2_uncovered == result.t3_uncovered == ()

    def test_selector_order_is_not_the_set_order(self, bench_net):
        # the sets come in SET_NAMES order whatever order they were asked
        # for, and the union's rows follow the mapping's order
        sets = generate_sets(bench_net, ("T5", "T2")).sets
        assert list(sets) == ["T2", "T5"]
        assert assemble_union(sets).origins == ["T2"] * 6 + ["T5"] * 7
        backwards = {"T5": sets["T5"], "T2": sets["T2"]}
        union = assemble_union(backwards)
        assert union.origins == ["T5"] * 7 + ["T2"] * 6
        assert union.rows == sets["T5"] + sets["T2"]

    def test_generation_packs_no_rows_and_builds_no_good(self, monkeypatch, bench_net):
        # T2 and T3 decide each split from the gate-support masks, and T3's
        # oracle reads them too: nothing is packed or evaluated.  A candidate
        # split reads the sensitivity of each moved input r, in ascending r,
        # and stops at the first miss
        def refuse(*args, **kwargs):
            raise AssertionError("generation evaluated rows")

        for module in (atpg, simulate):
            monkeypatch.setattr(module, "_pack", refuse)
        monkeypatch.setattr(simulate, "_Good", refuse)  # only _pack builds one
        splits, reads, proofs = [], [], []
        split, sensitive = atpg._Partition.split, atpg._Partition.sensitive
        oracle = atpg.exhaustive_detectability

        def recorded_split(partition, ones, block, side):
            splits.append(ones)
            return split(partition, ones, block, side)

        def recorded_sensitive(partition, ones, r):
            shown = sensitive(partition, ones, r)
            x = atpg._input_pattern(partition.network, ones)[partition.network.p :]
            reads.append((len(splits), x, r, shown))
            return shown

        monkeypatch.setattr(atpg._Partition, "split", recorded_split)
        monkeypatch.setattr(atpg._Partition, "sensitive", recorded_sensitive)
        monkeypatch.setattr(atpg, "exhaustive_detectability",
                            lambda net, f: proofs.append(f) or oracle(net, f))
        generate_sets(bench_net)
        rng = random.Random(17)
        for index in range(40):
            circuit = random_circuit(rng, index, max_n=10, max_d=14, width_cap=14)
            if index % 2:
                circuit = with_zero_control(circuit, rng)
            generate_sets(expand_network(circuit))
        assert proofs and len(splits) > 100
        for (split_k, _, r, shown), (next_k, _, next_r, _) in zip(reads, reads[1:]):
            if next_k == split_k:
                assert shown and next_r > r
        del splits[:], reads[:]
        generate_sets(_net(DUP_TEXT))
        # T2: x1 alone detects nothing (f1 cancels), x1 x2 splits off x3, and
        # gate 2's support repeats gate 1's, so it is not tried again; T3:
        # case (a) splits off x1, then x2
        assert [read[1:] for read in reads] == [
            ("100", 1, False),
            ("110", 1, True),
            ("110", 2, True),
            ("100", 1, False),
            ("011", 1, True),
            ("101", 2, True),
        ]

    @pytest.mark.parametrize("zero_control", [False, True])
    def test_split_decides_like_detects(self, monkeypatch, zero_control):
        # each accepted or refused split is the verdict of detects on the
        # bridge (r, min(rest)) for every moved input r, in T2 and T3 and on
        # a random side of the whole input set
        split = atpg._Partition.split
        decisions = []

        def checked(self, ones, block, side):
            rest = _bits(block & ~side)
            row = atpg._input_pattern(self.network, ones)
            expected = bool(rest) and all(
                detects(self.network,
                        BridgingFault(FaultKind.X_PAIR, (min(r, s), max(r, s)), self.polarity), row)
                for r in _bits(side) for s in rest[:1]
            )
            accepted = split(self, ones, block, side)
            assert accepted == expected, (row, _bits(block), _bits(side))
            decisions.append((self.polarity, accepted))
            return accepted

        monkeypatch.setattr(atpg._Partition, "split", checked)
        rng = random.Random(41 + zero_control)
        for index in range(60):
            circuit = random_circuit(rng, index)
            if zero_control:
                circuit = with_zero_control(circuit, rng)
            net = expand_network(circuit)
            assert (net.constant_line is not None) == zero_control
            generate_sets(net, ("T2", "T3"))
            inputs = net.real_inputs()
            if len(inputs) >= 2:
                side = atpg._mask(rng.sample(inputs, rng.randint(1, len(inputs) - 1)))
                block, v = atpg._mask(inputs), rng.randint(0, 1)
                ones = (side if v else block & ~side) | 1 << (net.constant_line or 0)
                atpg._Partition(net, AND if v else OR).split(ones, block, side)
        assert set(decisions) == {(p, ok) for p in (AND, OR) for ok in (False, True)}

    @given(seed=st.integers(0, 2**32 - 1), zero_control=st.booleans())
    def test_batched_splits_match_one_row_detects(self, seed, zero_control):
        # every split T2 and T3 decide off the support masks is the verdict
        # of detects on that one row, for each moved input r and each partner s
        rng = random.Random(seed)
        circuit = random_circuit(rng, seed, max_d=14)
        if zero_control:
            circuit = with_zero_control(circuit, rng)
        net = expand_network(circuit)
        split = atpg._Partition.split

        def checked(partition, ones, block, side):
            rest = _bits(block & ~side)
            row = atpg._input_pattern(net, ones)
            expected = bool(rest) and all(
                detects(net, BridgingFault(FaultKind.X_PAIR, (min(r, s), max(r, s)),
                                           partition.polarity), row)
                for r in _bits(side) for s in rest
            )
            assert split(partition, ones, block, side) == expected, (row, _bits(side))
            return expected

        with mock.patch.object(atpg._Partition, "split", checked):
            generate_sets(net, ("T2", "T3"))

    @pytest.mark.parametrize("zero_control", [False, True])
    def test_one_partner_decides_a_moved_input(self, zero_control):
        # with the side at v and the rest at 1 - v, the bridge that pulls
        # both ends to 1 - v moves only r, whichever partner s it has
        rng = random.Random(9 + zero_control)
        for index in range(120):
            circuit = random_circuit(rng, index)
            if zero_control:
                circuit = with_zero_control(circuit, rng)
            net = expand_network(circuit)
            inputs = net.real_inputs()
            if len(inputs) < 2:
                continue
            side = set(rng.sample(inputs, rng.randint(1, len(inputs) - 1)))
            rest = [s for s in inputs if s not in side]
            v = rng.randint(0, 1)
            x = "".join(
                "1" if i == net.constant_line else str(v if i in side else 1 - v)
                for i in range(1, net.n + 1)
            )
            pattern = "".join(rng.choice("01d") for _ in range(net.p)) + x
            polarity = AND if v else OR
            for dc_policy in DC_POLICIES:
                for r in side:
                    seen = {
                        detects(net, BridgingFault(FaultKind.X_PAIR, (min(r, s), max(r, s)),
                                                   polarity), pattern, dc_policy)
                        for s in rest
                    }
                    assert len(seen) == 1, (circuit.name, r, x, dc_policy)

    def test_unknown_name(self, bench_net):
        net = bench_net
        with pytest.raises(ValueError, match="unknown test-set name"):
            generate_sets(net, ["T1", "T9"])


def _bound_block(net, sets, union):
    return build_generation_report(net, sets, union, size_bound(net), {}, timestamp=False)["bound"]


class TestUnionAndBound:
    def test_benchmark_union(self, bench_net):
        net = bench_net
        result = generate_sets(net)
        union = assemble_union(result.sets)
        assert union.pre_dedup_size == 25
        assert union.fallback_count == 0
        assert len(union.rows) == 25
        report = _bound_block(net, result.sets, union)
        assert (report["size"], report["bound"]) == (25, 25)
        assert report["passed"]
        assert report["construction_size"] == 25
        assert not report["exceeds_construction"]

    def test_dedup_drops_resolved_collisions(self, bench_net):
        # four T5 rows resolve to the same vectors as earlier T3 rows
        net = bench_net
        result = generate_sets(net)
        union = assemble_union(result.sets, dedup=True)
        assert union.pre_dedup_size == 25
        assert union.removed == 4
        assert len(union.rows) == 21
        assert union.origins == ["T1"] * 4 + ["T2"] * 6 + ["T3"] * 6 + ["T4"] * 2 + ["T5"] * 3
        lines = [row.replace("d", "0") for row in union.rows]
        assert len(set(lines)) == 21
        # the bound still judges the pre-dedup size
        assert _bound_block(net, result.sets, union)["size"] == 25

    def test_fallback_counts_separately(self, bench_net):
        net = bench_net
        result = generate_sets(net)
        union = assemble_union(result.sets, ["0001111111"])
        assert union.origins[-2:] == ["T5", "Fallback"]
        assert union.pre_dedup_size == 26
        assert union.fallback_count == 1
        report = _bound_block(net, result.sets, union)
        assert not report["passed"]  # 26 > 25
        assert report["construction_size"] == 25
        assert report["exceeds_construction"]

    def test_ceil_log2(self):
        assert [ceil_log2(p) for p in (1, 2, 3, 4, 5, 8, 9, 64)] == [
            0, 1, 2, 2, 3, 3, 4, 6,
        ]
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestFallbackSearch:
    def test_oracle_witness_and_redundancy(self, and2):
        net = expand_network(and2)
        missed = [BridgingFault(FaultKind.X_PAIR, (1, 2), pol) for pol in (OR, AND)]
        ev = evaluation_missing(net, missed)
        fb, redundant, unresolved = run_fallback(ev)
        assert fb.patterns == ["001"]
        assert [ev.faults[k] for k in redundant] == [missed[1]]
        assert unresolved == []

    def test_classify_only_adds_nothing(self, and2):
        net = expand_network(and2)
        missed = [BridgingFault(FaultKind.X_PAIR, (1, 2), pol) for pol in (OR, AND)]
        ev = evaluation_missing(net, missed)
        fb, redundant, unresolved = run_fallback(ev, classify_only=True)
        assert fb.patterns == []
        assert [ev.faults[k] for k in redundant] == [missed[1]]
        assert unresolved == []

    def test_greedy_reuse_of_appended_patterns(self, monkeypatch):
        # the first miss's witness also detects the second, a different pair:
        # one oracle call, one pattern
        calls = []
        oracle = atpg.exhaustive_detectability
        monkeypatch.setattr(
            atpg, "exhaustive_detectability", lambda net, f: calls.append(f) or oracle(net, f)
        )
        net = expand_network(parse_circuit(DUP_TEXT))
        missed = [BridgingFault(FaultKind.X_PAIR, ids, AND) for ids in ((1, 3), (2, 3))]
        fb, redundant, unresolved = run_fallback(evaluation_missing(net, missed))
        assert calls == missed[:1]
        assert fb.patterns == ["00110"]
        assert detects(net, missed[1], fb.patterns[0])
        assert (redundant, unresolved) == ([], [])

    @pytest.mark.parametrize("classify_only", [False, True])
    def test_one_proof_per_apair_or_intra_level_pair(self, monkeypatch, classify_only):
        # both polarities of an APair or IntraLevel change the outputs alike,
        # so one oracle call decides the pair; an XPair's polarities differ
        calls = []
        oracle = atpg.exhaustive_detectability
        monkeypatch.setattr(
            atpg, "exhaustive_detectability", lambda net, f: calls.append(f) or oracle(net, f)
        )
        net = expand_network(parse_circuit(DUP_TEXT))
        redundant_pair = [BridgingFault(FaultKind.A_PAIR, (1, 2), pol) for pol in (AND, OR)]
        detectable_pair = [BridgingFault(FaultKind.A_PAIR, (1, 3), pol) for pol in (AND, OR)]
        intra = [BridgingFault(FaultKind.INTRA_LEVEL, (0, 1, 2), pol) for pol in (AND, OR)]
        xpairs = [BridgingFault(FaultKind.X_PAIR, (1, 2), pol) for pol in (AND, OR)]
        ev = evaluation_missing(net, redundant_pair + detectable_pair + intra + xpairs)
        fb, redundant, unresolved = run_fallback(ev, classify_only=classify_only)
        # index order: XPair, IntraLevel, APair; no witness detects a later miss
        assert calls == xpairs + [intra[0], redundant_pair[0], detectable_pair[0]]
        assert [ev.faults[k] for k in redundant] == xpairs[:1] + redundant_pair
        assert unresolved == []
        assert len(fb.patterns) == (0 if classify_only else 3)

    def test_exor_obligation_appends_corners_once(self):
        net = expand_network(parse_circuit(".n 1\n.p 2\n.gate c1 : x1\n.gate c2 : x1\n.end\n"))
        missed = [BridgingFault(FaultKind.EXOR_INTERNAL, (g,)) for g in (1, 2)]
        fb = fallback_search(evaluation_missing(net, missed))
        assert fb.patterns == ["000", "001", "110", "111"]
        fb2 = fallback_search(evaluation_missing(net, missed), classify_only=True)
        assert fb2.patterns == []

    @pytest.mark.parametrize("classify_only", [False, True])
    def test_redundant_over_cap_miss_reads_unresolved(self, classify_only):
        # n + p = 23 sits above the oracle cap: the proof reads unresolved in
        # both modes, and the detectable miss gets exactly the oracle's
        # witness, or stays undetected when classifying
        text = ".n 20\n.p 3\n.gate c1 : x1 x2\n.gate c2 : x3\n.gate c3 : x4\n.end\n"
        net = expand_network(parse_circuit(text))
        or_fault, and_fault = (BridgingFault(FaultKind.X_PAIR, (1, 2), pol) for pol in (OR, AND))
        ev = evaluation_missing(net, [or_fault, and_fault])
        fb, redundant, unresolved = run_fallback(ev, classify_only=classify_only)
        assert [ev.faults[k] for k in unresolved] == [and_fault]
        assert redundant == []
        assert ev.status[ev.faults.index(or_fault)] == UNDETECTED
        witness = exhaustive_detectability(net, or_fault).witness
        assert fb.patterns == ([] if classify_only else [witness])

    def test_wide_circuit_determinism(self):
        # the repair row is the oracle's witness whatever the cap
        text = ".n 20\n.p 3\n.gate c1 : x1 x2\n.gate c2 : x3\n.gate c3 : x4\n.end\n"
        net = expand_network(parse_circuit(text))
        or_fault = BridgingFault(FaultKind.X_PAIR, (1, 2), OR)
        runs = [fallback_search(evaluation_missing(net, [or_fault]), cap) for cap in (0, 22, 23)]
        assert [fb.patterns for fb in runs] == [["00001000000000000000000"]] * 3

    def test_matches_reference_fallback(self):
        # the misses of a T1,T4 union, repaired or classified, below and above
        # the oracle cap: the same patterns, proofs and unresolved faults.
        # Every other pair of circuits also marks its ExorInternal entries
        # undetected, so the pairs are read against the corner set as well.
        # reused: misses that a repair pattern appended for another fault detects
        seen = dict.fromkeys(("patterns", "corners", "reused", "redundant", "unresolved"), 0)
        rng = random.Random(515)
        for idx in range(24):
            circuit = random_circuit(rng, idx, max_n=6, max_p=3, max_d=10, width_cap=9)
            if idx % 2:
                circuit = with_zero_control(circuit, rng)
            net = expand_network(circuit)
            sets = generate_sets(net, ("T1", "T4")).sets
            union = assemble_union(sets)
            faults = enumerate_faults(net)
            ev = evaluate_test_set(net, faults, union.rows)
            pairs = ev.status.count(UNDETECTED)
            assert UNDETECTED not in ev.status[: net.d]
            if idx % 4 >= 2:
                ev.status[: net.d] = bytes([UNDETECTED]) * net.d
            missed = [faults[k] for k, s in enumerate(ev.status) if s == UNDETECTED]
            graded = bytes(ev.status)
            for classify_only, cap in itertools.product((False, True), (0, 22, 1000)):
                ev.status[:] = graded  # fallback wrote the last run's verdicts
                fb, redundant, unresolved = run_fallback(ev, cap, classify_only=classify_only)
                ref = reference_fallback(net, missed, cap, classify_only)
                got = (fb.patterns, [faults[k] for k in redundant],
                       [faults[k] for k in unresolved])
                assert got == (ref.patterns, ref.redundant, ref.unresolved), (idx, classify_only, cap)
                seen["patterns"] += len(fb.patterns)
                seen["redundant"] += len(redundant)
                seen["unresolved"] += len(unresolved)
                if not classify_only:  # the reference settles each pair miss one way
                    corners = 4 * (pairs < len(missed))
                    settled = len(fb.patterns) - corners + len(redundant) + len(unresolved)
                    seen["corners"] += corners
                    seen["reused"] += pairs - settled
        assert all(seen.values()), seen

    def test_one_pack_per_append_and_no_detects_call(self, monkeypatch):
        # every miss is read against the packed repair patterns: nothing
        # calls detects, and the repairs are packed again only on an append
        packs = []  # the number of rows packed, per call
        pack = atpg._pack

        def counted_pack(network, rows, dc_policy):
            packs.append(len(rows))
            return pack(network, rows, dc_policy)

        monkeypatch.setattr(atpg, "_pack", counted_pack)

        def no_detects(*args, **kwargs):
            raise AssertionError("fallback called detects")

        monkeypatch.setattr(atpg, "detects", no_detects)
        monkeypatch.setattr(simulate, "detects", no_detects)
        circuit = parse_circuit(REPAIR_TEXT)
        net = expand_network(circuit)
        sets = generate_sets(net, ("T1", "T4")).sets
        union = assemble_union(sets)
        ev = evaluate_test_set(net, enumerate_faults(net), union.rows)
        assert ev.status.count(UNDETECTED) >= 100
        assert UNDETECTED not in ev.status[: net.d]
        fb = fallback_search(ev)
        assert len(fb.patterns) >= 10
        assert packs == list(range(1, len(fb.patterns) + 1))  # one pattern per append
