"""Test-set construction: counts, parity matrix, the five sets, union,
size bound, and fallback repair."""

import itertools
import random

import pytest
from conftest import random_circuit, with_zero_control
from reference_sim import reference_fallback

from bridgetest import (
    DC_POLICIES,
    BridgingFault,
    FaultKind,
    Polarity,
    TestPattern,
    assemble_union,
    ceil_log2,
    check_bound,
    count_terms,
    derive_pprm,
    detects,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    fallback_search,
    gen_cascade_pair_tests,
    gen_corner_set,
    gen_input_and_tests,
    gen_input_or_tests,
    gen_walking_zero_tests,
    generate_sets,
    parse_circuit,
)
from bridgetest import atpg, simulate
from bridgetest.atpg import _parity_rows

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
def bench_parts(bench):
    return derive_pprm(bench), expand_network(bench)


def _parts(text):
    circuit = parse_circuit(text)
    return derive_pprm(circuit), expand_network(circuit)


class TestTermCounts:
    # spot values recomputed by hand from the gate list  [DERIVED]
    def test_single_variable(self, bench_parts):
        pprms, _ = bench_parts
        assert count_terms(pprms, 1, {1}) == 6
        assert count_terms(pprms, 1, {5}) == 4
        assert count_terms(pprms, 2, {4}) == 3
        assert count_terms(pprms, 3, {7}) == 2
        assert count_terms(pprms, 2, {1}) == 0

    def test_pair(self, bench_parts):
        pprms, _ = bench_parts
        assert count_terms(pprms, 1, {1, 2}) == 4
        assert count_terms(pprms, 1, {2, 6}) == 1
        assert count_terms(pprms, 1, {4, 5}) == 1
        assert count_terms(pprms, 3, {4, 5}) == 1
        assert count_terms(pprms, 3, {1, 2}) == 0
        assert count_terms(pprms, 2, {4, 7}) == 2

    def test_counts_respect_multiset(self):
        pprms, _ = _parts(DUP_TEXT)
        # both physical copies of the x1 gate count, even though they cancel
        assert count_terms(pprms, 1, {1}) == 2
        assert pprms[0].canonical_terms == ()

    def test_arity_guard(self, bench_parts):
        pprms, _ = bench_parts
        with pytest.raises(ValueError):
            count_terms(pprms, 1, set())
        with pytest.raises(ValueError):
            count_terms(pprms, 1, {1, 2, 3})


class TestParityMatrix:
    # parity rows as bitmasks: bit j of row i is entry (i, j)
    @staticmethod
    def _matrix(pprms, order):
        rows = _parity_rows(pprms, 0)
        return ["".join(str(rows.get(i, 0) >> j & 1) for j in order) for i in order]

    def test_benchmark_rows(self, bench_parts):
        # full derived matrix  [DERIVED]
        pprms, _ = bench_parts
        assert self._matrix(pprms, range(1, 8)) == [
            "0000000",
            "0000110",
            "0011111",
            "0011110",
            "0111011",
            "0111110",
            "0010101",
        ]

    def test_symmetry_and_accessor(self, bench_parts):
        pprms, _ = bench_parts
        rows = _parity_rows(pprms, 0)
        for i in range(1, 8):
            for j in range(1, 8):
                assert rows.get(i, 0) >> j & 1 == rows.get(j, 0) >> i & 1
        assert rows[2] >> 6 & 1 == 1
        assert rows[5] >> 5 & 1 == 0

    def test_subset_of_variables(self, bench_parts):
        pprms, _ = bench_parts
        assert self._matrix(pprms, (3, 5, 7)) == ["111", "101", "111"]

    def test_is_zero(self):
        pprms, _ = _parts(".n 2\n.p 1\n.gate c1 : x1\n.gate c1 : x1\n.end\n")
        assert not any(_parity_rows(pprms, 0).values())


class TestCornerSet:
    def test_benchmark(self):
        ts = gen_corner_set(7, 3)
        assert ts.name == "T1" and ts.target_class == "ExorInternal"
        assert ts.lines() == [
            "0000000000",
            "0001111111",
            "1110000000",
            "1111111111",
        ]
        assert all(p.origin == "T1" for p in ts)

    def test_constant_line_held_high(self):
        ts = gen_corner_set(2, 1, constant_line=2)
        assert ts.lines() == ["001", "011", "101", "111"]


class TestInputAndSet:
    def test_benchmark_patterns(self, bench_parts):
        # frozen construction output (differs from the shipped worked set in
        # its last two rows; coverage is verified pairwise below)  [DERIVED]
        _, net = bench_parts
        ts, uncovered = gen_input_and_tests(net)
        assert [p.x for p in ts] == [
            "1000000",
            "0100000",
            "0001000",
            "0000100",
            "0100010",
            "0011000",
        ]
        assert all(p.c == "ddd" and p.origin == "T2" for p in ts)
        assert uncovered == ()

    def test_benchmark_covers_all_wired_and_pairs(self, bench_parts):
        _, net = bench_parts
        ts, _ = gen_input_and_tests(net)
        for i in range(1, 8):
            for j in range(i + 1, 8):
                fault = BridgingFault.x_pair(i, j, AND)
                assert any(detects(net, fault, p) for p in ts), (i, j)

    def test_unsplittable_block(self, and2):
        # the only gate's support equals the whole block: nothing can split
        ts, uncovered = gen_input_and_tests(expand_network(and2))
        assert ts.lines() == []
        assert uncovered == ((1, 2),)

    def test_candidate_rejected_then_accepted(self):
        # f1 cancels to 0, so the single-control candidates detect nothing
        # and the two-control gate must carry the first split
        _, net = _parts(DUP_TEXT)
        ts, uncovered = gen_input_and_tests(net)
        assert [p.x for p in ts] == ["110"]
        assert uncovered == ((1, 2),)


class TestInputOrSet:
    def test_benchmark_patterns(self, bench_parts):
        # four case-(a) splits, one case (b), one case (c) at x1 = 0  [DERIVED]
        pprms, net = bench_parts
        ts, uncovered = gen_input_or_tests(pprms, net)
        assert [p.x for p in ts] == [
            "1101111",
            "1110111",
            "1111101",
            "1111110",
            "1011011",
            "0011101",
        ]
        assert all(p.c == "ddd" and p.origin == "T3" for p in ts)
        assert uncovered == ()

    def test_benchmark_covers_all_wired_or_pairs(self, bench_parts):
        pprms, net = bench_parts
        ts, _ = gen_input_or_tests(pprms, net)
        for i in range(1, 8):
            for j in range(i + 1, 8):
                fault = BridgingFault.x_pair(i, j, OR)
                assert any(detects(net, fault, p) for p in ts), (i, j)

    def test_emission_is_partition_gated(self):
        # x = 110 would detect the pairs it leaves joined, but no block
        # split justifies it, so the generator stays at n - 1 patterns
        pprms, net = _parts(XOR3_TEXT)
        ts, uncovered = gen_input_or_tests(pprms, net)
        assert [p.x for p in ts] == ["011", "101"]
        assert uncovered == ()
        probe = TestPattern("d", "110")
        assert detects(net, BridgingFault.x_pair(1, 3, OR), probe)
        assert detects(net, BridgingFault.x_pair(2, 3, OR), probe)

    def test_case_a_on_and2(self, and2):
        pprms, net = derive_pprm(and2), expand_network(and2)
        ts, uncovered = gen_input_or_tests(pprms, net)
        assert [p.x for p in ts] == ["01"]
        assert uncovered == ()

    def test_duplicate_terms_cancel_into_case_a(self):
        pprms, net = _parts(DUP_TEXT)
        ts, uncovered = gen_input_or_tests(pprms, net)
        assert [p.x for p in ts] == ["011", "101"]
        assert uncovered == ()

    def test_size_within_partition_budget(self, bench_parts):
        pprms, net = bench_parts
        ts, _ = gen_input_or_tests(pprms, net)
        assert len(ts) <= net.n - 1


class TestCascadePairSet:
    def test_benchmark(self):
        ts = gen_cascade_pair_tests(3, 7)
        assert ts.lines() == ["1100000000", "1010000000"]
        assert all(p.origin == "T4" for p in ts)

    def test_p_one_needs_nothing(self):
        assert gen_cascade_pair_tests(1, 2).lines() == []

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 8, 16])
    def test_column_codes_distinct(self, p):
        ts = gen_cascade_pair_tests(p, 1)
        assert len(ts) == ceil_log2(p)
        codes = [tuple(pat.c[j] for pat in ts) for j in range(p)]
        assert len(set(codes)) == p
        # distinct codes mean every pair differs in some pattern
        for a in range(p):
            for b in range(a + 1, p):
                assert any(
                    pat.c[a] != pat.c[b] for pat in ts
                ), (a + 1, b + 1)

    def test_constant_line_held_high(self):
        ts = gen_cascade_pair_tests(2, 3, constant_line=3)
        assert ts.lines() == ["10001"]


class TestWalkingZeroSet:
    def test_benchmark(self):
        ts = gen_walking_zero_tests(7, 3)
        assert [p.x for p in ts] == [
            "0111111",
            "1011111",
            "1101111",
            "1110111",
            "1111011",
            "1111101",
            "1111110",
        ]
        assert all(p.c == "ddd" and p.origin == "T5" for p in ts)

    def test_constant_line_skipped(self):
        ts = gen_walking_zero_tests(3, 1, constant_line=3)
        assert [p.x for p in ts] == ["011", "101"]


class TestGenerateSets:
    def test_full_benchmark_run(self, bench_parts):
        pprms, net = bench_parts
        result = generate_sets(pprms, net)
        assert list(result.sets) == ["T1", "T2", "T3", "T4", "T5"]
        sizes = {name: len(ts) for name, ts in result.sets.items()}
        assert sizes == {"T1": 4, "T2": 6, "T3": 6, "T4": 2, "T5": 7}
        assert result.t2_uncovered == ()
        assert result.t3_uncovered == ()

    def test_selector(self, bench_parts):
        pprms, net = bench_parts
        result = generate_sets(pprms, net, ["T1", "T4"])
        assert list(result.sets) == ["T1", "T4"]
        assert result.t2_uncovered == result.t3_uncovered == ()

    def test_one_fault_free_read_per_candidate(self, monkeypatch, bench_parts):
        # a candidate split reads the sensitivity of each moved input r off
        # one fault-free evaluation, in ascending r, and stops at the first miss
        calls = []

        class Recorded(simulate._Good):
            def sensitivity(self, v):
                sens = super().sensitivity(v)
                x = "".join(str(bit) for bit in self.cols[self.network.p :])
                calls.append((self, x, v, bool(sens[0])))
                return sens

        monkeypatch.setattr("bridgetest.atpg._Good", Recorded)
        generate_sets(*bench_parts)
        assert calls
        for (good, x, r, shown), (next_good, _, next_r, _) in zip(calls, calls[1:]):
            if next_good is good:
                assert shown and next_r > r
        calls.clear()
        generate_sets(*_parts(DUP_TEXT))
        # T2: x1 alone detects nothing (f1 cancels), x1 x2 splits off x3, and
        # gate 2's support repeats gate 1's, so it is not tried again; T3:
        # case (a) splits off x1, then x2
        assert [call[1:] for call in calls] == [
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

        def checked(self, pattern, block, side):
            rest = block - side
            expected = bool(rest) and all(
                detects(self.network, BridgingFault.x_pair(r, min(rest), self.polarity), pattern)
                for r in side
            )
            accepted = split(self, pattern, block, side)
            assert accepted == expected, (pattern, sorted(block), sorted(side))
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
            generate_sets(derive_pprm(circuit), net, ("T2", "T3"))
            inputs = frozenset(net.real_inputs())
            if len(inputs) >= 2:
                side = frozenset(rng.sample(sorted(inputs), rng.randint(1, len(inputs) - 1)))
                v = rng.randint(0, 1)
                pattern = atpg._input_pattern(net, side if v else inputs - side, "T2")
                atpg._Partition(net, AND if v else OR).split(pattern, inputs, side)
        assert set(decisions) == {(p, ok) for p in (AND, OR) for ok in (False, True)}

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
            pattern = TestPattern("".join(rng.choice("01d") for _ in range(net.p)), x)
            polarity = AND if v else OR
            for dc_policy in DC_POLICIES:
                for r in side:
                    seen = {
                        detects(net, BridgingFault.x_pair(r, s, polarity), pattern, dc_policy)
                        for s in rest
                    }
                    assert len(seen) == 1, (circuit.name, r, x, dc_policy)

    def test_unknown_name(self, bench_parts):
        pprms, net = bench_parts
        with pytest.raises(ValueError, match="unknown test-set name"):
            generate_sets(pprms, net, ["T1", "T9"])


class TestUnionAndBound:
    def test_benchmark_union(self, bench_parts):
        pprms, net = bench_parts
        result = generate_sets(pprms, net)
        union = assemble_union(result.ordered_sets())
        assert union.pre_dedup_size == 25
        assert union.fallback_count == 0
        assert len(union.test_set) == 25
        report = check_bound(union, 7, 3)
        assert (report.size, report.bound) == (25, 25)
        assert report.passed
        assert report.construction_size == 25
        assert not report.exceeds_construction

    def test_dedup_drops_resolved_collisions(self, bench_parts):
        # four T5 rows resolve to the same vectors as earlier T3 rows
        pprms, net = bench_parts
        result = generate_sets(pprms, net)
        union = assemble_union(result.ordered_sets(), dedup=True)
        assert union.pre_dedup_size == 25
        assert union.removed == 4
        assert len(union.test_set) == 21
        lines = [p.resolved_line() for p in union.test_set]
        assert len(set(lines)) == 21
        # the bound still judges the pre-dedup size
        assert check_bound(union, 7, 3).size == 25

    def test_fallback_counts_separately(self, bench_parts):
        pprms, net = bench_parts
        result = generate_sets(pprms, net)
        extra = [TestPattern("000", "1111111", origin="Fallback")]
        union = assemble_union(result.ordered_sets(), extra)
        assert union.pre_dedup_size == 26
        assert union.fallback_count == 1
        report = check_bound(union, 7, 3)
        assert not report.passed  # 26 > 25
        assert report.construction_size == 25
        assert report.exceeds_construction

    def test_ceil_log2(self):
        assert [ceil_log2(p) for p in (1, 2, 3, 4, 5, 8, 9, 64)] == [
            0, 1, 2, 2, 3, 3, 4, 6,
        ]
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestFallbackSearch:
    def test_oracle_witness_and_redundancy(self, and2):
        net = expand_network(and2)
        missed = [BridgingFault.x_pair(1, 2, OR), BridgingFault.x_pair(1, 2, AND)]
        fb = fallback_search(net, missed)
        assert [p.line() for p in fb.patterns] == ["001"]
        assert fb.patterns[0].origin == "Fallback"
        assert fb.redundant == {missed[1]: "exhaustive"}
        assert fb.unresolved == []

    def test_classify_only_adds_nothing(self, and2):
        net = expand_network(and2)
        missed = [BridgingFault.x_pair(1, 2, OR), BridgingFault.x_pair(1, 2, AND)]
        fb = fallback_search(net, missed, classify_only=True)
        assert fb.patterns == []
        assert fb.redundant == {missed[1]: "exhaustive"}
        assert fb.unresolved == []

    def test_greedy_reuse_of_appended_patterns(self, and2):
        net = expand_network(and2)
        fault = BridgingFault.x_pair(1, 2, OR)
        fb = fallback_search(net, [fault, fault])
        assert len(fb.patterns) == 1

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
        redundant_pair = [BridgingFault.a_pair(1, 2, AND), BridgingFault.a_pair(1, 2, OR)]
        detectable_pair = [BridgingFault.a_pair(1, 3, AND), BridgingFault.a_pair(1, 3, OR)]
        intra = [BridgingFault.intra_level(0, 1, 2, AND), BridgingFault.intra_level(0, 1, 2, OR)]
        xpairs = [BridgingFault.x_pair(1, 2, AND), BridgingFault.x_pair(1, 2, OR)]
        missed = redundant_pair + detectable_pair + intra + xpairs
        fb = fallback_search(net, missed, classify_only=classify_only)
        pairs = [f for f in calls if f.kind is not FaultKind.X_PAIR]
        assert pairs == [redundant_pair[0], detectable_pair[0], intra[0]]
        if classify_only:  # no witness is kept to catch the other XPair
            assert calls[3:] == xpairs
        assert fb.redundant == dict.fromkeys(redundant_pair + xpairs[:1], "exhaustive")
        assert len(fb.patterns) == (0 if classify_only else 2)

    def test_exor_obligation_appends_corners_once(self):
        net = expand_network(parse_circuit(".n 1\n.p 2\n.gate c1 : x1\n.gate c2 : x1\n.end\n"))
        missed = [BridgingFault.exor_internal(1), BridgingFault.exor_internal(2)]
        fb = fallback_search(net, missed)
        assert [p.line() for p in fb.patterns] == ["000", "001", "110", "111"]
        assert all(p.origin == "Fallback" for p in fb.patterns)
        fb2 = fallback_search(net, missed, classify_only=True)
        assert fb2.patterns == []

    def test_wide_circuit_random_path(self):
        # n + p = 23 sits above the oracle cap: detectable faults get seeded
        # random witnesses, unprovable ones come back unresolved
        text = ".n 20\n.p 3\n.gate c1 : x1 x2\n.gate c2 : x3\n.gate c3 : x4\n.end\n"
        net = expand_network(parse_circuit(text))
        or_fault = BridgingFault.x_pair(1, 2, OR)
        and_fault = BridgingFault.x_pair(1, 2, AND)
        fb = fallback_search(net, [or_fault, and_fault])
        assert len(fb.patterns) == 1
        assert detects(net, or_fault, fb.patterns[0])
        assert fb.unresolved == [and_fault]
        assert fb.redundant == {}

    def test_wide_circuit_determinism(self):
        text = ".n 20\n.p 3\n.gate c1 : x1 x2\n.gate c2 : x3\n.gate c3 : x4\n.end\n"
        net = expand_network(parse_circuit(text))
        or_fault = BridgingFault.x_pair(1, 2, OR)
        a = fallback_search(net, [or_fault])
        b = fallback_search(net, [or_fault])
        assert [p.line() for p in a.patterns] == [p.line() for p in b.patterns]

    @pytest.mark.parametrize("zero_control", [False, True])
    def test_random_draws_match_string_construction(self, zero_control):
        # the column-packed draws pick the same pattern as building each draw
        # as a string, one rng.choice per line except the constant line
        rng = random.Random(31)
        for idx in range(6):
            circuit = random_circuit(rng, idx, max_n=6, max_p=3, max_d=8, width_cap=8)
            if zero_control:
                circuit = with_zero_control(circuit, rng)
            net = expand_network(circuit)
            faults = [f for f in enumerate_faults(net) if f.kind.value != "ExorInternal"]
            fb = fallback_search(net, faults, oracle_cap=0)
            ref = reference_fallback(net, faults, 0)
            assert (fb.patterns, fb.unresolved) == (ref.patterns, ref.unresolved)
            assert fb.patterns and (net.constant_line is not None) == zero_control

    def test_matches_reference_fallback(self):
        # the misses of a T1,T4 union, repaired or classified, by the oracle
        # or by random draws: the same patterns, proofs and unresolved faults.
        # Every other pair of circuits also lists its ExorInternal faults
        # first, so the pairs are read against the corner set as well.
        # reused: misses that a repair pattern appended for another fault detects
        seen = dict.fromkeys(("patterns", "corners", "reused", "redundant", "unresolved"), 0)
        rng = random.Random(515)
        for idx in range(24):
            circuit = random_circuit(rng, idx, max_n=6, max_p=3, max_d=10, width_cap=9)
            if idx % 2:
                circuit = with_zero_control(circuit, rng)
            net = expand_network(circuit)
            sets = generate_sets(derive_pprm(circuit), net, ("T1", "T4")).ordered_sets()
            union = assemble_union(sets).test_set
            faults = enumerate_faults(net)
            pairs = evaluate_test_set(net, faults, list(union)).faults_with("undetected")
            exor = [faults[k] for k in range(net.d)] if idx % 4 >= 2 else []
            missed = exor + pairs
            assert all(f.kind is not FaultKind.EXOR_INTERNAL for f in pairs)
            for classify_only, cap in itertools.product((False, True), (0, 22)):
                fb = fallback_search(net, missed, cap, classify_only=classify_only)
                ref = reference_fallback(net, missed, cap, classify_only)
                assert fb == ref, (idx, classify_only, cap)
                seen["patterns"] += len(fb.patterns)
                seen["redundant"] += len(fb.redundant)
                seen["unresolved"] += len(fb.unresolved)
                if not classify_only:  # the reference settles each pair miss one way
                    corners = 4 * (len(pairs) < len(missed))
                    settled = len(fb.patterns) - corners + len(fb.redundant) + len(fb.unresolved)
                    seen["corners"] += corners
                    seen["reused"] += len(pairs) - settled
        assert all(seen.values()), seen

    def test_one_pack_per_append_and_no_detects_call(self, monkeypatch):
        # every miss is read against the packed repair patterns: nothing
        # calls detects, and the repairs are packed again only on an append
        packs = []  # the number of patterns packed, per call
        pack = atpg._pack

        def counted_pack(network, patterns, dc_policy):
            packs.append(len(patterns))
            return pack(network, patterns, dc_policy)

        monkeypatch.setattr(atpg, "_pack", counted_pack)

        def no_detects(*args, **kwargs):
            raise AssertionError("fallback called detects")

        monkeypatch.setattr(atpg, "detects", no_detects)
        monkeypatch.setattr(simulate, "detects", no_detects)
        circuit = parse_circuit(REPAIR_TEXT)
        net = expand_network(circuit)
        sets = generate_sets(derive_pprm(circuit), net, ("T1", "T4")).ordered_sets()
        union = assemble_union(sets).test_set
        missed = evaluate_test_set(net, enumerate_faults(net), list(union)).faults_with(
            "undetected"
        )
        assert len(missed) >= 100
        assert all(f.kind is not FaultKind.EXOR_INTERNAL for f in missed)
        fb = fallback_search(net, missed)
        assert len(fb.patterns) >= 10
        assert packs == list(range(1, len(fb.patterns) + 1))  # one pattern per append
