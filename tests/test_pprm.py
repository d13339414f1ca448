"""Product-term derivation, canonicalization, and the zero-cofactor
restriction that the T3 reference uses."""

import random

from bridgetest import expand_network
from bridgetest.pprm import PprmFunction, Term, derive_pprm

from conftest import random_circuit
from reference_sim import eval_good
from reference_t3 import restrict


def test_derive_benchmark_term_multisets(bench):
    f1, f2, f3 = derive_pprm(bench)
    assert f1.output_index == 1
    assert len(f1.term_multiset) == 12
    assert f1.term_multiset[0] == frozenset({1})
    assert f1.term_multiset[11] == frozenset({1, 2, 3, 4, 5})
    assert [sorted(t) for t in f2.term_multiset] == [
        [3, 4], [4, 7], [5, 6, 7], [3, 4, 5, 6, 7]
    ]
    assert [sorted(t) for t in f3.term_multiset] == [[6, 7], [5, 6, 7], [3, 4, 5]]


def test_canonical_sorted_by_size_then_lex(bench):
    f1 = derive_pprm(bench)[0]
    # all 12 benchmark terms are distinct, so nothing cancels
    assert len(f1.canonical_terms) == 12
    keys = [(len(t), tuple(sorted(t))) for t in f1.canonical_terms]
    assert keys == sorted(keys)
    assert [sorted(t) for t in f1.canonical_terms[:5]] == [
        [1], [2], [4], [5], [1, 2]
    ]


def test_canonical_cancels_duplicate_terms():
    f = PprmFunction.from_terms(1, [frozenset({1}), frozenset({1})])
    assert f.term_multiset == (frozenset({1}), frozenset({1}))
    assert f.canonical_terms == ()
    assert f.evaluate([1]) == 0

    g = PprmFunction.from_terms(1, [Term({1}), Term({1}), Term({1})])
    assert g.canonical_terms == (frozenset({1}),)


def test_evaluate_examples(bench):
    f1, f2, f3 = derive_pprm(bench)
    all_one = [1] * 7
    # every term active: parity of the term counts
    assert f1.evaluate(all_one) == 12 % 2 == 0
    assert f2.evaluate(all_one) == 0
    assert f3.evaluate(all_one) == 1
    assert f1.evaluate([1, 0, 0, 0, 0, 0, 0]) == 1
    assert f2.evaluate([0, 0, 1, 1, 0, 0, 0]) == 1


def test_evaluate_matches_gate_level_simulation(bench):
    # dual route: term parity must equal the cascade simulation with c = 0
    net = expand_network(bench)
    pprms = derive_pprm(bench)
    rng = random.Random(3)
    for _ in range(200):
        x = [rng.randint(0, 1) for _ in range(7)]
        outputs = eval_good(net, "000" + "".join(map(str, x))).outputs
        assert [f.evaluate(x) for f in pprms] == list(outputs)


def test_evaluate_matches_simulation_random_circuits():
    rng = random.Random(4)
    for i in range(20):
        c = random_circuit(rng, i)
        net = expand_network(c)
        pprms = derive_pprm(c)
        for _ in range(20):
            x = [rng.randint(0, 1) for _ in range(c.n)]
            outputs = eval_good(net, "0" * c.p + "".join(map(str, x))).outputs
            assert [f.evaluate(x) for f in pprms] == list(outputs)


def test_restrict_drops_touching_terms(bench):
    f1 = derive_pprm(bench)[0]
    sub = restrict(f1, {1})
    assert sorted(tuple(sorted(t)) for t in sub.term_multiset) == [
        (2,), (2, 6), (3, 4), (3, 5), (4,), (5,)
    ]
    assert restrict(f1, {1, 2, 3, 4, 5}).term_multiset == ()
    assert restrict(f1, ()).term_multiset == f1.term_multiset


def test_restrict_keeps_physical_order(bench):
    f2 = derive_pprm(bench)[1]
    sub = restrict(f2, {3})
    assert [sorted(t) for t in sub.term_multiset] == [[4, 7], [5, 6, 7]]
