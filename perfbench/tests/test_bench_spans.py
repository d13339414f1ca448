import pytest

import spans
from spans import Recorder, Span, self_time_by_name, self_times


def test_self_time_subtracts_children_once_and_clipped():
    tree = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: [1, 5] is covered once
        Span("c", 9.0, 12.0, 0, 0),  # runs past the parent: only [9, 10] counts
        Span("leaf", 1.5, 2.5, 1, 0),  # grandchild: charged to a, not root
    ]
    assert self_times(tree) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_self_times_sum_to_root_duration():
    tree = [
        Span("cli", 0.0, 8.0, None, 0),
        Span("simulate.grade", 1.0, 4.0, 0, 0),
        Span("atpg.fallback", 4.0, 7.0, 0, 0),
        Span("simulate.oracle", 5.0, 6.5, 2, 0),
        Span("cli", 10.0, 11.0, None, 1),
    ]
    by_name = self_time_by_name(tree)
    assert by_name == pytest.approx({
        "cli": 2.0 + 1.0, "simulate.grade": 3.0,
        "atpg.fallback": 1.5, "simulate.oracle": 1.5,
    })
    assert sum(by_name.values()) == pytest.approx(8.0 + 1.0)


def test_recorder_nests_spans_and_keeps_op_ids():
    rec = Recorder()
    rec.op = 7
    inner = rec.traced(lambda: rec.inside("outer"), "inner")
    outer = rec.traced(lambda: inner(), "outer",
                       on_result=lambda args, kwargs, result: rec.count("hits", result))
    assert outer() is True
    assert [(s.name, s.parent, s.op) for s in rec.spans] == [("outer", None, 7), ("inner", 0, 7)]
    assert rec.counts["hits"] == 1
    assert not rec.inside("outer")


def test_instrument_restores_the_original_functions():
    from bridgetest import atpg, cli

    before = (cli.evaluate_test_set, atpg.detects, atpg.gen_input_or_tests)
    restore = spans.instrument(Recorder())
    assert cli.evaluate_test_set is not before[0]
    restore()
    assert (cli.evaluate_test_set, atpg.detects, atpg.gen_input_or_tests) == before
