"""Span recording for the traced run.

Spans are recorded from the benchmark's side: `instrument` replaces public
`bridgetest` functions, in the module namespaces the CLI looks them up in,
with wrappers that open a span (or bump a counter) around the original call.
`restore` puts the originals back, so traced and untraced passes can share
one process.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list
    op: int


class Recorder:
    """Spans and counters of the ops of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[k].name == name for k in self._open)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def traced(self, fn: Callable, name: str,
               on_result: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(args, kwargs, result)`` may count."""
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for k, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] += own
    return dict(totals)


# ---------------------------------------------------------------------------
# the layers

def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap the layer functions; returns the function that unwraps them."""
    from bridgetest import atpg, cli

    def count_faults(args, kwargs, result):
        rec.count("faults.count", len(result))

    def count_generation(args, kwargs, result):
        rec.count("atpg.t2_uncovered_pairs", len(result.t2_uncovered))
        rec.count("atpg.t3_uncovered_pairs", len(result.t3_uncovered))

    def count_grading(args, kwargs, result):
        network, faults, patterns = args[:3]
        rec.count("simulate.grade_calls")
        rec.count("simulate.fault_pattern_pairs", len(faults) * len(patterns))

    def count_fallback(args, kwargs, result):
        rec.count("atpg.fallback_unresolved", len(result.unresolved))

    def count_oracle(args, kwargs, result):
        rec.count("simulate.oracle_calls")
        rec.count("simulate.oracle_witnesses", result.detectable)

    def count_bytes(args, kwargs, result):
        rec.count("report.bytes", len(result.encode()))

    detects = atpg.detects

    def counted_detects(*args, **kwargs):
        if rec.inside("atpg.fallback"):
            rec.count("atpg.fallback_detects_calls")
        else:
            rec.count("atpg.gen_detects_calls")
        return detects(*args, **kwargs)

    layers: Iterable[tuple[object, str, str, Callable | None]] = (
        (cli, "parse_circuit", "circuit.parse", None),
        (cli, "normalize_zero_controls", "circuit.parse", None),
        (cli, "expand_network", "network.expand", None),
        (cli, "derive_pprm", "pprm.derive", None),
        (cli, "enumerate_faults", "faults.enumerate", count_faults),
        (cli, "generate_sets", "atpg.generate", count_generation),
        (atpg, "gen_input_and_tests", "atpg.gen_T2", None),
        (atpg, "gen_input_or_tests", "atpg.gen_T3", None),
        (cli, "evaluate_test_set", "simulate.grade", count_grading),
        (cli, "fallback_search", "atpg.fallback", count_fallback),
        (atpg, "exhaustive_detectability", "simulate.oracle", count_oracle),
        (cli, "parse_test_file", "patterns.parse", None),
        (cli, "format_patterns", "patterns.format", count_bytes),
        (cli, "build_coverage_report", "report.build", None),
        (cli, "build_generation_report", "report.build", None),
        (cli, "render_report", "report.render", count_bytes),
    )
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in layers]
    for module, attr, name, hook in layers:
        setattr(module, attr, rec.traced(getattr(module, attr), name, hook))
    originals.append((atpg, "detects", detects))
    atpg.detects = counted_detects

    def restore() -> None:
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    return restore
