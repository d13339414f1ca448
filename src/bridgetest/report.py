"""Coverage report assembly and rendering (json, csv, text).

A report is a dict in a fixed key order, so that json output is
byte-stable for a given run configuration.  Its last entry, the fault or
verdict rows, is a ``Rows`` view over the fault list and the evaluation.
Each row is a fault part (class, net names such as ``a3`` or ``w2@5``
formatted once per render, polarity) and a verdict part, formatted once per
distinct (status, method, first pattern).  Only the verdict part goes
through the csv module, as its detail ("simulation, pattern 3") holds a
comma; class labels and net names never need quoting.  No row value needs
json escaping, so ``json.dumps(indent=2)`` encodes only the header.  The
timestamp is the only non-deterministic field and the caller can omit it.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from datetime import datetime, timezone

from .atpg import BoundReport, UnionResult
from .circuit import ReversibleCircuit
from .faults import FaultKind, FaultList, Polarity
from .network import AndExorNetwork
from .patterns import TestSet
from .simulate import METHODS, STATUSES, Evaluation

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_FORMATS",
    "build_coverage_report",
    "build_generation_report",
    "build_fault_report",
    "render_report",
]

SCHEMA_VERSION = 1
REPORT_FORMATS = ("json", "csv", "text")

_STATUS_LABELS = tuple(status.capitalize() for status in STATUSES)
_POLARITY_LABELS = {None: "", **{polarity: polarity.value for polarity in Polarity}}
_FAULT_KEYS = ("class", "line_a", "line_b", "polarity")
_VERDICT_KEYS = _FAULT_KEYS + ("verdict", "detail")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _detail(method: str | None, pattern_index: int | None) -> str:
    """A verdict's detail cell: proof method plus 1-based pattern ordinal."""
    if method is None:
        return ""
    if pattern_index is None:
        return method
    return f"{method}, pattern {pattern_index + 1}"


class Rows:
    """A report's fault rows, or its verdict rows when ``evaluation`` is
    given, built as they are read: strings (``joined``) for json and csv,
    ``tuples`` for text.  ``keys`` names the fields of a row."""

    def __init__(self, faults: FaultList, evaluation: Evaluation | None = None) -> None:
        self.faults, self.evaluation = faults, evaluation
        self.keys = _FAULT_KEYS if evaluation is None else _VERDICT_KEYS

    def tuples(self) -> Iterator[tuple[str, ...]]:
        return self.joined(tuple, tuple, [(label,) for label in _POLARITY_LABELS.values()])

    def joined(
        self, head: Callable, verdict_part: Callable, labels: Iterable = _POLARITY_LABELS.values()
    ) -> Iterator:
        """Each row as ``head((class, line_a, line_b))`` + its label from ``labels``
        (ExorInternal, WiredAnd, WiredOr) + ``verdict_part((verdict, detail))``,
        called once per distinct verdict, or ``verdict_part(())`` on fault rows."""
        ev = self.evaluation
        if ev is None:
            end = verdict_part(())
            return self._fault_parts(head, [label + end for label in labels])
        parts = {(s, m, i): verdict_part((_STATUS_LABELS[s], _detail(METHODS[m], i)))
                 for s, m, i in set(zip(ev.status, ev.method, ev.first))}
        verdicts = map(parts.__getitem__, zip(ev.status, ev.method, ev.first))
        return map(operator.add, self._fault_parts(head, labels), verdicts)

    def _fault_parts(self, head: Callable, labels: Iterable) -> Iterator:
        exor, wired_and, wired_or = labels
        for gate_id in range(1, self.faults.d + 1):
            yield head((FaultKind.EXOR_INTERNAL.value, f"g{gate_id}", "")) + exor
        for names in self.faults.pair_names():
            pair = head(names)  # each pair's entries are WiredAnd then WiredOr
            yield pair + wired_and
            yield pair + wired_or


def _header(
    circuit: ReversibleCircuit, network: AndExorNetwork, config: Mapping, timestamp: bool
) -> dict:
    report: dict = {"schema_version": SCHEMA_VERSION}
    if timestamp:
        report["generated_at"] = _timestamp()
    report["circuit"] = {
        "name": circuit.name,
        "n": network.n,
        "p": network.p,
        "d": network.d,
        "constant_line": network.constant_line,
    }
    report["config"] = dict(config)
    return report


def _add_fault_counts(report: dict, faults: FaultList) -> None:
    report["fault_counts"] = {**faults.counts, "total": len(faults)}
    if faults.out_of_model is not None:
        oom = faults.out_of_model
        report["out_of_model"] = {**oom, "total": sum(oom.values())}


def _sets_block(sets: Sequence[TestSet]) -> dict:
    return {
        ts.name: {
            "size": len(ts),
            "target_class": ts.target_class,
            "patterns": list(ts.rows),
        }
        for ts in sets
    }


def _bound_block(bound: BoundReport) -> dict:
    return {
        "size": bound.size,
        "bound": bound.bound,
        "passed": bound.passed,
        "construction_size": bound.construction_size,
        "fallback_count": bound.fallback_count,
        "exceeds_construction": bound.exceeds_construction,
    }


def _union_block(union: UnionResult) -> dict:
    return {
        "size": len(union.test_set),
        "pre_dedup_size": union.pre_dedup_size,
        "removed": union.removed,
        "fallback_count": union.fallback_count,
    }


def build_coverage_report(
    circuit: ReversibleCircuit,
    network: AndExorNetwork,
    faults: FaultList,
    evaluation: Evaluation,
    sets: Sequence[TestSet],
    union: UnionResult,
    bound: BoundReport | None,
    config: Mapping,
    *,
    timestamp: bool = True,
) -> dict:
    report = _header(circuit, network, config, timestamp)
    _add_fault_counts(report, faults)
    report["test_sets"] = _sets_block(sets)
    report["union"] = _union_block(union)
    report["union"]["patterns"] = [
        {"pattern": row, "origin": origin}
        for row, origin in zip(union.test_set.rows, union.origins)
    ]
    if bound is not None:
        report["bound"] = _bound_block(bound)
    total = len(evaluation.status)
    redundant = evaluation.count("redundant")
    report["coverage"] = {
        "total": total,
        "testable": total - redundant,
        "detected": evaluation.count("detected"),
        "undetected": evaluation.count("undetected"),
        "redundant": redundant,
        "unresolved": evaluation.count("unresolved"),
        "fraction": round(evaluation.coverage(), 6),
    }
    report["exor_masks"] = {
        f"g{gate_id}": mask for gate_id, mask in enumerate(evaluation.masks, start=1)
    }
    report["verdicts"] = Rows(faults, evaluation)
    return report


def build_generation_report(
    circuit: ReversibleCircuit,
    network: AndExorNetwork,
    sets: Sequence[TestSet],
    union: UnionResult,
    bound: BoundReport,
    config: Mapping,
    *,
    timestamp: bool = True,
) -> dict:
    report = _header(circuit, network, config, timestamp)
    report["test_sets"] = _sets_block(sets)
    report["union"] = _union_block(union)
    report["bound"] = _bound_block(bound)
    return report


def build_fault_report(
    circuit: ReversibleCircuit,
    network: AndExorNetwork,
    faults: FaultList,
    config: Mapping,
    *,
    timestamp: bool = True,
) -> dict:
    report = _header(circuit, network, config, timestamp)
    _add_fault_counts(report, faults)
    report["faults"] = Rows(faults)
    return report


# ---------------------------------------------------------------------------
# rendering

def _row_key(report: dict) -> str | None:
    return next((key for key in ("verdicts", "faults") if key in report), None)


_JSON_HEAD = "    {\n" + "".join(f'      "{key}": "%s",\n' for key in _FAULT_KEYS[:3])
_JSON_HEAD += '      "polarity": "'


def _json_verdict(fields: tuple[str, ...]) -> str:
    end = '",\n      "verdict": "%s",\n      "detail": "%s"\n    }' if fields else '"\n    }'
    return end % fields


def _csv_verdict(fields: tuple[str, ...]) -> str:
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerow(fields)
    return ("," if fields else "") + buf.getvalue()


def _render_json(report: dict) -> str:
    key = _row_key(report)
    if key is None:
        return json.dumps(report, indent=2) + "\n"
    # the rows come last: encode the header, then splice them in before its "\n}"
    head = json.dumps({k: v for k, v in report.items() if k != key}, indent=2)
    body = ",\n".join(report[key].joined(_JSON_HEAD.__mod__, _json_verdict))
    body = f"[\n{body}\n  ]" if body else "[]"
    return f'{head[:-2]},\n  "{key}": {body}\n}}\n'


def _render_csv(report: dict) -> str:
    key = _row_key(report)
    if key is None:
        raise ValueError("report has no row section for csv output")
    buf = io.StringIO()  # holds the text, not a list of rows, before the copy out
    buf.write(",".join(report[key].keys) + "\n")
    buf.writelines(report[key].joined("%s,%s,%s,".__mod__, _csv_verdict))
    return buf.getvalue()


def _count_phrase(counts: Mapping[str, int]) -> str:
    parts = [f"{name} {counts[name]}" for name in counts if name != "total"]
    return ", ".join(parts)


def _render_text(report: dict) -> str:
    lines = [f"bridgetest report (schema {report['schema_version']})"]
    if "generated_at" in report:
        lines.append(f"generated: {report['generated_at']}")
    c = report["circuit"]
    aux = "" if c["constant_line"] is None else f"  constant line x{c['constant_line']}"
    lines.append(f"circuit: {c['name'] or '(unnamed)'}  n={c['n']}  p={c['p']}  d={c['d']}{aux}")
    if "fault_counts" in report:
        fc = report["fault_counts"]
        lines.append(f"faults: {fc['total']} ({_count_phrase(fc)})")
    if "out_of_model" in report:
        oom = report["out_of_model"]
        lines.append(f"out of model: {oom['total']} ({_count_phrase(oom)})")
    if "test_sets" in report:
        parts = [f"{name} {info['size']}" for name, info in report["test_sets"].items()]
        lines.append("sets: " + ", ".join(parts))
    if "union" in report:
        u = report["union"]
        extra = f", fallback {u['fallback_count']}"
        if u["removed"]:
            extra += f", deduplicated away {u['removed']}"
        lines.append(f"union: {u['size']} patterns (pre-dedup {u['pre_dedup_size']}{extra})")
    if "bound" in report:
        b = report["bound"]
        status = "pass" if b["passed"] else "FAIL"
        lines.append(f"bound: {b['size']} ≤ {b['bound']} ({status})")
        if b["exceeds_construction"]:
            lines.append(
                f"note: {b['fallback_count']} fallback pattern(s) beyond the construction"
            )
    if "coverage" in report:
        cov = report["coverage"]
        lines.append(
            f"coverage: {cov['detected']}/{cov['testable']} testable detected"
            f" ({cov['fraction'] * 100:.2f}%); redundant {cov['redundant']},"
            f" undetected {cov['undetected']}, unresolved {cov['unresolved']}"
        )
        for kind, *nets, verdict, detail in report["verdicts"].tuples():
            if verdict == "Detected":
                continue
            where = " ".join(s for s in nets if s)
            detail = f" ({detail})" if detail else ""
            lines.append(f"  {verdict.lower()}: {kind} {where}{detail}")
    if "faults" in report and "coverage" not in report:
        for kind, *nets in report["faults"].tuples():
            lines.append(f"  {kind} {' '.join(s for s in nets if s)}")
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format: {fmt!r}")
