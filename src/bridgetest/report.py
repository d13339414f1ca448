"""Coverage report assembly and rendering (json, csv, text).

Reports are plain dicts built in a fixed key order so that json output is
byte-stable for a given run configuration.  The timestamp is the only
non-deterministic field and the caller can leave it out.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from typing import Mapping, Sequence

from .atpg import BoundReport, UnionResult
from .circuit import ReversibleCircuit
from .faults import BridgingFault, FaultList
from .network import AndExorNetwork
from .patterns import TestSet
from .simulate import Evaluation, FaultVerdict

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_FORMATS",
    "verdict_detail",
    "build_coverage_report",
    "build_generation_report",
    "build_fault_report",
    "render_report",
]

SCHEMA_VERSION = 1
REPORT_FORMATS = ("json", "csv", "text")

_STATUS_LABEL = {
    "detected": "Detected",
    "undetected": "Undetected",
    "redundant": "Redundant",
    "unresolved": "Unresolved",
}


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def verdict_detail(verdict: FaultVerdict) -> str:
    """Human-oriented one-liner: proof method plus 1-based pattern ordinal."""
    if verdict.method is None:
        return ""
    if verdict.pattern_index is None:
        return verdict.method
    return f"{verdict.method}, pattern {verdict.pattern_index + 1}"


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
    counts = dict(faults.counts)
    counts["total"] = len(faults)
    report["fault_counts"] = counts
    if faults.out_of_model is not None:
        oom = dict(faults.out_of_model)
        oom["total"] = sum(faults.out_of_model.values())
        report["out_of_model"] = oom


def _sets_block(sets: Sequence[TestSet]) -> dict:
    return {
        ts.name: {
            "size": len(ts),
            "target_class": ts.target_class,
            "patterns": [pat.line() for pat in ts],
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


def _fault_row(fault: BridgingFault) -> dict:
    line_a, line_b = fault.lines()
    return {
        "class": fault.kind.value,
        "line_a": line_a,
        "line_b": line_b,
        "polarity": fault.polarity.value if fault.polarity else "",
    }


def _verdict_row(verdict: FaultVerdict) -> dict:
    row = _fault_row(verdict.fault)
    row["verdict"] = _STATUS_LABEL[verdict.status]
    row["detail"] = verdict_detail(verdict)
    return row


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
        {"pattern": pat.line(), "origin": pat.origin} for pat in union.test_set
    ]
    if bound is not None:
        report["bound"] = _bound_block(bound)
    total = len(evaluation.verdicts)
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
    report["verdicts"] = [_verdict_row(v) for v in evaluation.verdicts]
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
    report["faults"] = [_fault_row(fault) for fault in faults]
    return report


# ---------------------------------------------------------------------------
# rendering

def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "verdicts" in report:
        writer.writerow(["class", "line_a", "line_b", "polarity", "verdict", "detail"])
        for row in report["verdicts"]:
            writer.writerow([
                row["class"], row["line_a"], row["line_b"],
                row["polarity"], row["verdict"], row["detail"],
            ])
    elif "faults" in report:
        writer.writerow(["class", "line_a", "line_b", "polarity"])
        for row in report["faults"]:
            writer.writerow([row["class"], row["line_a"], row["line_b"], row["polarity"]])
    else:
        raise ValueError("report has no row section for csv output")
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
        for row in report["verdicts"]:
            if row["verdict"] == "Detected":
                continue
            where = " ".join(s for s in (row["line_a"], row["line_b"], row["polarity"]) if s)
            detail = f" ({row['detail']})" if row["detail"] else ""
            lines.append(f"  {row['verdict'].lower()}: {row['class']} {where}{detail}")
    if "faults" in report and "coverage" not in report:
        for row in report["faults"]:
            where = " ".join(s for s in (row["line_a"], row["line_b"], row["polarity"]) if s)
            lines.append(f"  {row['class']} {where}")
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format: {fmt!r}")
