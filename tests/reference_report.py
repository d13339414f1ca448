"""Reference routes for the fault universe and the report rows.

``eager_faults`` builds every ``BridgingFault`` of a netlist up front, in
canonical order, as enumeration did before ``FaultList`` became an indexed
view over class ranges.  ``dict_rows`` builds one dict per fault or verdict,
and per union row, and ``reference_render`` encodes a report whose rows are
such dicts with ``json.dumps(indent=2)``, a per-row csv writer, or per-row
text lines, as reporting did before rows came from one template.
Differential tests compare the library against both.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from typing import Mapping

from bridgetest import AndExorNetwork, BridgingFault, Evaluation, FaultVerdict, Polarity
from bridgetest.faults import FaultKind

_POLARITIES = (Polarity.WIRED_AND, Polarity.WIRED_OR)

_STATUS_LABEL = {
    "detected": "Detected",
    "undetected": "Undetected",
    "redundant": "Redundant",
    "unresolved": "Unresolved",
}


def eager_faults(
    network: AndExorNetwork,
    *,
    include_aux: bool = False,
    record_out_of_model: bool = False,
) -> tuple[tuple[BridgingFault, ...], dict[str, int], dict[str, int] | None]:
    """The fault tuple, class counts and out-of-model tally, built eagerly."""
    n, p, d = network.n, network.p, network.d
    x_lines = list(range(1, n + 1)) if include_aux else list(network.real_inputs())
    by_kind = {
        FaultKind.EXOR_INTERNAL: [BridgingFault.exor_internal(g) for g in range(1, d + 1)],
        FaultKind.X_PAIR: [
            BridgingFault.x_pair(i, j, pol)
            for i, j in itertools.combinations(x_lines, 2)
            for pol in _POLARITIES
        ],
        FaultKind.INTRA_LEVEL: [
            BridgingFault.intra_level(level, j1, j2, pol)
            for level in range(d + 1)
            for j1, j2 in itertools.combinations(range(1, p + 1), 2)
            for pol in _POLARITIES
        ],
        FaultKind.A_PAIR: [
            BridgingFault.a_pair(i, j, pol)
            for i, j in itertools.combinations(range(1, d + 1), 2)
            for pol in _POLARITIES
        ],
    }
    faults = tuple(itertools.chain.from_iterable(by_kind.values()))
    counts = {kind.value: len(group) for kind, group in by_kind.items()}

    out_of_model = None
    if record_out_of_model:
        n_x = len(x_lines)
        n_w = p * (d + 1)
        out_of_model = {
            "x-a": n_x * d * 2,
            "x-w": n_x * n_w * 2,
            "a-w": d * n_w * 2,
        }

    return faults, counts, out_of_model


def verdict_detail(verdict: FaultVerdict) -> str:
    if verdict.method is None:
        return ""
    if verdict.pattern_index is None:
        return verdict.method
    return f"{verdict.method}, pattern {verdict.pattern_index + 1}"


def _net_names(fault: BridgingFault) -> tuple[str, str]:
    ids = fault.ids
    if fault.kind is FaultKind.EXOR_INTERNAL:
        return f"g{ids[0]}", ""
    if fault.kind is FaultKind.X_PAIR:
        return f"x{ids[0]}", f"x{ids[1]}"
    if fault.kind is FaultKind.A_PAIR:
        return f"a{ids[0]}", f"a{ids[1]}"
    level, j1, j2 = ids
    return f"w{j1}@{level}", f"w{j2}@{level}"


def _fault_row(fault: BridgingFault) -> dict:
    line_a, line_b = _net_names(fault)
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


def dict_rows(report: dict, faults, evaluation: Evaluation | None = None, union=None) -> dict:
    """``report`` with its row section replaced by one dict per fault, or
    per verdict of ``evaluation`` when it is given, and the union's
    patterns by one dict per row and origin of ``union`` when it is given."""
    out = dict(report)
    if evaluation is None:
        out["faults"] = [_fault_row(fault) for fault in faults]
    else:
        out["verdicts"] = [_verdict_row(v) for v in evaluation.verdicts]
    if union is not None:
        out["union"] = {**report["union"], "patterns": [
            {"pattern": row, "origin": origin}
            for row, origin in zip(union.rows, union.origins, strict=True)
        ]}
    return out


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


def reference_render(report: dict, fmt: str) -> str:
    return {"json": _render_json, "csv": _render_csv, "text": _render_text}[fmt](report)
