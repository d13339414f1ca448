"""Coverage report assembly and rendering (json, csv, text).

A report is a dict in a fixed key order, so that json output is
byte-stable for a given run configuration.  Its last entry, the fault or
verdict rows, is a ``Rows`` view over the fault list and the evaluation,
and the union's patterns are a ``UnionRows`` view that only json reads.
A render is one ``"".join`` over a flat list of two pieces per row: its
head (class and net names such as ``a3`` or ``w2@5``, built by one
comprehension per class level and shared by a pair's two polarity rows),
then its polarity label and verdict cell, encoded once per distinct
verdict.  Only the cells go through the csv module, as their detail
("simulation, pattern 3") holds a comma; class labels and net names never
need quoting.  No row value needs json escaping, and ``_json`` writes the
header as ``json.dumps(indent=2)`` does.
The timestamp, the only non-deterministic field, can be left out.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _json_str

from .atpg import UnionResult
from .circuit import AndExorNetwork
from .faults import FaultKind, FaultList, Polarity
from .simulate import DETECTED, METHODS, STATUSES, Evaluation

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
_EXOR = FaultKind.EXOR_INTERNAL.value
_MISS = re.compile(b"[^%c]" % DETECTED)  # a status byte other than detected


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _detail(status: int, exor: bool, first: int | None) -> str:
    """A verdict's detail cell: its method (``METHODS``) plus 1-based pattern ordinal."""
    method = METHODS.get((status, exor), "")
    return method if first is None or not method else f"{method}, pattern {first + 1}"


class Rows:
    """A report's fault rows, or its verdict rows when ``evaluation`` is
    given, built as they are read: ``pieces`` of text to join."""

    def __init__(self, faults: FaultList, evaluation: Evaluation | None = None) -> None:
        self.faults, self.evaluation = faults, evaluation

    def pieces(self, heads: Callable, encode: Callable,
               labels: Sequence = tuple(_POLARITY_LABELS.values())) -> list[str]:
        """Two strings per row: its head, then its label out of ``labels``
        (ExorInternal, WiredAnd, WiredOr) and its cell.  ``heads(class,
        pairs)`` returns one head per ``(line_a, line_b)`` pair, called for
        the ExorInternal rows (``("g1", "")`` on) and once per pair-class
        level.  ``encode`` is called once, on the distinct (verdict, detail)
        pairs, or on ``[()]`` for fault rows, and returns their cells."""
        d, pairs = self.faults.d, (len(self.faults) - self.faults.d) // 2
        out: list = [None] * (2 * len(self.faults))
        out[0 : 2 * d : 2] = heads(_EXOR, [(f"g{g}", "") for g in range(1, d + 1)])
        pair_heads: list[str] = []
        for label, names in self.faults.level_names():
            pair_heads += heads(label, itertools.combinations(names, 2))
        out[2 * d :: 4] = out[2 * d + 2 :: 4] = pair_heads
        ev = self.evaluation
        if ev is None:
            end = encode([()])[0]
            out[1 : 2 * d : 2], out[2 * d + 1 :: 4], out[2 * d + 3 :: 4] = (
                [label + end] * count for label, count in zip(labels, (d, pairs, pairs)))
            return out
        # Outside ExorInternal, a detected entry is detected by simulation at
        # its first pattern, so most cells follow from ``first``; the
        # ExorInternal entries and the misses are patched in.
        patched = [*range(d), *map(re.Match.start, _MISS.finditer(ev.status))]
        keys = [*{(ev.status[k], k < d, ev.first[k]) for k in patched}]
        firsts = [*set(ev.first) - {None}]
        cells = encode([(_STATUS_LABELS[key[0]], _detail(*key)) for key in keys]
                       + [("Detected", _detail(DETECTED, False, i)) for i in firsts])
        for k, label in ((d, labels[1]), (d + 1, labels[2])):  # WiredAnd, then WiredOr rows
            tails = dict(zip(firsts, map(label.__add__, cells[len(keys) :])))
            out[2 * k + 1 :: 4] = map(tails.get, ev.first[k::2])
        patches = dict(zip(keys, cells))
        for k in patched:
            label = labels[0] if k < d else labels[1 + (k - d) % 2]
            out[2 * k + 1] = label + patches[ev.status[k], k < d, ev.first[k]]
        return out


class UnionRows:
    """The union's rows and their origins, which only json reads, as one
    ``{"pattern", "origin"}`` object per row."""

    def __init__(self, union: UnionResult) -> None:
        self.rows, self.origins = union.rows, union.origins

    def json(self, indent: str) -> str:
        row = '{0}  {{{0}    "pattern": %s,{0}    "origin": %s{0}  }}'.format(indent)
        pairs = zip(map(_json_str, self.rows), map(_json_str, self.origins))
        body = ",".join([row % pair for pair in pairs])
        return f"[{body}{indent}]" if body else "[]"


def _header(network: AndExorNetwork, config: Mapping, timestamp: bool) -> dict:
    report: dict = {"schema_version": SCHEMA_VERSION}
    if timestamp:
        report["generated_at"] = _timestamp()
    report["circuit"] = {"name": network.name, "n": network.n, "p": network.p, "d": network.d,
                         "constant_line": network.constant_line}
    report["config"] = dict(config)
    return report


def _add_fault_counts(report: dict, faults: FaultList) -> None:
    report["fault_counts"] = {**faults.counts, "total": len(faults)}
    if faults.out_of_model is not None:
        oom = faults.out_of_model
        report["out_of_model"] = {**oom, "total": sum(oom.values())}


# the fault class each generated set aims at; a user file's set aims at none
_TARGET_CLASSES = {"T1": _EXOR, "T2": "XPair/WiredAnd", "T3": "XPair/WiredOr",
                   "T4": FaultKind.INTRA_LEVEL.value, "T5": FaultKind.A_PAIR.value}


def _sets_block(sets: Mapping[str, list[str]]) -> dict:
    return {name: {"size": len(rows), "target_class": _TARGET_CLASSES.get(name, ""),
                   "patterns": rows} for name, rows in sets.items()}


def _bound_block(union: UnionResult, bound: int) -> dict:
    # fallback rows sit outside the construction, so they are flagged even
    # when the size still fits
    size, fallback = union.pre_dedup_size, union.fallback_count
    return {"size": size, "bound": bound, "passed": size <= bound,
            "construction_size": size - fallback, "fallback_count": fallback,
            "exceeds_construction": fallback > 0}


def _union_block(union: UnionResult) -> dict:
    return {"size": len(union.rows), "pre_dedup_size": union.pre_dedup_size,
            "removed": union.removed, "fallback_count": union.fallback_count}


def build_coverage_report(
    evaluation: Evaluation, sets: Mapping[str, list[str]], union: UnionResult,
    bound: int | None, config: Mapping, *, timestamp: bool = True,
) -> dict:
    faults = evaluation.faults
    report = _header(faults.network, config, timestamp)
    _add_fault_counts(report, faults)
    report["test_sets"] = _sets_block(sets)
    report["union"] = {**_union_block(union), "patterns": UnionRows(union)}
    if bound is not None:
        report["bound"] = _bound_block(union, bound)
    total = len(evaluation.status)
    redundant = evaluation.count("redundant")
    report["coverage"] = {
        "total": total, "testable": total - redundant, "detected": evaluation.count("detected"),
        "undetected": evaluation.count("undetected"), "redundant": redundant,
        "unresolved": evaluation.count("unresolved"), "fraction": round(evaluation.coverage(), 6),
    }
    report["exor_masks"] = {f"g{g}": mask for g, mask in enumerate(evaluation.masks, start=1)}
    report["verdicts"] = Rows(faults, evaluation)
    return report


def build_generation_report(
    network: AndExorNetwork, sets: Mapping[str, list[str]], union: UnionResult,
    bound: int, config: Mapping, *, timestamp: bool = True,
) -> dict:
    report = _header(network, config, timestamp)
    report["test_sets"] = _sets_block(sets)
    report["union"] = _union_block(union)
    report["bound"] = _bound_block(union, bound)
    return report


def build_fault_report(faults: FaultList, config: Mapping, *, timestamp: bool = True) -> dict:
    report = _header(faults.network, config, timestamp)
    _add_fault_counts(report, faults)
    report["faults"] = Rows(faults)
    return report


# ---------------------------------------------------------------------------
# rendering

def _row_key(report: dict) -> str | None:
    return next((key for key in ("verdicts", "faults") if key in report), None)


_JSON_WORDS = {"None": "null", "True": "true", "False": "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for str-keyed dicts, lists, tuples,
    strings, ints, floats, bools and None, and for a ``UnionRows`` view."""
    inner = indent + "  "
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, dict):
        items = ",".join([f"{inner}{_json_str(k)}: {_json(v, inner)}" for k, v in value.items()])
        return f"{{{items}{indent}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = ",".join([inner + _json(v, inner) for v in value])
        return f"[{items}{indent}]" if items else "[]"
    if value is None or isinstance(value, (int, float)):  # a bool is an int
        return _JSON_WORDS.get(text := repr(value), text)
    return value.json(indent)


def _json_heads(label: str, pairs: Iterable[tuple[str, str]]) -> list[str]:
    return [f'    {{\n      "class": "{label}",\n      "line_a": "{a}",\n      "line_b": "{b}",\n'
            '      "polarity": "' for a, b in pairs]


def _json_cells(fields: list[tuple[str, ...]]) -> list[str]:
    end = '",\n      "verdict": "%s",\n      "detail": "%s"\n    },\n'
    return [end % cell if cell else '"\n    },\n' for cell in fields]


def _csv_cells(fields: list[tuple[str, ...]]) -> list[str]:
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerows(fields)
    lines = buf.getvalue().splitlines(True)
    return [("," if cell else "") + line for cell, line in zip(fields, lines)]


def _render_json(report: dict) -> str:
    key = _row_key(report)
    if key is None:
        return _json(report) + "\n"
    # the rows come last: encode the header, then join them in before its "\n}"
    head = _json({k: v for k, v in report.items() if k != key})
    pieces = report[key].pieces(_json_heads, _json_cells)
    if not pieces:
        return f'{head[:-2]},\n  "{key}": []\n}}\n'
    pieces[-1] = pieces[-1][:-2] + "\n  ]\n}\n"  # the last row takes no comma
    pieces.insert(0, f'{head[:-2]},\n  "{key}": [\n')
    return "".join(pieces)


def _render_csv(report: dict) -> str:
    key = _row_key(report)
    if key is None:
        raise ValueError("report has no row section for csv output")
    pieces = report[key].pieces(lambda label, pairs: [f"{label},{a},{b}" for a, b in pairs],
                                _csv_cells, (",", ",WiredAnd", ",WiredOr"))
    pieces.insert(0, "class,line_a,line_b,polarity,verdict,detail\n" if key == "verdicts"
                  else "class,line_a,line_b,polarity\n")
    return "".join(pieces)


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
        ev, faults = report["verdicts"].evaluation, report["verdicts"].faults
        for k in map(re.Match.start, _MISS.finditer(ev.status)):
            fault, detail = faults[k], _detail(ev.status[k], k < faults.d, ev.first[k])
            where = " ".join(filter(None, (*fault.lines(), _POLARITY_LABELS[fault.polarity])))
            detail = f" ({detail})" if detail else ""
            lines.append(f"  {STATUSES[ev.status[k]]}: {fault.kind.value} {where}{detail}")
    if "faults" in report and "coverage" not in report:
        pieces = report["faults"].pieces(
            lambda label, pairs: [f"  {label} {a} {b}".rstrip() for a, b in pairs],  # b may be ""
            lambda _: ["\n"], ("", " WiredAnd", " WiredOr"))
        pieces.insert(0, "\n".join(lines) + "\n")
        return "".join(pieces)
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format: {fmt!r}")
