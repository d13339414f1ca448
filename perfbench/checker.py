"""Reference checker for `bridgetest` outputs.

Nothing here imports `bridgetest`: the netlist reader, the fault universe and
the evaluator are written again from the file format and the fault model, so
a defect in the program cannot hide itself in the check.

One evaluator serves both purposes.  Its nets are Python integers combined
with ``&``, ``|`` and ``^``: with 0/1 values it is a scalar per-pattern
simulator, and with truth-table columns (bit v = value under assignment v)
it evaluates every assignment at once, which proves redundancy.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field

# Redundant verdicts are re-proved by truth tables up to this width.  It
# covers every circuit the benchmark generates, including the slice above
# the program's default oracle cap (22).
CHECK_CAP = 24

EXOR_INTERNAL, X_PAIR, INTRA_LEVEL, A_PAIR = "ExorInternal", "XPair", "IntraLevel", "APair"
WIRED_AND, WIRED_OR = "WiredAnd", "WiredOr"
POLARITIES = (WIRED_AND, WIRED_OR)

Fault = tuple  # (kind, ids, polarity or None)


@dataclass(frozen=True)
class Netlist:
    """A normalized k-CNOT netlist: 0-control gates read the constant line."""

    n: int
    p: int
    supports: tuple[tuple[int, ...], ...]
    targets: tuple[int, ...]
    constant_line: int | None = None

    @property
    def d(self) -> int:
        return len(self.supports)

    @property
    def width(self) -> int:
        return self.n + self.p

    def real_inputs(self) -> list[int]:
        return [v for v in range(1, self.n + 1) if v != self.constant_line]


def read_netlist(text: str) -> Netlist:
    """Parse the `.n/.p/.gate/.end` format and normalize 0-control gates
    onto one shared constant-one line appended as input n+1."""
    n = p = None
    gates = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks or toks[0] == ".end":
            continue
        if toks[0] == ".n":
            n = int(toks[1])
        elif toks[0] == ".p":
            p = int(toks[1])
        elif toks[0] == ".gate" and toks[2] == ":":
            gates.append((int(toks[1][1:]), tuple(int(t[1:]) for t in toks[3:])))
        else:
            raise ValueError(f"unreadable netlist line: {raw!r}")
    if n is None or p is None:
        raise ValueError("netlist lacks .n or .p")
    constant = None
    if any(not ctrl for _, ctrl in gates):
        n += 1
        constant = n
    return Netlist(
        n, p,
        tuple(ctrl or (constant,) for _, ctrl in gates),
        tuple(t for t, _ in gates),
        constant,
    )


def fault_universe(net: Netlist) -> list[Fault]:
    """In-model faults in the order the reports list them."""
    out: list[Fault] = [(EXOR_INTERNAL, (g,), None) for g in range(1, net.d + 1)]
    for i, j in itertools.combinations(net.real_inputs(), 2):
        out += [(X_PAIR, (i, j), pol) for pol in POLARITIES]
    for level in range(net.d + 1):
        for j1, j2 in itertools.combinations(range(1, net.p + 1), 2):
            out += [(INTRA_LEVEL, (level, j1, j2), pol) for pol in POLARITIES]
    for i, j in itertools.combinations(range(1, net.d + 1), 2):
        out += [(A_PAIR, (i, j), pol) for pol in POLARITIES]
    return out


def size_bound(net: Netlist) -> int:
    """The paper's test-length bound 3n + ceil(log2 p) + 2 (real inputs only)."""
    return 3 * len(net.real_inputs()) + (net.p - 1).bit_length() + 2


# ---------------------------------------------------------------------------
# evaluation

def _bridge(u: int, v: int, polarity: str) -> int:
    return u & v if polarity == WIRED_AND else u | v


def evaluate(net: Netlist, c: list[int], x: list[int], fault: Fault | None,
             ones: int = 1) -> tuple[list[int], list[tuple[int, int]]]:
    """Output values and, per gate, its EXOR's (left, right) input values.

    ``c`` and ``x`` hold bits (``ones`` = 1) or truth-table columns
    (``ones`` = the all-ones column).
    """
    kind, ids, pol = fault if fault is not None else (None, (), None)
    x = list(x)
    if kind == X_PAIR:
        x[ids[0] - 1] = x[ids[1] - 1] = _bridge(x[ids[0] - 1], x[ids[1] - 1], pol)
    a = []
    for sup in net.supports:
        v = ones
        for i in sup:
            v &= x[i - 1]
        a.append(v)
    if kind == A_PAIR:
        a[ids[0] - 1] = a[ids[1] - 1] = _bridge(a[ids[0] - 1], a[ids[1] - 1], pol)
    w = list(c)
    exor_inputs = []
    for level in range(net.d + 1):
        if level:
            t = net.targets[level - 1]
            exor_inputs.append((w[t - 1], a[level - 1]))
            w[t - 1] ^= a[level - 1]
        if kind == INTRA_LEVEL and ids[0] == level:
            j1, j2 = ids[1] - 1, ids[2] - 1
            w[j1] = w[j2] = _bridge(w[j1], w[j2], pol)
    return w, exor_inputs


def pattern_bits(net: Netlist, pattern: str) -> tuple[list[int], list[int]]:
    """c and x bits of a pattern string; don't-cares filled with 0."""
    if len(pattern) != net.width or set(pattern) - set("01d"):
        raise ValueError(f"pattern {pattern!r} is not {net.width} symbols over 01d")
    bits = [1 if ch == "1" else 0 for ch in pattern]
    return bits[: net.p], bits[net.p:]


def _input_column(bit: int, width: int) -> int:
    """Truth-table column of the input at weight 2**bit over 2**width assignments."""
    if bit >= 3:
        run = 1 << (bit - 3)
        block = b"\x00" * run + b"\xff" * run
    else:
        block = bytes([(0xAA, 0xCC, 0xF0)[bit]])
    total = max(1, (1 << width) // 8)
    col = int.from_bytes(block * (total // len(block)), "little")
    return col & ((1 << (1 << width)) - 1)


class Grader:
    """Scalar and truth-table evaluation of one netlist, with the good
    values cached."""

    def __init__(self, net: Netlist, patterns: list[str]):
        self.net = net
        self.patterns = patterns
        self._bits = [pattern_bits(net, pat) for pat in patterns]
        self._good = [evaluate(net, c, x, None) for c, x in self._bits]
        self._columns = None

    def detects(self, fault: Fault, index: int) -> bool:
        c, x = self._bits[index]
        return evaluate(self.net, c, x, fault)[0] != self._good[index][0]

    def first_detect(self, fault: Fault) -> int | None:
        return next((k for k in range(len(self.patterns)) if self.detects(fault, k)), None)

    def mask_full_at(self, gate: int) -> int | None:
        """First pattern index by which the gate's EXOR saw all four inputs."""
        seen = set()
        for k, (_, exor_inputs) in enumerate(self._good):
            seen.add(exor_inputs[gate - 1])
            if len(seen) == 4:
                return k
        return None

    def is_redundant(self, fault: Fault) -> bool:
        """Truth-table proof: no assignment (constant line at 1) detects it."""
        net = self.net
        if net.width > CHECK_CAP:
            raise ValueError(f"width {net.width} above the checker's cap {CHECK_CAP}")
        if self._columns is None:
            cols = [_input_column(net.width - 1 - k, net.width) for k in range(net.width)]
            ones = (1 << (1 << net.width)) - 1
            care = cols[net.p + net.constant_line - 1] if net.constant_line else ones
            good = evaluate(net, cols[: net.p], cols[net.p:], None, ones)[0]
            self._columns = (cols, ones, care, good)
        cols, ones, care, good = self._columns
        faulty = evaluate(net, cols[: net.p], cols[net.p:], fault, ones)[0]
        diff = 0
        for g, f in zip(good, faulty):
            diff |= g ^ f
        return diff & care == 0

    def constant_exor(self, fault: Fault) -> bool:
        """ExorInternal of a gate fed only by the constant line: unsatisfiable."""
        sup = self.net.supports[fault[1][0] - 1]
        return self.net.constant_line is not None and sup == (self.net.constant_line,)


# ---------------------------------------------------------------------------
# verdict checks

def parse_fault(kind: str, line_a: str, line_b: str, polarity: str) -> Fault:
    """Fault of a report row (`g3`, `x1/x4`, `a2/a7`, `w1@5/w3@5`)."""
    if kind == EXOR_INTERNAL:
        return (kind, (int(line_a[1:]),), None)
    if kind in (X_PAIR, A_PAIR):
        return (kind, (int(line_a[1:]), int(line_b[1:])), polarity)
    (j1, level), (j2, _) = (s[1:].split("@") for s in (line_a, line_b))
    return (kind, (int(level), int(j1), int(j2)), polarity)


@dataclass
class OpCheck:
    """What the checker found in one op's output."""

    faults: int = 0
    patterns: int = 0
    fallback: int = 0
    detected: int = 0
    redundant: int = 0
    undetected: int = 0
    unresolved: int = 0
    bound_violation: bool = False
    errors: list[str] = field(default_factory=list)

    @property
    def testable(self) -> int:
        return self.faults - self.redundant

    def expected_exit(self) -> int:
        return 1 if self.undetected else 4 if self.unresolved else 0


def _detail_index(detail: str) -> int | None:
    _, sep, tail = detail.partition(", pattern ")
    return int(tail) - 1 if sep else None


def check_verdicts(grader: Grader, rows: list[tuple], out: OpCheck) -> None:
    """Check each (class, line_a, line_b, polarity, verdict, detail) row."""
    universe = fault_universe(grader.net)
    out.faults = len(universe)
    if len(rows) != len(universe):
        out.errors.append(f"{len(rows)} verdict rows for {len(universe)} faults")
        return
    for row, expected in zip(rows, universe):
        fault = parse_fault(*row[:4])
        verdict, detail = row[4], row[5]
        if fault != expected:
            out.errors.append(f"row {row[:4]} out of order; expected {expected}")
            return
        problem = _disproof(grader, fault, verdict, detail)
        if problem:
            out.errors.append(f"{fault}: {verdict} ({detail}): {problem}")
        out.detected += verdict == "Detected"
        out.redundant += verdict == "Redundant"
        out.undetected += verdict == "Undetected"
        out.unresolved += verdict == "Unresolved"


def _disproof(grader: Grader, fault: Fault, verdict: str, detail: str) -> str | None:
    """Why the verdict is wrong, or None when it holds."""
    exor = fault[0] == EXOR_INTERNAL
    index = _detail_index(detail)
    if verdict == "Detected":
        if index is None or not 0 <= index < len(grader.patterns):
            return "no valid pattern cited"
        if exor:
            full = grader.mask_full_at(fault[1][0])
            return None if full is not None and full <= index else "EXOR inputs incomplete"
        return None if grader.detects(fault, index) else "cited pattern does not detect"
    if verdict == "Redundant":
        if detail == "constant-line":
            return None if exor and grader.constant_exor(fault) else "not a constant-line gate"
        if exor:
            return "ExorInternal proven redundant without a constant line"
        if grader.net.width > CHECK_CAP:
            return None  # cannot be re-proved here
        return None if grader.is_redundant(fault) else "a detecting assignment exists"
    if verdict in ("Undetected", "Unresolved"):
        if exor:
            return None if grader.mask_full_at(fault[1][0]) is None else "EXOR inputs complete"
        k = grader.first_detect(fault)
        return None if k is None else f"pattern {k + 1} detects it"
    return "unknown verdict"


# ---------------------------------------------------------------------------
# per-format entry points

def check_verify_json(net: Netlist, report: bytes, exit_code: int) -> OpCheck:
    """`verify --format json`: union patterns, verdict rows, counts, bound."""
    out = OpCheck()
    doc = json.loads(report)
    circ = doc["circuit"]
    if (circ["n"], circ["p"], circ["d"], circ["constant_line"]) != (
            net.n, net.p, net.d, net.constant_line):
        out.errors.append(f"circuit block {circ} does not match the netlist")
        return out
    patterns = [row["pattern"] for row in doc["union"]["patterns"]]
    origins = [row["origin"] for row in doc["union"]["patterns"]]
    out.patterns = len(patterns)
    out.fallback = origins.count("Fallback")
    out.bound_violation = len(patterns) > size_bound(net)
    if doc["bound"]["bound"] != size_bound(net) or doc["bound"]["passed"] == out.bound_violation:
        out.errors.append(f"bound block {doc['bound']} disagrees with {size_bound(net)}")
    rows = [(r["class"], r["line_a"], r["line_b"], r["polarity"], r["verdict"], r["detail"])
            for r in doc["verdicts"]]
    check_verdicts(Grader(net, patterns), rows, out)
    cov = doc["coverage"]
    counts = (out.faults, out.detected, out.redundant, out.undetected, out.unresolved)
    if (cov["total"], cov["detected"], cov["redundant"], cov["undetected"],
            cov["unresolved"]) != counts:
        out.errors.append(f"coverage block {cov} disagrees with the rows {counts}")
    _check_exit(out, exit_code)
    return out


def check_simulate_csv(net: Netlist, report: bytes, tests: str, exit_code: int) -> OpCheck:
    """`simulate --format csv`: verdict rows against the user's test file."""
    out = OpCheck()
    patterns = ["".join(line.split("#", 1)[0].split()) for line in tests.splitlines()]
    patterns = [pat for pat in patterns if pat]
    out.patterns = len(patterns)
    rows = [tuple(r) for r in csv.reader(io.StringIO(report.decode()))]
    if not rows or rows[0] != ("class", "line_a", "line_b", "polarity", "verdict", "detail"):
        out.errors.append("csv header missing")
        return out
    check_verdicts(Grader(net, patterns), rows[1:], out)
    _check_exit(out, exit_code)
    return out


def check_atpg_text(net: Netlist, report: bytes, exit_code: int) -> OpCheck:
    """`atpg --fallback` text output: a test file that must detect every fault
    the truth tables call detectable."""
    out = OpCheck()
    patterns, origin = [], None
    for line in report.decode().splitlines():
        if line.startswith("#"):
            origin = line[1:].strip()
            continue
        patterns.append(line.strip())
        out.fallback += origin == "Fallback"
    out.patterns = len(patterns)
    out.bound_violation = len(patterns) > size_bound(net)
    grader = Grader(net, patterns)
    universe = fault_universe(net)
    out.faults = len(universe)
    for fault in universe:
        if fault[0] == EXOR_INTERNAL:
            hit = grader.mask_full_at(fault[1][0]) is not None
            proven = not hit and grader.constant_exor(fault)
        else:
            hit = grader.first_detect(fault) is not None
            proven = not hit and net.width <= CHECK_CAP and grader.is_redundant(fault)
        if hit:
            out.detected += 1
        elif proven:
            out.redundant += 1
        elif net.width <= CHECK_CAP:
            out.errors.append(f"{fault}: detectable but no pattern detects it")
            out.undetected += 1
        else:
            out.unresolved += 1
    if exit_code != 0:
        out.errors.append(f"exit code {exit_code}, expected 0")
    return out


def _check_exit(out: OpCheck, exit_code: int) -> None:
    if exit_code != out.expected_exit():
        out.errors.append(f"exit code {exit_code} disagrees with the counts"
                          f" (expected {out.expected_exit()})")
