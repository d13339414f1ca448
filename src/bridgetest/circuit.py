"""Reversible k-CNOT circuits as AND-EXOR networks: the record, its text
format, 0-control normalization.

A circuit has n pass-through inputs (x1..xn) and p target lines (c1..cp).
Every gate ANDs a set of x inputs and XORs the product onto one c line.
Gate order is structural: the gate at 1-based position L fires at level L,
and the gate count d is the deepest level of the cascade.

Read as a netlist, gate L is one k-input AND (output net a_L) feeding a
2-input EXOR on its target line, so the gate list is the network itself.
Cascade wires are wj@0 = c_j up to wj@d = f_j; the EXOR of gate L reads
w<target>@(L-1) on its left input and a_L on its right input.  Reports
name the nets this way.  The network also carries the circuit's name, for
report headers; two networks that differ only in their names are not
equal.

The text format is line oriented::

    .n 7            # number of x inputs
    .p 3            # number of c lines
    .gate c1 : x1 x2
    .end

'#' starts a comment anywhere on a line.  ``.n`` must come before ``.p``
and both must come before the first gate.  ``.end`` closes the file.
"""

from __future__ import annotations

import re
from typing import NamedTuple

__all__ = [
    "CircuitError",
    "ParseError",
    "AndExorNetwork",
    "expand_network",
    "parse_circuit",
    "format_circuit",
    "normalize_zero_controls",
]


class CircuitError(ValueError):
    """Raised for structurally invalid circuits."""


class ParseError(CircuitError):
    """Raised for text that does not conform to the circuit grammar."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class AndExorNetwork(NamedTuple):
    """A circuit's gates in order: gate i ANDs the x inputs in
    ``gate_supports[i-1]`` onto c line ``gate_targets[i-1]``."""

    n: int
    p: int
    gate_supports: tuple[frozenset, ...]
    gate_targets: tuple[int, ...]
    constant_line: int | None = None
    name: str = ""

    @property
    def d(self) -> int:
        """Gate count; also the deepest cascade level."""
        return len(self.gate_supports)

    def real_inputs(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i != self.constant_line)


def expand_network(net: AndExorNetwork) -> AndExorNetwork:
    """Check a network's structure and return the network itself.

    A parsed network passes once ``normalize_zero_controls`` has moved its
    0-control gates onto the constant line, as this check refuses them;
    the other checks are for networks built by hand.
    """
    if net.n < 1:
        raise CircuitError("circuit needs at least one x input")
    if net.p < 1:
        raise CircuitError("circuit needs at least one c line")
    if net.constant_line is not None and not (1 <= net.constant_line <= net.n):
        raise CircuitError(f"constant line x{net.constant_line} out of range")
    if len(net.gate_supports) != len(net.gate_targets):
        raise CircuitError(f"{len(net.gate_supports)} gate supports"
                           f" but {len(net.gate_targets)} gate targets")
    for pos, (support, target) in enumerate(zip(net.gate_supports, net.gate_targets), start=1):
        if not support:
            raise CircuitError(f"gate {pos} has no controls; normalization is disabled")
        for v in support:
            if not (1 <= v <= net.n):
                raise CircuitError(f"gate {pos}: control x{v} out of range 1..{net.n}")
        if not (1 <= target <= net.p):
            raise CircuitError(f"gate {pos}: target c{target} out of range 1..{net.p}")
    return net


def _column(line: str, k: int) -> int:
    """1-based column of the k-th token of ``line``, found only for an error."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line)][k]


def parse_circuit(
    text: str, *, allow_zero_controls: bool = False, name: str = ""
) -> AndExorNetwork:
    """Parse circuit text into a network.

    0-control gates are rejected unless ``allow_zero_controls`` is set;
    callers that accept them are expected to run normalize_zero_controls
    afterwards.
    """
    n: int | None = None
    p: int | None = None
    supports: list[frozenset] = []
    targets: list[int] = []
    ended = False
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        head = toks[0]
        if ended:
            raise ParseError("content after .end", lineno, _column(line, 0))

        if head in (".n", ".p"):
            if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdigit()):
                raise ParseError(f"{head} expects one integer", lineno, _column(line, 0))
            value = int(toks[1])
            if value < 1:
                raise ParseError(f"{head} must be at least 1", lineno, _column(line, 1))
            if head == ".n":
                if n is not None:
                    raise ParseError("duplicate .n", lineno, _column(line, 0))
                n = value
            else:
                if p is not None:
                    raise ParseError("duplicate .p", lineno, _column(line, 0))
                if n is None:
                    raise ParseError(".n must come before .p", lineno, _column(line, 0))
                p = value
            continue

        if head == ".end":
            if len(toks) != 1:
                raise ParseError(".end takes no arguments", lineno, _column(line, 1))
            if n is None or p is None:
                raise ParseError(".end before .n and .p", lineno, _column(line, 0))
            ended = True
            continue

        if head == ".gate":
            if n is None or p is None:
                raise ParseError(".gate before .n and .p", lineno, _column(line, 0))
            if len(toks) < 3 or toks[2] != ":":
                raise ParseError(".gate expects 'c<j> : x<i> ...'", lineno, _column(line, 0))
            # a line token is c<j> or x<i>, its number in ASCII digits
            tgt = toks[1]
            digits = tgt[1:]
            numbered = digits.isascii() and digits.isdigit()
            if tgt[0] != "c" or not numbered:
                if tgt[0] == "x" and numbered:
                    raise ParseError(f"target must be a c line (got '{tgt}')",
                                     lineno, _column(line, 1))
                raise ParseError(f"bad target token '{tgt}'", lineno, _column(line, 1))
            target = int(digits)
            if not (1 <= target <= p):
                raise ParseError(f"target c{target} out of range 1..{p}", lineno, _column(line, 1))

            controls: list[int] = []
            for k, tok in enumerate(toks[3:], start=3):
                digits = tok[1:]
                numbered = digits.isascii() and digits.isdigit()
                if tok[0] != "x" or not numbered:
                    if tok[0] == "c" and numbered:
                        raise ParseError(f"control on target line '{tok}'",
                                         lineno, _column(line, k))
                    raise ParseError(f"bad control token '{tok}'", lineno, _column(line, k))
                v = int(digits)
                if not (1 <= v <= n):
                    raise ParseError(f"control x{v} out of range 1..{n}", lineno, _column(line, k))
                if v in controls:
                    raise ParseError(f"duplicate control x{v}", lineno, _column(line, k))
                controls.append(v)
            if not controls and not allow_zero_controls:
                raise ParseError("gate has no controls (0-CNOT); normalization is disabled",
                                 lineno, _column(line, 0))
            supports.append(frozenset(controls))
            targets.append(target)
            continue

        raise ParseError(f"unknown directive '{head}'", lineno, _column(line, 0))

    if n is None or p is None:
        raise ParseError("missing .n or .p", last_line + 1)
    if not ended:
        raise ParseError("missing .end", last_line + 1)

    return AndExorNetwork(n, p, tuple(supports), tuple(targets), name=name)


def format_circuit(net: AndExorNetwork) -> str:
    """Print a circuit in the canonical text form (controls in ascending order)."""
    lines = [f".n {net.n}", f".p {net.p}"]
    for support, target in zip(net.gate_supports, net.gate_targets):
        ctrl = " ".join(f"x{v}" for v in sorted(support))
        lines.append(f".gate c{target} : {ctrl}".rstrip())
    lines.append(".end")
    return "\n".join(lines) + "\n"


def normalize_zero_controls(net: AndExorNetwork) -> AndExorNetwork:
    """Rewrite every 0-CNOT as a 1-CNOT controlled by a constant-one input line.

    The constant line is appended as input index n+1 and shared by all
    rewritten gates; its value is pinned to 1 by every pattern generator.
    Circuits without 0-CNOTs are returned unchanged.
    """
    if all(net.gate_supports):
        return net
    if net.constant_line is not None:
        aux = net.constant_line
        n = net.n
    else:
        aux = net.n + 1
        n = net.n + 1
    one = frozenset({aux})
    supports = tuple(support or one for support in net.gate_supports)
    return net._replace(n=n, gate_supports=supports, constant_line=aux)
