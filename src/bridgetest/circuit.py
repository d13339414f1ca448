"""Reversible k-CNOT circuits: gate-list model, text format, 0-control normalization.

A circuit has n pass-through inputs (x1..xn) and p target lines (c1..cp).
Every gate ANDs a set of x inputs and XORs the product onto one c line.
Gate order is structural: the gate at 1-based position L fires at level L,
and the gate count d is the deepest level of the cascade.

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
    "Gate",
    "ReversibleCircuit",
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


class Gate(NamedTuple):
    """A single k-CNOT: the AND of the control inputs, XORed onto one target line.

    A gate's 1-based position in circuit order names its AND output net:
    gate i drives a_i.
    """

    controls: frozenset[int]
    target: int


class ReversibleCircuit(NamedTuple):
    """An ordered list of k-CNOT gates over n inputs and p target lines, as a
    circuit file gives it; every stage after ``expand_network`` reads the network."""

    n: int
    p: int
    gates: tuple[Gate, ...]
    name: str = ""
    constant_line: int | None = None

    @property
    def d(self) -> int:
        """Gate count; also the deepest cascade level."""
        return len(self.gates)

    def validate(self, allow_zero_controls: bool = False) -> None:
        if self.n < 1:
            raise CircuitError("circuit needs at least one x input")
        if self.p < 1:
            raise CircuitError("circuit needs at least one c line")
        if self.constant_line is not None and not (1 <= self.constant_line <= self.n):
            raise CircuitError(f"constant line x{self.constant_line} out of range")
        for pos, gate in enumerate(self.gates, start=1):
            if not gate.controls and not allow_zero_controls:
                raise CircuitError(f"gate {pos} has no controls; normalization is disabled")
            for v in gate.controls:
                if not (1 <= v <= self.n):
                    raise CircuitError(f"gate {pos}: control x{v} out of range 1..{self.n}")
            if not (1 <= gate.target <= self.p):
                raise CircuitError(f"gate {pos}: target c{gate.target} out of range 1..{self.p}")


_C_TOKEN = re.compile(r"^c([0-9]+)$")
_X_TOKEN = re.compile(r"^x([0-9]+)$")


def _column(line: str, k: int) -> int:
    """1-based column of the k-th token of ``line``, found only for an error."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line)][k]


def parse_circuit(
    text: str, *, allow_zero_controls: bool = False, name: str = ""
) -> ReversibleCircuit:
    """Parse circuit text into a validated ReversibleCircuit.

    0-control gates are rejected unless ``allow_zero_controls`` is set;
    callers that accept them are expected to run normalize_zero_controls
    afterwards.
    """
    n: int | None = None
    p: int | None = None
    gates: list[Gate] = []
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
            tgt = toks[1]
            if _X_TOKEN.match(tgt):
                raise ParseError(f"target must be a c line (got '{tgt}')", lineno, _column(line, 1))
            m = _C_TOKEN.match(tgt)
            if not m:
                raise ParseError(f"bad target token '{tgt}'", lineno, _column(line, 1))
            target = int(m.group(1))
            if not (1 <= target <= p):
                raise ParseError(f"target c{target} out of range 1..{p}", lineno, _column(line, 1))

            controls: list[int] = []
            for k, tok in enumerate(toks[3:], start=3):
                if _C_TOKEN.match(tok):
                    raise ParseError(f"control on target line '{tok}'", lineno, _column(line, k))
                m = _X_TOKEN.match(tok)
                if not m:
                    raise ParseError(f"bad control token '{tok}'", lineno, _column(line, k))
                v = int(m.group(1))
                if not (1 <= v <= n):
                    raise ParseError(f"control x{v} out of range 1..{n}", lineno, _column(line, k))
                if v in controls:
                    raise ParseError(f"duplicate control x{v}", lineno, _column(line, k))
                controls.append(v)
            if not controls and not allow_zero_controls:
                raise ParseError("gate has no controls (0-CNOT); normalization is disabled",
                                 lineno, _column(line, 0))
            gates.append(Gate(frozenset(controls), target))
            continue

        raise ParseError(f"unknown directive '{head}'", lineno, _column(line, 0))

    if n is None or p is None:
        raise ParseError("missing .n or .p", last_line + 1)
    if not ended:
        raise ParseError("missing .end", last_line + 1)

    circuit = ReversibleCircuit(n, p, tuple(gates), name=name)
    circuit.validate(allow_zero_controls=allow_zero_controls)
    return circuit


def format_circuit(circuit: ReversibleCircuit) -> str:
    """Print a circuit in the canonical text form (controls in ascending order)."""
    lines = [f".n {circuit.n}", f".p {circuit.p}"]
    for gate in circuit.gates:
        ctrl = " ".join(f"x{v}" for v in sorted(gate.controls))
        lines.append(f".gate c{gate.target} : {ctrl}".rstrip())
    lines.append(".end")
    return "\n".join(lines) + "\n"


def normalize_zero_controls(circuit: ReversibleCircuit) -> ReversibleCircuit:
    """Rewrite every 0-CNOT as a 1-CNOT controlled by a constant-one input line.

    The constant line is appended as input index n+1 and shared by all
    rewritten gates; its value is pinned to 1 by every pattern generator.
    Circuits without 0-CNOTs are returned unchanged.
    """
    if all(g.controls for g in circuit.gates):
        return circuit
    if circuit.constant_line is not None:
        aux = circuit.constant_line
        n = circuit.n
    else:
        aux = circuit.n + 1
        n = circuit.n + 1
    gates = tuple(g if g.controls else Gate(frozenset({aux}), g.target) for g in circuit.gates)
    out = ReversibleCircuit(n, circuit.p, gates, name=circuit.name, constant_line=aux)
    out.validate()
    return out
