"""AND-EXOR netlist view of a reversible circuit.

Expanding a circuit yields one k-input AND per gate (output net a_i) and a
2-input EXOR cascade per target line.  Cascade wires are wj@0 = c_j up to
wj@d = f_j; the EXOR of gate L reads w<target>@(L-1) on its left input and
a_L on its right input.  Reports name the nets this way.  The network also
carries the circuit's name, for report headers; two networks that differ
only in their names are not equal.
"""

from __future__ import annotations

from typing import NamedTuple

from .circuit import ReversibleCircuit

__all__ = ["AndExorNetwork", "expand_network"]


class AndExorNetwork(NamedTuple):
    n: int
    p: int
    gate_supports: tuple[frozenset, ...]
    gate_targets: tuple[int, ...]
    constant_line: int | None = None
    name: str = ""

    @property
    def d(self) -> int:
        return len(self.gate_supports)

    def real_inputs(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i != self.constant_line)


def expand_network(circuit: ReversibleCircuit) -> AndExorNetwork:
    """Flatten a circuit into its AND-EXOR net structure."""
    circuit.validate()
    return AndExorNetwork(
        n=circuit.n,
        p=circuit.p,
        gate_supports=tuple(g.controls for g in circuit.gates),
        gate_targets=tuple(g.target for g in circuit.gates),
        constant_line=circuit.constant_line,
        name=circuit.name,
    )
