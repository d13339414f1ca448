"""AND-EXOR netlist view of a reversible circuit.

Expanding a circuit yields one k-input AND per gate (output net a_i) and a
2-input EXOR cascade per target line.  Cascade wires are W(j,0) = c_j up to
W(j,d) = f_j; the EXOR of gate L reads W(target,L-1) on its left input and
A(L) on its right input.
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

    @property
    def d(self) -> int:
        return len(self.gate_supports)

    @property
    def levels(self) -> int:
        """Cascade levels 0..d inclusive."""
        return self.d + 1

    def x_net(self, i: int) -> str:
        return f"X({i})"

    def a_net(self, i: int) -> str:
        return f"A({i})"

    def cascade_net(self, j: int, level: int) -> str:
        return f"W({j},{level})"

    def exor_inputs(self, gate_id: int) -> tuple[str, str]:
        """(left, right) input nets of the EXOR belonging to gate_id."""
        target = self.gate_targets[gate_id - 1]
        return self.cascade_net(target, gate_id - 1), self.a_net(gate_id)

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
    )
