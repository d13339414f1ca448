"""Positive-polarity product-term view of circuit outputs.

Each output f_j of a k-CNOT circuit is c_j XOR a multiset of positive
product terms, one term per gate targeting c_j.  The multiset keeps the
physical gate order and duplicates; the canonical form cancels duplicate
terms mod 2 and sorts what survives.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .circuit import ReversibleCircuit

__all__ = ["Term", "PprmFunction", "derive_pprm"]

Term = frozenset  # frozenset[int] of x indices


def _canonical(terms: Iterable[Term]) -> tuple[Term, ...]:
    counts = Counter(terms)
    odd = [t for t, c in counts.items() if c % 2]
    odd.sort(key=lambda t: (len(t), tuple(sorted(t))))
    return tuple(odd)


class PprmFunction(NamedTuple):
    """One output as an XOR of positive product terms over the x inputs."""

    output_index: int
    term_multiset: tuple[Term, ...]
    canonical_terms: tuple[Term, ...]

    @classmethod
    def from_terms(cls, output_index: int, terms: Iterable[Term]) -> "PprmFunction":
        multiset = tuple(frozenset(t) for t in terms)
        return cls(output_index, multiset, _canonical(multiset))

    def evaluate(self, x_values: Sequence[int]) -> int:
        """Parity contribution of the terms; x_values[i-1] is the value of x_i."""
        acc = 0
        for term in self.canonical_terms:
            if all(x_values[v - 1] for v in term):
                acc ^= 1
        return acc


def derive_pprm(circuit: ReversibleCircuit) -> list[PprmFunction]:
    """Read the product-term multiset of every output off the gate list."""
    per_output: dict[int, list[Term]] = {j: [] for j in range(1, circuit.p + 1)}
    for gate in circuit.gates:
        per_output[gate.target].append(gate.controls)
    return [PprmFunction.from_terms(j, per_output[j]) for j in range(1, circuit.p + 1)]

