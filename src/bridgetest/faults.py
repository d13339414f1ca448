"""Single bridging faults over the AND-EXOR netlist.

Four fault classes are in the model:

* ExorInternal: a per-gate obligation that the gate's 2-input EXOR sees all
  four input combinations somewhere in the test set.  It is discharged by
  stimulation masks, never by injection.
* XPair: a bridge between two pass-through inputs, applied before any AND.
* IntraLevel: a bridge between the cascade wires of two target lines at one
  level, affecting everything downstream.
* APair: a bridge between two AND outputs, applied before the EXORs consume
  them.

A wired-AND bridge drives both nets to the AND of their fault-free values;
wired-OR drives both to the OR.  Bridges between nets of different
categories are outside the model and can only be tallied, not targeted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from .network import AndExorNetwork

__all__ = [
    "Polarity",
    "FaultKind",
    "bridge_values",
    "BridgingFault",
    "FaultList",
    "enumerate_faults",
]


class Polarity(str, Enum):
    WIRED_AND = "WiredAnd"
    WIRED_OR = "WiredOr"


class FaultKind(str, Enum):
    EXOR_INTERNAL = "ExorInternal"
    X_PAIR = "XPair"
    INTRA_LEVEL = "IntraLevel"
    A_PAIR = "APair"


def bridge_values(v1: int, v2: int, polarity: Polarity) -> tuple[int, int]:
    """Post-bridge values of the two nets; both sides carry the same value."""
    v = v1 & v2 if polarity is Polarity.WIRED_AND else v1 | v2
    return v, v


@dataclass(frozen=True)
class BridgingFault:
    """One fault instance.

    ``ids`` is the class-specific index tuple: (gate,) for ExorInternal,
    (i, j) with i < j for XPair and APair, (level, j1, j2) with j1 < j2
    for IntraLevel.  ExorInternal carries no polarity.
    """

    kind: FaultKind
    ids: tuple[int, ...]
    polarity: Polarity | None = None

    def __post_init__(self) -> None:
        if self.kind is FaultKind.EXOR_INTERNAL:
            if len(self.ids) != 1 or self.polarity is not None:
                raise ValueError("ExorInternal takes a single gate id and no polarity")
        elif self.kind in (FaultKind.X_PAIR, FaultKind.A_PAIR):
            if len(self.ids) != 2 or self.ids[0] >= self.ids[1]:
                raise ValueError(f"{self.kind.value} needs an ordered index pair")
            if self.polarity is None:
                raise ValueError(f"{self.kind.value} needs a polarity")
        else:
            if len(self.ids) != 3 or self.ids[1] >= self.ids[2] or self.ids[0] < 0:
                raise ValueError("IntraLevel needs (level, j1, j2) with j1 < j2")
            if self.polarity is None:
                raise ValueError("IntraLevel needs a polarity")

    @staticmethod
    def exor_internal(gate_id: int) -> "BridgingFault":
        return BridgingFault(FaultKind.EXOR_INTERNAL, (gate_id,))

    @staticmethod
    def x_pair(i: int, j: int, polarity: Polarity) -> "BridgingFault":
        lo, hi = sorted((i, j))
        return BridgingFault(FaultKind.X_PAIR, (lo, hi), polarity)

    @staticmethod
    def a_pair(i: int, j: int, polarity: Polarity) -> "BridgingFault":
        lo, hi = sorted((i, j))
        return BridgingFault(FaultKind.A_PAIR, (lo, hi), polarity)

    @staticmethod
    def intra_level(level: int, j1: int, j2: int, polarity: Polarity) -> "BridgingFault":
        lo, hi = sorted((j1, j2))
        return BridgingFault(FaultKind.INTRA_LEVEL, (level, lo, hi), polarity)

    def lines(self) -> tuple[str, str]:
        """Compact net names of the two bridged nets (one net for ExorInternal)."""
        if self.kind is FaultKind.EXOR_INTERNAL:
            return f"g{self.ids[0]}", ""
        if self.kind is FaultKind.X_PAIR:
            return f"x{self.ids[0]}", f"x{self.ids[1]}"
        if self.kind is FaultKind.A_PAIR:
            return f"a{self.ids[0]}", f"a{self.ids[1]}"
        level, j1, j2 = self.ids
        return f"w{j1}@{level}", f"w{j2}@{level}"

    def describe(self) -> str:
        a, b = self.lines()
        if self.kind is FaultKind.EXOR_INTERNAL:
            return f"ExorInternal {a}"
        return f"{self.kind.value} ({a},{b}) {self.polarity.value}"


@dataclass(frozen=True)
class FaultList:
    """Deterministically ordered fault universe of one netlist."""

    faults: tuple[BridgingFault, ...]
    counts: Mapping[str, int]
    out_of_model: Mapping[str, int] | None = None

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[BridgingFault]:
        return iter(self.faults)

    def __getitem__(self, idx: int) -> BridgingFault:
        return self.faults[idx]


_POLARITIES = (Polarity.WIRED_AND, Polarity.WIRED_OR)


def enumerate_faults(
    network: AndExorNetwork,
    *,
    include_aux: bool = False,
    record_out_of_model: bool = False,
) -> FaultList:
    """Enumerate the complete in-model fault universe in canonical order.

    Order: ExorInternal by gate id, then XPair, IntraLevel, APair, each in
    lexicographic index order with WiredAnd before WiredOr.  The constant
    line added by normalization is left out of XPair enumeration unless
    ``include_aux`` is set.  ``record_out_of_model`` additionally tallies
    the cross-category bridge counts that the model does not target.
    """
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

    return FaultList(faults, counts, out_of_model)
