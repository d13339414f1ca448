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

import bisect
import itertools
import operator
from collections.abc import Iterator, Mapping, Sequence
from enum import Enum
from typing import NamedTuple

from .circuit import AndExorNetwork

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


# the fields of BridgingFault; a NamedTuple cannot define __new__, so the
# subclass validates them there
class _Fault(NamedTuple):
    kind: FaultKind
    ids: tuple[int, ...]
    polarity: Polarity | None = None


class BridgingFault(_Fault):
    """One fault instance.

    ``ids`` is the class-specific index tuple: (gate,) for ExorInternal,
    (i, j) with i < j for XPair and APair, (level, j1, j2) with j1 < j2
    for IntraLevel.  ExorInternal carries no polarity.  A kind or polarity
    given by its value, such as ``"WiredOr"``, is read as the enum member;
    an unknown one is refused.
    """

    __slots__ = ()

    def __new__(cls, kind: FaultKind, ids: tuple[int, ...],
                polarity: Polarity | None = None) -> "BridgingFault":
        if type(kind) is not FaultKind:
            kind = FaultKind(kind)
        if polarity is not None and type(polarity) is not Polarity:
            polarity = Polarity(polarity)
        if kind is FaultKind.EXOR_INTERNAL:
            if len(ids) != 1 or polarity is not None:
                raise ValueError("ExorInternal takes a single gate id and no polarity")
        elif kind in (FaultKind.X_PAIR, FaultKind.A_PAIR):
            if len(ids) != 2 or ids[0] >= ids[1]:
                raise ValueError(f"{kind.value} needs an ordered index pair")
            if polarity is None:
                raise ValueError(f"{kind.value} needs a polarity")
        else:
            if len(ids) != 3 or ids[1] >= ids[2] or ids[0] < 0:
                raise ValueError("IntraLevel needs (level, j1, j2) with j1 < j2")
            if polarity is None:
                raise ValueError("IntraLevel needs a polarity")
        return tuple.__new__(cls, (kind, ids, polarity))

    def lines(self) -> tuple[str, str]:
        """Compact net names of the two bridged nets, "" for ExorInternal's second."""
        if self.kind is FaultKind.EXOR_INTERNAL:
            return f"g{self.ids[0]}", ""
        *level, i, j = self.ids
        return _NET_NAMES[self.kind].format(i, *level), _NET_NAMES[self.kind].format(j, *level)

    def describe(self) -> str:
        a, b = self.lines()
        if self.kind is FaultKind.EXOR_INTERNAL:
            return f"ExorInternal {a}"
        return f"{self.kind.value} ({a},{b}) {self.polarity.value}"


_POLARITIES = (Polarity.WIRED_AND, Polarity.WIRED_OR)
# the name of net v of a pair class, as str.format(v, level)
_NET_NAMES = {FaultKind.X_PAIR: "x{}", FaultKind.INTRA_LEVEL: "w{}@{}", FaultKind.A_PAIR: "a{}"}


class FaultList(Sequence[BridgingFault]):
    """Deterministically ordered fault universe of one netlist (``network``),
    as an indexed view over its four class ranges.

    ExorInternal has one entry per gate, first.  Each bridged pair of the
    other classes has two consecutive entries, WiredAnd then WiredOr, so
    class, pair and polarity are arithmetic on the index (``entry``), and a
    ``BridgingFault`` is built only when one is read.  ``blocks`` gives the
    pair classes as line ranges, so a reader can walk a whole class at once.
    """

    def __init__(
        self,
        network: AndExorNetwork,
        x_lines: Sequence[int],
        out_of_model: Mapping[str, int] | None = None,
    ) -> None:
        self.network = network
        self.d = d = network.d
        self.out_of_model = out_of_model
        self._blocks = (
            (FaultKind.X_PAIR, tuple(x_lines), (None,)),
            (FaultKind.INTRA_LEVEL, tuple(range(1, network.p + 1)), tuple(range(d + 1))),
            (FaultKind.A_PAIR, tuple(range(1, d + 1)), (None,)),
        )
        self.counts = {FaultKind.EXOR_INTERNAL.value: d}
        # per block, the index of the first pair (a, b) of each row a
        self._row_starts = [list(itertools.accumulate(range(len(lines) - 1, 0, -1), initial=0))
                            for _, lines, _ in self._blocks]
        for kind, lines, levels in self._blocks:
            self.counts[kind.value] = len(lines) * (len(lines) - 1) * len(levels)
        self._len = sum(self.counts.values())

    def __len__(self) -> int:
        return self._len

    def blocks(self) -> tuple[tuple[FaultKind, tuple[int, ...], tuple[int | None, ...]], ...]:
        """``(kind, lines, levels)`` per pair class, in order after the d
        ExorInternal entries: for each level (None for XPair and APair), the
        pairs of ``itertools.combinations(lines, 2)``, two entries each."""
        return self._blocks

    def level_names(self) -> Iterator[tuple[str, list[str]]]:
        """``(class label, net names)`` per level of each pair class, in
        index order, such as ``("IntraLevel", ["w1@0", "w2@0"])``: the
        level's pairs are ``itertools.combinations`` of its names."""
        for kind, lines, levels in self._blocks:
            label, name = kind.value, _NET_NAMES[kind].format
            for level in levels:
                yield label, [name(v, level) for v in lines]

    def __iter__(self) -> Iterator[BridgingFault]:
        for gate_id in range(1, self.d + 1):
            yield BridgingFault(FaultKind.EXOR_INTERNAL, (gate_id,))
        for kind, lines, levels in self._blocks:
            for level in levels:
                for pair in itertools.combinations(lines, 2):
                    ids = pair if level is None else (level, *pair)
                    yield from (BridgingFault(kind, ids, polarity) for polarity in _POLARITIES)

    def entry(self, idx: int) -> tuple[FaultKind, tuple[int, ...], Polarity | None]:
        """``(kind, ids, polarity)`` of entry ``idx``, with no ``BridgingFault`` built."""
        if not -self._len <= idx < self._len:
            raise IndexError("fault index out of range")
        idx %= self._len
        if idx < self.d:
            return FaultKind.EXOR_INTERNAL, (idx + 1,), None
        k, polarity = divmod(idx - self.d, 2)
        for (kind, lines, levels), starts in zip(self._blocks, self._row_starts):
            per_level = starts[-1]
            if k < per_level * len(levels):
                level, k = divmod(k, per_level)
                a = bisect.bisect_right(starts, k) - 1
                pair = lines[a], lines[a + 1 + k - starts[a]]
                ids = pair if levels[level] is None else (levels[level], *pair)
                return kind, ids, _POLARITIES[polarity]
            k -= per_level * len(levels)

    def __getitem__(self, idx: int | slice) -> BridgingFault | list[BridgingFault]:
        if isinstance(idx, slice):  # a list, as the eager enumeration gave
            return [self[k] for k in range(self._len)[idx]]
        return BridgingFault(*self.entry(operator.index(idx)))


def enumerate_faults(
    network: AndExorNetwork,
    *,
    include_aux: bool = False,
    record_out_of_model: bool = False,
) -> FaultList:
    """The complete in-model fault universe in canonical order.

    Order: ExorInternal by gate id, then XPair, IntraLevel, APair, each in
    lexicographic index order with WiredAnd before WiredOr.  The constant
    line added by normalization is left out of XPair enumeration unless
    ``include_aux`` is set.  ``record_out_of_model`` additionally tallies
    the cross-category bridge counts that the model does not target.
    """
    x_lines = range(1, network.n + 1) if include_aux else network.real_inputs()
    out_of_model = None
    if record_out_of_model:
        n_x, n_w, d = len(x_lines), network.p * (network.d + 1), network.d
        out_of_model = {"x-a": n_x * d * 2, "x-w": n_x * n_w * 2, "a-w": d * n_w * 2}
    return FaultList(network, x_lines, out_of_model)
