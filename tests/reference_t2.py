"""The T2 generator as it stood before T2 and T3 shared one partition refiner.

``gen_input_and_tests`` below splits blocks recursively into a
``PartitionTree`` and checks each cross pair with its own ``detects`` call.
It is kept, unchanged but for its patterns being rows, as the reference
the generator in ``bridgetest.atpg`` is compared against: both must emit
the same patterns, in the same order, and leave the same pairs for fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from bridgetest import AndExorNetwork
from bridgetest.faults import BridgingFault, Polarity
from bridgetest.pprm import PprmFunction
from bridgetest.simulate import detects


@dataclass
class TreeNode:
    block: tuple[int, ...]
    gate_id: int | None = None
    pattern: str | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclass
class PartitionTree:
    """Binary refinement tree over the input indices built by T2."""

    root: TreeNode | None

    def _walk(self):
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            yield node
            if node.left:
                stack.append(node.left)
            if node.right:
                stack.append(node.right)

    def internal_count(self) -> int:
        return sum(1 for node in self._walk() if not node.is_leaf)

    def stuck_blocks(self) -> list[tuple[int, ...]]:
        """Leaves that still hold more than one variable."""
        return sorted(node.block for node in self._walk() if node.is_leaf and len(node.block) > 1)

    def uncovered_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for block in self.stuck_blocks():
            pairs.extend(itertools.combinations(block, 2))
        return sorted(pairs)


def gen_input_and_tests(
    pprm_list: Sequence[PprmFunction],
    network: AndExorNetwork,
    *,
    dc_policy: str = "fill-zero",
) -> tuple[list[str], PartitionTree]:
    """Binary-split T2 construction for wired-AND input bridges.

    For the current block, gates whose support properly intersects it are
    tried smallest support first (gate id breaks ties).  The candidate
    pattern sets the gate's support to 1 and every other input to 0; it is
    accepted only if simulation confirms detection of every wired-AND pair
    across the induced split.  Blocks no candidate can split are left as
    stuck leaves for fallback.
    """
    aux = network.constant_line
    variables = network.real_inputs()
    patterns: list[str] = []

    candidates = sorted(
        (len(sup), gid) for gid, sup in enumerate(network.gate_supports, start=1)
    )

    def make_pattern(support: frozenset) -> str:
        bits = "".join(
            "1" if v == aux or v in support else "0" for v in range(1, network.n + 1)
        )
        return "d" * network.p + bits

    def split(block: tuple[int, ...]) -> TreeNode:
        if len(block) <= 1:
            return TreeNode(block=block)
        bset = frozenset(block)
        for _, gid in candidates:
            support = network.gate_supports[gid - 1]
            inter = (support - {aux}) & bset
            if not inter or inter == bset:
                continue
            pattern = make_pattern(support)
            targeted = [
                (r, s) for r in sorted(inter) for s in sorted(bset - inter)
            ]
            if not all(
                detects(network, BridgingFault.x_pair(r, s, Polarity.WIRED_AND), pattern, dc_policy)
                for r, s in targeted
            ):
                continue
            patterns.append(pattern)
            left = split(tuple(sorted(inter)))
            right = split(tuple(sorted(bset - inter)))
            return TreeNode(block=block, gate_id=gid, pattern=pattern, left=left, right=right)
        return TreeNode(block=block)

    root = split(tuple(variables)) if variables else None
    return patterns, PartitionTree(root)
