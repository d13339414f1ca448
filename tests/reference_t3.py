"""The T3 generator as it stood before parity rows became bitmasks.

``gen_input_or_tests`` below rebuilds the restricted PPRMs with
``restrict`` and the parity matrix from ``count_terms`` for every
restriction set, and walks every set of up to n - 1 inputs held at 0.  It is
kept, unchanged but for its patterns being rows, as the reference the fast
generator in ``bridgetest.atpg`` is compared against; ``count_terms``,
``restrict``, ``ParityMatrix`` and ``build_parity_matrix`` (the
``count_terms`` definition of the matrix) live here, so the reference shares
no parity or term-count code with the generator under test or with
``bridgetest.benchmark.derived_term_counts``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from bridgetest import AndExorNetwork
from bridgetest.faults import BridgingFault, Polarity
from bridgetest.patterns import TestSet
from bridgetest.pprm import PprmFunction
from bridgetest.simulate import detects


def count_terms(pprm_list: Sequence[PprmFunction], k: int, variables: Iterable[int]) -> int:
    """Number of physical AND gates of output k whose term contains all of
    ``variables`` (one or two of them)."""
    need = frozenset(variables)
    return sum(1 for t in pprm_list[k - 1].term_multiset if need <= t)


def restrict(pprm: PprmFunction, zeroed: Iterable[int]) -> PprmFunction:
    """Cofactor at zero: drop every term that mentions a zeroed variable."""
    dead = frozenset(zeroed)
    kept = tuple(t for t in pprm.term_multiset if not (t & dead))
    return PprmFunction.from_terms(pprm.output_index, kept)


@dataclass(frozen=True)
class ParityMatrix:
    """Symmetric 0/1 matrix: entry (i,j) is 1 when some output has an odd
    number of terms containing both x_i and x_j (just x_i on the diagonal)."""

    order: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def get(self, i: int, j: int) -> int:
        return self.rows[self.order.index(i)][self.order.index(j)]


def build_parity_matrix(
    pprm_list: Sequence[PprmFunction], active_vars: Iterable[int]
) -> ParityMatrix:
    order = tuple(sorted(active_vars))
    outputs = range(1, len(pprm_list) + 1)
    rows = []
    for i in order:
        row = []
        for j in order:
            vs = {i} if i == j else {i, j}
            bit = 1 if any(count_terms(pprm_list, k, vs) % 2 for k in outputs) else 0
            row.append(bit)
        rows.append(tuple(row))
    return ParityMatrix(order, tuple(rows))


def gen_input_or_tests(
    pprm_list: Sequence[PprmFunction],
    network: AndExorNetwork,
    *,
    dc_policy: str = "fill-zero",
) -> tuple[TestSet, tuple[tuple[int, int], ...]]:
    """Parity-driven T3 construction for wired-OR input bridges.

    The generator refines a partition of the inputs; a pattern is emitted
    only when it provably separates at least one block, which caps the set
    at n - 1 patterns.  Case (a) splits off a variable with an odd diagonal
    entry, case (b) a variable paired with an odd joint entry, and case (c)
    repeats both on the function restricted at a growing set of variables
    held at 0 (single variables in ascending order, then pairs, and so on,
    never deeper than n - 1).  Pairs left in unsplit blocks are returned
    for fallback.
    """
    aux = network.constant_line
    variables = list(network.real_inputs())
    p = network.p
    patterns: list[str] = []
    blocks: list[frozenset] = [frozenset(variables)] if len(variables) >= 2 else []

    def block_of(v: int) -> frozenset | None:
        for b in blocks:
            if v in b:
                return b
        return None

    def multi_blocks() -> list[frozenset]:
        return [b for b in blocks if len(b) >= 2]

    def make_pattern(zeros: frozenset) -> str:
        bits = "".join(
            "1" if v == aux else ("0" if v in zeros else "1") for v in range(1, network.n + 1)
        )
        return "d" * p + bits

    def try_split(pattern: str, block: frozenset, side: frozenset) -> bool:
        """Validate every wired-OR pair across the split; refine on success."""
        cross = [(r, s) for r in sorted(side) for s in sorted(block - side)]
        if not cross:
            return False
        if not all(
            detects(network, BridgingFault.x_pair(r, s, Polarity.WIRED_OR), pattern, dc_policy)
            for r, s in cross
        ):
            return False
        blocks.remove(block)
        for part in (side, block - side):
            if len(part) >= 2:
                blocks.append(part)
        return True

    def stage(restricted: frozenset) -> None:
        multis = multi_blocks()
        if not multis or all(b & restricted for b in multis):
            return
        active = [v for v in variables if v not in restricted]
        if len(active) < 2:
            return
        sub = [restrict(f, restricted) for f in pprm_list] if restricted else list(pprm_list)
        parity = build_parity_matrix(sub, active)

        for i in active:  # case (a)
            if parity.get(i, i) != 1:
                continue
            block = block_of(i)
            if block is None or (block & restricted):
                continue
            pattern = make_pattern(restricted | {i})
            if try_split(pattern, block, frozenset({i})):
                patterns.append(pattern)

        for i in active:  # case (b)
            if parity.get(i, i) != 0:
                continue
            block = block_of(i)
            if block is None or (block & restricted):
                continue
            partners = [k for k in active if k != i and parity.get(i, k) == 1]
            if not partners:
                continue
            k = partners[0]
            pattern = make_pattern(restricted | {i, k})
            block_k = block_of(k)
            emitted = False
            if block_k is block:
                # i and k stay joined: their own pair is not exercised here
                emitted = try_split(pattern, block, frozenset({i, k}))
            else:
                emitted = try_split(pattern, block, frozenset({i}))
                if (
                    parity.get(k, k) == 0
                    and block_k is not None
                    and not (block_k & restricted)
                    and try_split(pattern, block_k, frozenset({k}))
                ):
                    emitted = True
            if emitted:
                patterns.append(pattern)

    stage(frozenset())
    for depth in range(1, len(variables)):
        if not multi_blocks():
            break
        for combo in itertools.combinations(variables, depth):
            if not multi_blocks():
                break
            stage(frozenset(combo))

    uncovered = []
    for block in sorted(multi_blocks(), key=min):
        uncovered.extend(itertools.combinations(sorted(block), 2))
    test_set = TestSet("T3", patterns, target_class="XPair/WiredOr")
    return test_set, tuple(sorted(uncovered))
