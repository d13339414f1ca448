"""Test-set construction for the four bridging-fault classes.

Five named sets are built per circuit:

* T1: the four all-zero/all-one corner patterns.  Across them every gate's
  EXOR sees all four input combinations, discharging ExorInternal.
* T2: support-guided binary splitting of the input set, depth first with
  the supported side first.  Each accepted pattern drives one gate's
  support to 1 and everything else to 0, and is kept only if it detects
  the wired-AND bridges across the split (see ``_Partition``).
* T3: parity-matrix driven patterns for wired-OR input pairs.  Case (a)
  handles variables with an odd diagonal count, case (b) pairs a variable
  with an odd joint count, case (c) retries both after restricting chosen
  variables to 0.  Parity rows are bitmasks read straight off the term
  multisets.  Every claim is confirmed by simulation before the partition
  is refined.  Case (c) ends once every wired-OR pair left in an open
  block is redundant; grading leaves those pairs undetected for fallback.
* T4: ceil(log2 p) halving patterns over the c lines with x all zero; every
  pair of cascade columns is driven to opposite values somewhere.
* T5: n walking-zero patterns separating AND outputs with distinct support.

T2 and T3 each refine one partition of the inputs (``_Partition``), and
check a candidate split on one fault-free evaluation: a bridge across it
moves one input, so it shows where the outputs are sensitive to that input.
Each set emits at most n - 1 patterns; with T1's 4, T4's ceil(log2 p), and
T5's n, the union stays within 3n + ceil(log2 p) + 2 whenever no fallback
pattern is needed.
Fallback repair reads each missed fault once against the repair patterns
appended so far, and consults the exhaustive oracle for the rest.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .faults import BridgingFault, FaultKind, Polarity
from .network import AndExorNetwork
from .patterns import TestPattern, TestSet
from .pprm import PprmFunction
from .simulate import (DEFAULT_ORACLE_CAP, _fault_difference, _Good, _pack,
                       exhaustive_detectability)
from .simulate import detects  # noqa: F401  (kept: perfbench/spans.py patches atpg.detects)

__all__ = [
    "count_terms",
    "gen_corner_set",
    "gen_input_and_tests",
    "gen_input_or_tests",
    "gen_cascade_pair_tests",
    "gen_walking_zero_tests",
    "SET_NAMES",
    "GenerationResult",
    "generate_sets",
    "UnionResult",
    "assemble_union",
    "BoundReport",
    "ceil_log2",
    "check_bound",
    "FallbackResult",
    "fallback_search",
]

SET_NAMES = ("T1", "T2", "T3", "T4", "T5")


def count_terms(pprm_list: Sequence[PprmFunction], k: int, variables: Iterable[int]) -> int:
    """Number of physical AND gates of output k whose term contains all of
    ``variables`` (one or two of them)."""
    need = frozenset(variables)
    if not 1 <= len(need) <= 2:
        raise ValueError("count_terms takes one or two variables")
    f = pprm_list[k - 1]
    return sum(1 for t in f.term_multiset if need <= t)


def _mask(variables: Iterable[int]) -> int:
    """Bitmask with bit v set for every variable x_v."""
    mask = 0
    for v in variables:
        mask |= 1 << v
    return mask


def _parity_rows(pprm_list: Sequence[PprmFunction], zeros: int) -> dict[int, int]:
    """Parity-matrix rows as bitmasks, with the inputs in ``zeros`` held at 0.

    Terms touching ``zeros`` drop out (the zero cofactor).  Per output, row v
    is the XOR of the masks of the surviving terms containing x_v, so its bit
    j is the parity of the terms containing both x_v and x_j (bit v: x_v
    alone); the returned row v ORs that over the outputs.  Variables no
    surviving term reads are absent.
    """
    rows: dict[int, int] = {}
    for f in pprm_list:
        acc: dict[int, int] = {}
        for term in f.term_multiset:
            mask = _mask(term)
            if mask & zeros:
                continue
            for v in term:
                acc[v] = acc.get(v, 0) ^ mask
        for v, row in acc.items():
            rows[v] = rows.get(v, 0) | row
    return rows


# ---------------------------------------------------------------------------
# T1

def gen_corner_set(n: int, p: int, *, constant_line: int | None = None) -> TestSet:
    """Four corner patterns; the constant line, if any, stays at 1."""
    zero_x = "".join("1" if v == constant_line else "0" for v in range(1, n + 1))
    one_x = "1" * n
    rows = [("0" * p, zero_x), ("0" * p, one_x), ("1" * p, zero_x), ("1" * p, one_x)]
    return TestSet(
        "T1",
        [TestPattern(c, x, origin="T1") for c, x in rows],
        target_class=FaultKind.EXOR_INTERNAL.value,
    )


# ---------------------------------------------------------------------------
# T2, and the input partition it shares with T3

def _input_pattern(network: AndExorNetwork, ones: frozenset, origin: str) -> TestPattern:
    """The inputs in ``ones`` and the constant line at 1, the other inputs at
    0 and the c lines don't-care."""
    aux = network.constant_line
    bits = "".join("1" if v in ones or v == aux else "0" for v in range(1, network.n + 1))
    return TestPattern("d" * network.p, bits, origin=origin)


class _Partition:
    """Open blocks of a partition of the real inputs, refined only by
    patterns shown to detect every bridge of one polarity across the split.

    A candidate pattern holds the split-off side at one value and the rest
    of the block at the other, the value the bridge pulls both ends to, so
    it splits where the outputs are sensitive to every input on the side.
    That reads only x, and candidates leave only the c lines don't-care, so
    no fill policy can change a check.  Open blocks hold two inputs or more.
    """

    def __init__(self, network: AndExorNetwork, polarity: Polarity) -> None:
        self.network = network
        self.polarity = polarity
        inputs = frozenset(network.real_inputs())
        self.blocks: list[frozenset] = [inputs] if len(inputs) >= 2 else []

    def block_of(self, v: int) -> frozenset | None:
        return next((b for b in self.blocks if v in b), None)

    def split(self, pattern: TestPattern, block: frozenset, side: frozenset) -> bool:
        """Split ``block`` into ``side`` and the rest if ``pattern`` detects
        every bridge across them; True when it did."""
        rest = block - side
        if not rest:
            return False
        # A bridge (r, s) across the split moves only r, to the rest's value,
        # so it shows where the outputs are sensitive to x_r, whatever s is.
        c, x, ones = _pack(self.network, [pattern], "fill-zero")
        good = _Good(self.network, c + x, ones)
        if not all(good.sensitivity(r)[0] for r in sorted(side)):
            return False
        self.blocks.remove(block)
        self.blocks.extend(part for part in (side, rest) if len(part) >= 2)
        return True

    def uncovered(self) -> tuple[tuple[int, int], ...]:
        """The input pairs no split has separated, sorted."""
        pairs = (pair for b in self.blocks for pair in itertools.combinations(sorted(b), 2))
        return tuple(sorted(pairs))


def gen_input_and_tests(network: AndExorNetwork) -> tuple[TestSet, tuple[tuple[int, int], ...]]:
    """Binary-split T2 construction for wired-AND input bridges.

    Blocks are split depth first, the gate-supported side before the rest.
    For each block, gates whose support properly intersects it are tried
    smallest support first (the lowest gate id breaks ties; a support equal
    to an earlier one is not tried again).  The candidate pattern sets the
    gate's support to 1 and every other input to 0; it splits the block only
    if simulation confirms detection of every wired-AND pair across the
    split, which takes one pair per input of the block the gate reads.
    Pairs left in blocks no candidate can split go to the caller as
    ``t2_uncovered``; fallback sees them only as grading misses.
    """
    partition = _Partition(network, Polarity.WIRED_AND)
    patterns: list[TestPattern] = []
    supports = sorted(dict.fromkeys(network.gate_supports), key=len)
    todo = list(partition.blocks)
    while todo:
        block = todo.pop()
        for support in supports:
            side = support & block
            if not side or side == block:
                continue
            pattern = _input_pattern(network, support, "T2")
            if partition.split(pattern, block, side):
                patterns.append(pattern)
                todo.extend(part for part in (block - side, side) if len(part) >= 2)
                break

    test_set = TestSet("T2", patterns, target_class="XPair/WiredAnd")
    return test_set, partition.uncovered()


# ---------------------------------------------------------------------------
# T3

def gen_input_or_tests(
    pprm_list: Sequence[PprmFunction], network: AndExorNetwork
) -> tuple[TestSet, tuple[tuple[int, int], ...]]:
    """Parity-driven T3 construction for wired-OR input bridges.

    The generator refines a partition of the inputs; a pattern is emitted
    only when it provably separates at least one block, which caps the set
    at n - 1 patterns.  Case (a) splits off a variable with an odd diagonal
    entry, case (b) a variable paired with an odd joint entry, and case (c)
    repeats both on the function restricted at a growing set of variables
    held at 0 (single variables in ascending order, then pairs, and so on,
    never deeper than n - 1).  A restriction stage is skipped when no block
    it leaves whole holds a variable with a nonzero parity row, and the walk
    ends once the oracle proves every wired-OR pair in each open block
    redundant: every split leaves a pair across it, so such a block never
    splits.  Pairs left in unsplit blocks go to the caller as
    ``t3_uncovered``; fallback sees them only as grading misses.
    """
    variables = list(network.real_inputs())
    partition = _Partition(network, Polarity.WIRED_OR)
    patterns: list[TestPattern] = []

    # every split leaves a pair across it, so a block whose wired-OR pairs
    # are all redundant never splits
    @functools.cache
    def has_detectable_pair(block: frozenset) -> bool:
        pairs = itertools.combinations(sorted(block), 2)
        faults = (BridgingFault.x_pair(r, s, Polarity.WIRED_OR) for r, s in pairs)
        return any(exhaustive_detectability(network, f).detectable for f in faults)

    def stage(restricted: frozenset) -> None:
        whole = [b for b in partition.blocks if not b & restricted]
        if not whole:
            return
        rows = _parity_rows(pprm_list, _mask(restricted))
        # cases (a) and (b) split only blocks like these
        if not any(rows.get(v) for b in whole for v in b):
            return
        active = [v for v in variables if v not in restricted]
        active_mask = _mask(active)
        ones = frozenset(active)

        def bit(i: int, k: int) -> int:
            return rows.get(i, 0) >> k & 1

        for i in active:  # case (a)
            if not bit(i, i):
                continue
            block = partition.block_of(i)
            if block is None or (block & restricted):
                continue
            pattern = _input_pattern(network, ones - {i}, "T3")
            if partition.split(pattern, block, frozenset({i})):
                patterns.append(pattern)

        for i in active:  # case (b)
            if bit(i, i):
                continue
            block = partition.block_of(i)
            if block is None or (block & restricted):
                continue
            partners = rows.get(i, 0) & active_mask
            if not partners:
                continue
            k = (partners & -partners).bit_length() - 1  # lowest partner
            pattern = _input_pattern(network, ones - {i, k}, "T3")
            block_k = partition.block_of(k)
            if block_k is block:
                # i and k stay joined: their own pair is not exercised here
                emitted = partition.split(pattern, block, frozenset({i, k}))
            else:
                emitted = partition.split(pattern, block, frozenset({i}))
                if (
                    not bit(k, k)
                    and block_k is not None
                    and not (block_k & restricted)
                    and partition.split(pattern, block_k, frozenset({k}))
                ):
                    emitted = True
            if emitted:
                patterns.append(pattern)

    stage(frozenset())
    deeper = itertools.chain.from_iterable(
        itertools.combinations(variables, depth) for depth in range(1, len(variables))
    )
    for restricted in deeper:
        if not any(has_detectable_pair(b) for b in partition.blocks):
            break
        stage(frozenset(restricted))

    test_set = TestSet("T3", patterns, target_class="XPair/WiredOr")
    return test_set, partition.uncovered()


# ---------------------------------------------------------------------------
# T4

def gen_cascade_pair_tests(p: int, n: int, *, constant_line: int | None = None) -> TestSet:
    """Halving construction over the c lines, x held at all-zero.

    Pattern r of ceil(log2 p) alternates runs of 2^(k-r) ones and zeros over
    a width-2^k grid, truncated to p columns.  Column codes are pairwise
    distinct, so every c pair sees opposite values in some pattern.
    """
    k = ceil_log2(p)
    x_bits = "".join("1" if v == constant_line else "0" for v in range(1, n + 1))
    rows = []
    for r in range(1, k + 1):
        run = 1 << (k - r)
        row = ("1" * run + "0" * run) * (1 << (r - 1))
        rows.append(TestPattern(row[:p], x_bits, origin="T4"))
    return TestSet("T4", rows, target_class=FaultKind.INTRA_LEVEL.value)


# ---------------------------------------------------------------------------
# T5

def gen_walking_zero_tests(n: int, p: int, *, constant_line: int | None = None) -> TestSet:
    """One pattern per input driving just that input to 0, c lines don't-care."""
    patterns = []
    for i in range(1, n + 1):
        if i == constant_line:
            continue
        bits = "".join("0" if v == i else "1" for v in range(1, n + 1))
        patterns.append(TestPattern("d" * p, bits, origin="T5"))
    return TestSet("T5", patterns, target_class=FaultKind.A_PAIR.value)


# ---------------------------------------------------------------------------
# pipeline helpers

@dataclass
class GenerationResult:
    sets: dict[str, TestSet]
    t2_uncovered: tuple[tuple[int, int], ...] = ()
    t3_uncovered: tuple[tuple[int, int], ...] = ()

    def ordered_sets(self) -> list[TestSet]:
        return [self.sets[name] for name in SET_NAMES if name in self.sets]


def generate_sets(
    pprm_list: Sequence[PprmFunction],
    network: AndExorNetwork,
    selector: Iterable[str] = SET_NAMES,
) -> GenerationResult:
    """Build the selected named sets for one netlist."""
    wanted = list(selector)
    unknown = [name for name in wanted if name not in SET_NAMES]
    if unknown:
        raise ValueError(f"unknown test-set name(s): {', '.join(unknown)}")
    aux = network.constant_line
    result = GenerationResult(sets={})
    if "T1" in wanted:
        result.sets["T1"] = gen_corner_set(network.n, network.p, constant_line=aux)
    if "T2" in wanted:
        result.sets["T2"], result.t2_uncovered = gen_input_and_tests(network)
    if "T3" in wanted:
        result.sets["T3"], result.t3_uncovered = gen_input_or_tests(pprm_list, network)
    if "T4" in wanted:
        result.sets["T4"] = gen_cascade_pair_tests(network.p, network.n, constant_line=aux)
    if "T5" in wanted:
        result.sets["T5"] = gen_walking_zero_tests(network.n, network.p, constant_line=aux)
    return result


@dataclass
class UnionResult:
    test_set: TestSet
    pre_dedup_size: int
    fallback_count: int
    removed: int = 0


def assemble_union(
    sets: Sequence[TestSet],
    fallback: Sequence[TestPattern] = (),
    *,
    dedup: bool = False,
    dc_policy: str = "fill-zero",
) -> UnionResult:
    """Concatenate the named sets in order, then fallback patterns.

    The pre-deduplication size is recorded for the bound check even when
    ``dedup`` drops patterns that collide after don't-care instantiation.
    """
    ordered = [pat for ts in sets for pat in ts] + list(fallback)
    pre = len(ordered)
    removed = 0
    if dedup:
        seen: set[str] = set()
        kept = []
        for pat in ordered:
            key = pat.resolved_line(dc_policy)
            if key in seen:
                removed += 1
                continue
            seen.add(key)
            kept.append(pat)
        ordered = kept
    return UnionResult(TestSet("Union", ordered), pre, len(fallback), removed)


def ceil_log2(p: int) -> int:
    if p < 1:
        raise ValueError("p must be positive")
    return (p - 1).bit_length()


@dataclass(frozen=True)
class BoundReport:
    size: int
    bound: int
    passed: bool
    fallback_count: int
    construction_size: int
    exceeds_construction: bool


def check_bound(union: UnionResult, n: int, p: int) -> BoundReport:
    """Compare the pre-dedup union size against 3n + ceil(log2 p) + 2.

    ``n`` is the count of real inputs (the constant line does not count).
    Fallback patterns sit outside the construction, so their presence is
    flagged separately even when the size still fits.
    """
    bound = 3 * n + ceil_log2(p) + 2
    size = union.pre_dedup_size
    return BoundReport(
        size=size,
        bound=bound,
        passed=size <= bound,
        fallback_count=union.fallback_count,
        construction_size=size - union.fallback_count,
        exceeds_construction=union.fallback_count > 0,
    )


# the over-cap random search: its seed and the draws it grades per fault
_RANDOM_SEED = 271828
_RANDOM_DRAWS = 512


@dataclass
class FallbackResult:
    patterns: list[TestPattern] = field(default_factory=list)
    redundant: dict[BridgingFault, str] = field(default_factory=dict)
    unresolved: list[BridgingFault] = field(default_factory=list)


def fallback_search(
    network: AndExorNetwork,
    uncovered_faults: Sequence[BridgingFault],
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    *,
    classify_only: bool = False,
) -> FallbackResult:
    """Repair coverage for the faults grading left undetected.

    Each fault is read once against the repair patterns appended so far,
    packed as columns, and skipped if they detect it.  Up to width
    ``oracle_cap`` the others get the oracle's exact verdict: a witness
    pattern or a redundancy proof (``redundant`` maps the fault to the
    proving method).  Above it a seeded random search reads 512 draws per
    fault at once and gives up as unresolved.  Unmet ExorInternal
    obligations are repaired by appending the corner set, whose patterns
    provably complete every reachable mask.

    With ``classify_only`` no patterns are ever added; redundancy and
    unresolved classifications still come out, so a fixed test set can be
    graded with the same verdict vocabulary the repair path uses.
    """
    out = FallbackResult()
    width = network.n + network.p
    repairs = None  # the patterns appended so far, packed; read only once there are any

    def append(patterns: Iterable[TestPattern]) -> _Good:  # no don't-care to resolve
        out.patterns.extend(patterns)
        c, x, ones = _pack(network, out.patterns, "fill-zero")
        return _Good(network, c + x, ones)

    corners_added = False
    # oracle verdicts; both polarities of an APair or IntraLevel share one
    proofs: dict[tuple, bool] = {}
    pinned = None if network.constant_line is None else network.p + network.constant_line - 1
    for idx, fault in enumerate(uncovered_faults):
        if fault.kind is FaultKind.EXOR_INTERNAL:
            if not classify_only and not corners_added:
                corners = gen_corner_set(network.n, network.p, constant_line=network.constant_line)
                repairs = append(replace(pat, origin="Fallback") for pat in corners)
                corners_added = True
            continue
        pair = (fault.kind, fault.ids, fault.kind is FaultKind.X_PAIR and fault.polarity)
        if pair in proofs:
            if not proofs[pair]:  # a detectable pair's witness is kept, or not wanted
                out.redundant[fault] = "exhaustive"
            continue
        if out.patterns and _fault_difference(repairs, fault.kind, fault.ids, fault.polarity):
            continue
        if width <= oracle_cap:
            res = exhaustive_detectability(network, fault)
            proofs[pair] = res.detectable
            if not res.detectable:
                out.redundant[fault] = "exhaustive"
            elif not classify_only:
                repairs = append([res.witness])
            continue
        diff = 0
        if not classify_only:
            # Draw t fills bit t of the c columns then the x columns, one
            # rng.choice per line except the constant line, which stays 1.
            # All draws are read at once; the first detecting one is kept.
            rng = random.Random(_RANDOM_SEED * 1000003 + idx)
            ones = (1 << _RANDOM_DRAWS) - 1
            cols = [ones if k == pinned else 0 for k in range(width)]
            drawn = [k for k in range(width) if k != pinned]
            for t in range(_RANDOM_DRAWS):
                for k in drawn:
                    if rng.choice("01") == "1":
                        cols[k] |= 1 << t
            draws = _Good(network, cols, ones)
            diff = _fault_difference(draws, fault.kind, fault.ids, fault.polarity)
        if not diff:
            out.unresolved.append(fault)
        else:
            first = (diff & -diff).bit_length() - 1
            bits = "".join(str(col >> first & 1) for col in cols)
            repairs = append([TestPattern(bits[: network.p], bits[network.p :], origin="Fallback")])
    return out
