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
  variables to 0.  Parity rows are bitmasks XORed from the gate supports
  (f_j's terms are the supports of the gates on c_j), so generation reads
  no PPRM.  Every claim is confirmed by ``_Partition.split`` before the
  partition is refined.  Case (c) ends once every wired-OR pair left in an
  open block is redundant; grading leaves those pairs undetected for
  fallback.
* T4: ceil(log2 p) halving patterns over the c lines with x all zero; every
  pair of cascade columns is driven to opposite values somewhere.
* T5: n walking-zero patterns separating AND outputs with distinct support.

T2 and T3 each refine one partition of the inputs (``_Partition``).  A
bridge across a candidate split moves one input, so it shows where the
outputs are sensitive to that input, a parity count over the gate
supports held as bitmasks: no candidate is evaluated.
Each set emits at most n - 1 patterns; with T1's 4, T4's ceil(log2 p), and
T5's n, the union stays within 3n + ceil(log2 p) + 2 whenever no fallback
pattern is needed.
Fallback repair finds the misses by index in a graded ``Evaluation``, reads
each once against the repair patterns appended so far, consults the
exhaustive oracle for the rest, and writes each redundant or unresolved
verdict into that evaluation as it decides it.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .circuit import AndExorNetwork
from .faults import BridgingFault, FaultKind, Polarity
from .patterns import fill_table
from .simulate import (DEFAULT_ORACLE_CAP, REDUNDANT, UNDETECTED, UNRESOLVED, Evaluation,
                       _change_monomials, _fault_difference, _gate_tables, _pack,
                       exhaustive_detectability)
from .simulate import detects  # noqa: F401  (kept: perfbench/spans.py patches atpg.detects)

__all__ = [
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
    "ceil_log2",
    "size_bound",
    "FallbackResult",
    "fallback_search",
]

SET_NAMES = ("T1", "T2", "T3", "T4", "T5")


def _mask(variables: Iterable[int]) -> int:
    """Bitmask with bit v set for every variable x_v."""
    mask = 0
    for v in variables:
        mask |= 1 << v
    return mask


def _parity_rows(network: AndExorNetwork, zeros: int) -> dict[int, int]:
    """Parity-matrix rows as bitmasks, with the inputs in ``zeros`` held at 0.

    Output f_j is c_j XOR one AND per gate on c_j, so its terms are the
    supports of those gates.  Gates whose support meets ``zeros`` drop out
    (the zero cofactor).  Per target, row v is the XOR of the support masks
    of the surviving gates reading x_v, so its bit j is the parity of the
    gates reading both x_v and x_j (bit v: x_v alone); the returned row v
    ORs that over the targets.  Variables no surviving gate reads are absent.
    """
    per_target: dict[int, dict[int, int]] = {}
    masks = _gate_tables(network)[2]
    for sup, mask, target in zip(network.gate_supports, masks, network.gate_targets):
        if not mask & zeros:
            acc = per_target.setdefault(target, {})
            for v in sup:
                acc[v] = acc.get(v, 0) ^ mask
    rows: dict[int, int] = {}
    for acc in per_target.values():
        for v, row in acc.items():
            rows[v] = rows.get(v, 0) | row
    return rows


def _input_pattern(network: AndExorNetwork, ones: int, c: str | None = None) -> str:
    """The row with the c lines ``c`` (all don't-care by default), the
    inputs in the mask ``ones`` (bit v for x_v; bit 0 is dropped) and the
    constant line at 1, and the other inputs at 0.  The x part is read off
    ``bin`` with a sentinel bit above x_n, which fixes its width."""
    ones |= 1 << (network.constant_line or 0)
    return ("d" * network.p if c is None else c) + bin(ones >> 1 | 1 << network.n)[:2:-1]


# ---------------------------------------------------------------------------
# T1

def gen_corner_set(network: AndExorNetwork) -> list[str]:
    """Four corner patterns; the constant line, if any, stays at 1."""
    every_x = (2 << network.n) - 2
    return [_input_pattern(network, x, c * network.p) for c in "01" for x in (0, every_x)]


# ---------------------------------------------------------------------------
# T2, and the input partition it shares with T3

def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending, one step per set bit."""
    out = []
    while mask:
        out.append((low := mask & -mask).bit_length() - 1)
        mask ^= low
    return out


class _Partition:
    """Open blocks of a partition of the real inputs, refined only by
    patterns shown to detect every bridge of one polarity across the split.

    Blocks and sides are bitmasks, bit v for x_v.  A candidate pattern
    holds the split-off side at one value and the rest of the block at the
    other, the value the bridge pulls both ends to, so it splits where the
    outputs are sensitive to every input on the side.  A candidate is the
    mask ``ones`` of its x inputs at 1, the constant line included, and
    leaves only the c lines don't-care, so no fill policy can change a
    check and nothing is evaluated.  Open blocks hold two inputs or more.
    """

    def __init__(self, network: AndExorNetwork, polarity: Polarity) -> None:
        self.network = network
        self.polarity = polarity
        self._readers = _gate_tables(network)[1]
        inputs = _mask(network.real_inputs())
        self.blocks: list[int] = [inputs] if inputs & (inputs - 1) else []

    def block_of(self, v: int) -> int | None:
        return next((b for b in self.blocks if b >> v & 1), None)

    def sensitive(self, ones: int, r: int) -> bool:
        """True when the outputs flip with x_r under ``ones``: some target
        has an odd number of gates reading x_r with their other inputs at 1."""
        odd = 0  # bit t: the parity on target t
        for target, _, others in self._readers[r]:
            if others & ones == others:
                odd ^= 1 << target
        return odd != 0

    def split(self, ones: int, block: int, side: int) -> bool:
        """Split ``block`` into ``side`` and the rest if the candidate
        ``ones`` detects every bridge across them; True when it did."""
        rest = block & ~side
        if not rest:
            return False
        # A bridge (r, s) across the split moves only r, to the rest's value,
        # so it shows where the outputs are sensitive to x_r, whatever s is.
        if not all(self.sensitive(ones, r) for r in _bits(side)):
            return False
        self.blocks.remove(block)
        self.blocks += [part for part in (side, rest) if part & (part - 1)]
        return True

    def uncovered(self) -> tuple[tuple[int, int], ...]:
        """The input pairs no split has separated, sorted."""
        pairs = (pair for b in self.blocks for pair in itertools.combinations(_bits(b), 2))
        return tuple(sorted(pairs))


def gen_input_and_tests(network: AndExorNetwork) -> tuple[list[str], tuple[tuple[int, int], ...]]:
    """Binary-split T2 construction for wired-AND input bridges.

    Blocks are split depth first, the gate-supported side before the rest.
    For each block, gates whose support properly intersects it are tried
    smallest support first (the lowest gate id breaks ties; a support equal
    to an earlier one is not tried again).  The candidate pattern sets the
    gate's support to 1 and every other input to 0; it splits the block only
    if it provably detects every wired-AND pair across the split, which
    takes one pair per input of the block the gate reads.
    Pairs left in blocks no candidate can split go to the caller as
    ``t2_uncovered``; fallback sees them only as grading misses.
    """
    partition = _Partition(network, Polarity.WIRED_AND)
    patterns: list[str] = []
    pin = 1 << (network.constant_line or 0)  # the constant line stays 1
    candidates = dict.fromkeys(m | pin for m in sorted(_gate_tables(network)[2], key=int.bit_count))
    todo = list(partition.blocks)
    while todo:
        block = todo.pop()
        for ones in candidates:
            side = ones & block
            if not side or side == block:
                continue
            if partition.split(ones, block, side):
                patterns.append(_input_pattern(network, ones))
                todo += [part for part in (block & ~side, side) if part & (part - 1)]
                break

    return patterns, partition.uncovered()


# ---------------------------------------------------------------------------
# T3

def gen_input_or_tests(network: AndExorNetwork) -> tuple[list[str], tuple[tuple[int, int], ...]]:
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
    patterns: list[str] = []
    pin = 1 << (network.constant_line or 0)  # the constant line stays 1

    # every split leaves a pair across it, so a block whose wired-OR pairs
    # are all redundant never splits
    @functools.cache
    def has_detectable_pair(block: int) -> bool:
        pairs = itertools.combinations(_bits(block), 2)
        faults = (BridgingFault.x_pair(r, s, Polarity.WIRED_OR) for r, s in pairs)
        return any(exhaustive_detectability(network, f).detectable for f in faults)

    def stage(restricted: int) -> None:
        whole = [b for b in partition.blocks if not b & restricted]
        if not whole:
            return
        rows = _parity_rows(network, restricted)
        # cases (a) and (b) split only blocks like these
        read = _mask(v for v, row in rows.items() if row)
        if not any(b & read for b in whole):
            return
        active = [v for v in variables if not restricted >> v & 1]
        active_mask = _mask(active)

        # i -> k: i itself for case (a), an odd diagonal entry, else case
        # (b)'s lowest partner with an odd joint entry
        pair: dict[int, int] = {}
        for i in active:
            if odd := rows.get(i, 0) & active_mask:
                pair[i] = i if odd >> i & 1 else (odd & -odd).bit_length() - 1

        for case_a in (True, False):  # case (a) first
            for i in [i for i, k in pair.items() if (i == k) is case_a]:
                k, block = pair[i], partition.block_of(i)
                if block is None or block & restricted:
                    continue
                ones, block_k = (active_mask | pin) & ~(1 << i | 1 << k), partition.block_of(k)
                if block_k == block:
                    # case (a), or i and k stay joined: their own pair is not
                    # exercised here
                    emitted = partition.split(ones, block, 1 << i | 1 << k)
                else:
                    emitted = partition.split(ones, block, 1 << i)
                    if pair.get(k) != k and block_k is not None and not block_k & restricted:
                        emitted = partition.split(ones, block_k, 1 << k) or emitted
                if emitted:
                    patterns.append(_input_pattern(network, ones))

    stage(0)
    deeper = itertools.chain.from_iterable(
        itertools.combinations(variables, depth) for depth in range(1, len(variables))
    )
    for restricted in deeper:
        if not any(has_detectable_pair(b) for b in partition.blocks):
            break
        stage(_mask(restricted))

    return patterns, partition.uncovered()


# ---------------------------------------------------------------------------
# T4

def gen_cascade_pair_tests(network: AndExorNetwork) -> list[str]:
    """Halving construction over the c lines, x held at all-zero.

    Pattern r of ceil(log2 p) alternates runs of 2^(k-r) ones and zeros over
    a width-2^k grid, truncated to p columns.  Column codes are pairwise
    distinct, so every c pair sees opposite values in some pattern.
    """
    p = network.p
    k = ceil_log2(p)
    rows = []
    for r in range(1, k + 1):
        run = 1 << (k - r)
        row = ("1" * run + "0" * run) * (1 << (r - 1))
        rows.append(_input_pattern(network, 0, row[:p]))
    return rows


# ---------------------------------------------------------------------------
# T5

def gen_walking_zero_tests(network: AndExorNetwork) -> list[str]:
    """One pattern per real input driving just that input to 0, c lines don't-care."""
    ones, k = _input_pattern(network, (2 << network.n) - 2), network.p - 1
    return [ones[: k + i] + "0" + ones[k + i + 1 :] for i in network.real_inputs()]


# ---------------------------------------------------------------------------
# pipeline helpers

class GenerationResult(NamedTuple):
    """Each selected set's rows under its name, in ``SET_NAMES`` order
    whatever order they were selected in, and the input pairs T2 and T3
    left unseparated."""

    sets: dict[str, list[str]]
    t2_uncovered: tuple[tuple[int, int], ...] = ()
    t3_uncovered: tuple[tuple[int, int], ...] = ()


def generate_sets(network: AndExorNetwork, selector: Iterable[str] = SET_NAMES) -> GenerationResult:
    """Build the selected named sets for one netlist."""
    wanted = list(selector)
    unknown = [name for name in wanted if name not in SET_NAMES]
    if unknown:
        raise ValueError(f"unknown test-set name(s): {', '.join(unknown)}")
    sets: dict[str, list[str]] = {}
    t2_uncovered = t3_uncovered = ()
    if "T1" in wanted:
        sets["T1"] = gen_corner_set(network)
    if "T2" in wanted:
        sets["T2"], t2_uncovered = gen_input_and_tests(network)
    if "T3" in wanted:
        sets["T3"], t3_uncovered = gen_input_or_tests(network)
    if "T4" in wanted:
        sets["T4"] = gen_cascade_pair_tests(network)
    if "T5" in wanted:
        sets["T5"] = gen_walking_zero_tests(network)
    return GenerationResult(sets, t2_uncovered, t3_uncovered)


class UnionResult(NamedTuple):
    rows: list[str]
    origins: list[str]  # per row: its set's name, or "Fallback"
    pre_dedup_size: int
    fallback_count: int

    @property
    def removed(self) -> int:
        """The rows dedup dropped."""
        return self.pre_dedup_size - len(self.rows)


def assemble_union(
    sets: Mapping[str, Sequence[str]],
    fallback: Sequence[str] = (),
    *,
    dedup: bool = False,
    dc_policy: str = "fill-zero",
) -> UnionResult:
    """Concatenate the named sets' rows in the mapping's order, then the fallback rows.

    The pre-deduplication size is recorded for the size bound even when
    ``dedup`` keeps only the first of the rows that collide after
    don't-care instantiation.
    """
    rows = list(itertools.chain(*sets.values(), fallback))
    origins = []
    for name, set_rows in sets.items():
        origins += [name] * len(set_rows)
    origins += ["Fallback"] * len(fallback)
    pre = len(rows)
    if dedup:
        table, first = fill_table(dc_policy), {}  # first: filled row -> its first index
        for k, row in enumerate(rows):
            first.setdefault(row.translate(table), k)
        rows, origins = [rows[k] for k in first.values()], [origins[k] for k in first.values()]
    return UnionResult(rows, origins, pre, len(fallback))


def ceil_log2(p: int) -> int:
    if p < 1:
        raise ValueError("p must be positive")
    return (p - 1).bit_length()


def size_bound(network: AndExorNetwork) -> int:
    """The paper's bound on the union's size, 3n + ceil(log2 p) + 2.

    ``n`` counts the network's real inputs: it leaves out the constant line
    that normalization adds, so it is not ``network.n`` then.  The union's
    size before dedup is held to it.
    """
    return 3 * len(network.real_inputs()) + ceil_log2(network.p) + 2


# the over-cap random search: its seed and the draws it grades per fault
_RANDOM_SEED = 271828
_RANDOM_DRAWS = 512


class FallbackResult(NamedTuple):
    """Repair rows, and the fault indices left unresolved, ascending: the
    evaluation holds every verdict, and ``unresolved`` stays only for
    ``perfbench/spans.py``, which counts them."""

    patterns: list[str]
    unresolved: list[int]


def fallback_search(
    evaluation: Evaluation,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    *,
    classify_only: bool = False,
) -> FallbackResult:
    """Repair coverage for the faults grading left undetected, writing each
    redundant or unresolved verdict into ``evaluation.status``.

    Unmet ExorInternal obligations are repaired first, by the corner set's
    rows, which provably complete every reachable mask.  The pair misses,
    the other ``undetected`` entries of the graded ``evaluation``, are
    visited in index order.  Each is read once against the repair rows
    appended so far and skipped if they detect it.  Up to width
    ``oracle_cap`` the others get the oracle's exact verdict: a witness
    row, or a redundancy proof.  Both entries of an APair or IntraLevel
    pair take the verdict the oracle gave the first.  Above the cap a
    random search, seeded by the miss's ordinal among all misses, packs
    512 drawn rows at once and keeps the first detecting one, or gives up
    as unresolved, drawing nothing when the changes have no monomial.  A
    miss the repair rows detect stays undetected until they are graded.

    With ``classify_only`` no patterns are ever added; redundancy and
    unresolved verdicts are still written, so a fixed test set is graded
    with the same verdict vocabulary the repair path uses.
    """
    faults, status = evaluation.faults, evaluation.status
    network = faults.network
    patterns: list[str] = []
    unresolved: list[int] = []
    width = network.n + network.p
    repairs = None  # the rows appended so far, packed; read only once there are any

    def append(rows: Iterable[str]):  # no don't-care to resolve
        patterns.extend(rows)
        return _pack(network, patterns, "fill-zero")

    def misses(k: int) -> Iterator[int]:  # from index k on
        k = status.find(UNDETECTED, k)
        while k >= 0:
            yield k
            k = status.find(UNDETECTED, k + 1)

    # unmet ExorInternal obligations: a miss's ordinal, its random seed, counts them
    unmet, aux = status.count(UNDETECTED, 0, faults.d), network.constant_line
    if unmet and not classify_only:
        repairs = append(gen_corner_set(network))
    decided, detectable = None, False  # the last pair the oracle decided, and its verdict
    pinned = None if aux is None else network.p + aux - 1
    for idx, k in enumerate(misses(faults.d), start=unmet):
        kind, ids, polarity = faults.entry(k)
        pair = (kind, ids, kind is FaultKind.X_PAIR and polarity)
        if pair == decided:
            if not detectable:  # a detectable pair's witness is kept, or not wanted
                status[k] = REDUNDANT
            continue
        if patterns and _fault_difference(repairs, kind, ids, polarity):
            continue
        if width <= oracle_cap:
            res = exhaustive_detectability(network, BridgingFault(kind, ids, polarity))
            decided, detectable = pair, res.detectable
            if not res.detectable:
                status[k] = REDUNDANT
            elif not classify_only:
                repairs = append([res.witness])
            continue
        diff = 0
        if not classify_only and _change_monomials(network, kind, ids, polarity):
            # one rng.choice per line, c lines then x lines, except the
            # constant line, which stays 1; all draws are read at once
            rng = random.Random(_RANDOM_SEED * 1000003 + idx)
            draws = ["".join("1" if j == pinned else rng.choice("01") for j in range(width))
                     for _ in range(_RANDOM_DRAWS)]
            diff = _fault_difference(_pack(network, draws, "fill-zero"), kind, ids, polarity)
        if not diff:
            status[k] = UNRESOLVED
            unresolved.append(k)
        else:  # the first detecting draw
            repairs = append([draws[(diff & -diff).bit_length() - 1]])
    return FallbackResult(patterns, unresolved)
