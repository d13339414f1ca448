"""Record types: what they print, hash and refuse, and what the CLI loads.

The records are ``typing.NamedTuple``s, so that starting the CLI does not
import ``dataclasses``.  They keep the dataclass repr, equality,
field-tuple hash and read-only fields.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bridgetest import (
    AndExorNetwork,
    BridgingFault,
    FallbackResult,
    FaultKind,
    FaultVerdict,
    GenerationResult,
    OracleResult,
    Polarity,
    UnionResult,
    detects,
    exhaustive_detectability,
)
from bridgetest.cli import RunConfig
from bridgetest.pprm import PprmFunction

SRC = Path(__file__).resolve().parent.parent / "src"

# one instance of each record type, and the repr its dataclass printed
RECORDS = [
    (AndExorNetwork(2, 1, (frozenset({1}),), (1,)),
     "AndExorNetwork(n=2, p=1, gate_supports=(frozenset({1}),), gate_targets=(1,),"
     " constant_line=None, name='')"),
    (PprmFunction(1, (frozenset({1}),), (frozenset({1}),)),
     "PprmFunction(output_index=1, term_multiset=(frozenset({1}),),"
     " canonical_terms=(frozenset({1}),))"),
    (BridgingFault(FaultKind.A_PAIR, (1, 2), Polarity.WIRED_OR),
     "BridgingFault(kind=<FaultKind.A_PAIR: 'APair'>, ids=(1, 2),"
     " polarity=<Polarity.WIRED_OR: 'WiredOr'>)"),
    (OracleResult("detectable", "101"), "OracleResult(status='detectable', witness='101')"),
    (FaultVerdict(BridgingFault.exor_internal(3), "detected", 0, "stimulation"),
     "FaultVerdict(fault=BridgingFault(kind=<FaultKind.EXOR_INTERNAL: 'ExorInternal'>,"
     " ids=(3,), polarity=None), status='detected', pattern_index=0, method='stimulation')"),
    (RunConfig("verify"),
     "RunConfig(command='verify', sets=('T1', 'T2', 'T3', 'T4', 'T5'), dc_policy='fill-zero',"
     " oracle_cap=22, fallback=True, dedup=False, include_aux=False)"),
    (GenerationResult({"T5": ["d01"]}, ((1, 2),)),
     "GenerationResult(sets={'T5': ['d01']}, t2_uncovered=((1, 2),), t3_uncovered=())"),
    (UnionResult(["101"], ["T1"], 1, 0),
     "UnionResult(rows=['101'], origins=['T1'], pre_dedup_size=1, fallback_count=0)"),
    (FallbackResult(["101"], [4], []),
     "FallbackResult(patterns=['101'], redundant=[4], unresolved=[])"),
]
# the records whose fields are all hashable
HASHABLE = (AndExorNetwork, PprmFunction, BridgingFault, OracleResult, FaultVerdict, RunConfig)


@pytest.mark.parametrize("record, text", RECORDS, ids=lambda r: type(r).__name__)
def test_record_semantics(record, text):
    assert repr(record) == text
    fields = tuple(getattr(record, name) for name in record._fields)
    assert record == type(record)(*fields)
    if isinstance(record, HASHABLE):
        assert hash(record) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], fields[0])


@pytest.mark.parametrize("args, message", [
    ((FaultKind.EXOR_INTERNAL, (1,), Polarity.WIRED_AND),
     "ExorInternal takes a single gate id and no polarity"),
    ((FaultKind.X_PAIR, (2, 1), Polarity.WIRED_AND), "XPair needs an ordered index pair"),
    ((FaultKind.A_PAIR, (1, 2)), "APair needs a polarity"),
    ((FaultKind.INTRA_LEVEL, (1, 2, 2), Polarity.WIRED_OR),
     r"IntraLevel needs \(level, j1, j2\) with j1 < j2"),
    ((FaultKind.INTRA_LEVEL, (1, 1, 2)), "IntraLevel needs a polarity"),
    # a kind or polarity given by its value is checked as the member
    (("ExorInternal", (1,), "WiredAnd"), "ExorInternal takes a single gate id and no polarity"),
    (("APair", (1, 2)), "APair needs a polarity"),
    (("XPair", (1, 2), "bogus"), "'bogus' is not a valid Polarity"),
    (("Bogus", (1, 2), "WiredOr"), "'Bogus' is not a valid FaultKind"),
    ((FaultKind.X_PAIR, (1, 2), FaultKind.X_PAIR),
     "<FaultKind.X_PAIR: 'XPair'> is not a valid Polarity"),
])
def test_fault_errors(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BridgingFault(*args)


@pytest.mark.parametrize("kind", ["XPair", FaultKind.X_PAIR])
@pytest.mark.parametrize("polarity", ["WiredAnd", "WiredOr", Polarity.WIRED_OR])
def test_fault_by_value_is_the_member_fault(kind, polarity):
    # built from "XPair" or "WiredAnd", a fault reads as the enum-built one:
    # the same members, description, oracle witness and detects answers
    net = AndExorNetwork(2, 1, (frozenset({1}),), (1,))
    fault = BridgingFault(kind, (1, 2), polarity)
    member = BridgingFault(FaultKind.X_PAIR, (1, 2), Polarity(polarity))
    assert fault.kind is FaultKind.X_PAIR and fault.polarity is member.polarity
    assert fault.describe() == member.describe() == f"XPair (x1,x2) {Polarity(polarity).value}"
    witness = exhaustive_detectability(net, fault).witness
    assert witness == exhaustive_detectability(net, member).witness
    assert detects(net, fault, witness)
    for row in ("000", "001", "010", "011", "100", "101", "110", "111"):
        assert detects(net, fault, row) == detects(net, member, row), row


def test_pattern_errors():
    # a pattern is a row with no record of its own: detects refuses a bad
    # one with _pack's message, so outside rows are still checked
    net = AndExorNetwork(3, 1, (frozenset({1, 2}),), (1,))
    fault = BridgingFault.x_pair(1, 2, Polarity.WIRED_OR)
    with pytest.raises(ValueError, match=r"^bad pattern symbol \['2', 'x'\]$"):
        detects(net, fault, "0xd2")  # the don't-care is filled, not listed
    for row in ("011", "01101"):
        message = rf"^pattern has {len(row)} symbols, expected 4 \(p=1 then n=3\)$"
        with pytest.raises(ValueError, match=message):
            detects(net, fault, row)


def test_cli_start_loads_no_dataclasses():
    # pytest imports dataclasses and inspect itself, so ask a fresh interpreter
    code = ("import sys, bridgetest.cli as c; c.build_parser();"
            " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
