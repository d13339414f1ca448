"""
Injecting bridging faults and grading a test set
================================================

Shows the four fault classes on a small circuit: what a wired-AND or
wired-OR short does to the two nets, how a single pattern, a row of c
symbols then x symbols, is judged from the closed-form output change, and
how a whole list of rows is graded in one call.
"""

from bridgetest import (
    BridgingFault,
    FaultKind,
    Polarity,
    bridge_values,
    detects,
    enumerate_faults,
    evaluate_test_set,
    expand_network,
    parse_circuit,
)

# f1 = c1 + x1 + x2: two single-control gates on one target line
circuit = parse_circuit(".n 2\n.p 1\n.gate c1 : x1\n.gate c1 : x2\n.end\n")
net = expand_network(circuit)

# the wired semantics themselves: both nets take the AND (or OR)
for pol in (Polarity.WIRED_AND, Polarity.WIRED_OR):
    pairs = [bridge_values(a, b, pol) for a in (0, 1) for b in (0, 1)]
    print(f"{pol.value}: 00 01 10 11 -> " + " ".join(f"{x}{y}" for x, y in pairs))
print()

# a bridge between the two AND outputs, wired-AND polarity.  One of the two
# nets flips exactly when they differ, and the EXOR cascade passes the flip
# on, so whatever the polarity the output changes by a1 XOR a2: the
# fault-free AND outputs decide detection without a faulty evaluation.
fault = BridgingFault(FaultKind.A_PAIR, (1, 2), Polarity.WIRED_AND)
row = "010"  # c1 then x1 x2
x = row[net.p :]
a = [int(all(x[v - 1] == "1" for v in support)) for support in net.gate_supports]
print(f"pattern {row}: a={tuple(a)}, output change a1 XOR a2 = {a[0] ^ a[1]}")
print(f"detected: {detects(net, fault, row)}")
print()

# the full universe for this netlist, graded against three rows (c1 x1 x2)
faults = enumerate_faults(net)
print(f"fault universe: {dict(faults.counts)}")
rows = ["010", "001", "111"]
evaluation = evaluate_test_set(net, faults, rows)
for verdict in evaluation.verdicts:
    where = verdict.fault.describe()
    extra = f" (pattern {verdict.pattern_index + 1})" if verdict.pattern_index is not None else ""
    print(f"  {where}: {verdict.status}{extra}")
print()

# the EXOR obligations stay open above: three ad-hoc patterns cannot show
# a gate all four input combinations.  The corner set exists for exactly that.
from bridgetest import gen_corner_set

with_corners = rows + gen_corner_set(net)
evaluation = evaluate_test_set(net, faults, with_corners)
print(f"with the corner set added: {evaluation.count('detected')} of"
      f" {len(faults)} detected, masks = {[bin(m) for m in evaluation.masks]}")
