"""
Building the five test sets and checking the size bound
=======================================================

Runs the full generation pipeline on the benchmark: T1 corners for the
EXOR obligations, T2/T3 splitting constructions for input bridges, T4
halving patterns for cascade bridges, T5 walking zeros for AND-output
bridges.  The union is then graded, repaired where needed, and checked
against 3n + ceil(log2 p) + 2.
"""

from bridgetest import (
    benchmark_circuit,
    enumerate_faults,
    expand_network,
    generate_sets,
)
from bridgetest.cli import RunConfig, run_pipeline

circuit = benchmark_circuit()
net = expand_network(circuit)

result = generate_sets(net)
for name, ts in result.sets.items():
    print(f"{name} ({ts.target_class}): {len(ts)} patterns, c1..c3 then x1..x7")
    for row in ts.rows:
        print(f"  {row}")
print()

# grade the union, let the fallback repair or classify whatever is left, and
# check the bound: the pipeline `bridgetest verify --dedup` runs
faults = enumerate_faults(net)
run = run_pipeline(net, faults, result.ordered_sets(), RunConfig("verify", dedup=True))
evaluation = run.evaluation
print(f"union of {run.union.pre_dedup_size}: {evaluation.count('detected')} of"
      f" {len(faults)} faults detected, {evaluation.count('undetected')} left")
for k in run.fallback.redundant:  # fault indices, each proved by the exhaustive oracle
    print(f"  {faults[k].describe()}: redundant (exhaustive proof)")
if run.fallback.patterns:
    print(f"  repair patterns added: {run.fallback.patterns}")
print()

# the bound counts the construction before any deduplication
bound = run.bound
print(f"bound: {bound.size} <= {bound.bound} -> {'pass' if bound.passed else 'FAIL'}")

# duplicates across sets are dropped for the actual tester load
print(f"after dedup: {len(run.union.test_set)} patterns ({run.union.removed} removed)")
