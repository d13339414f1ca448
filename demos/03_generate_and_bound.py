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
    expand_network,
    generate_sets,
    size_bound,
)
from bridgetest.cli import RunConfig, run_pipeline

circuit = benchmark_circuit()
net = expand_network(circuit)

# each set is its rows, under its name in T1..T5 order
result = generate_sets(net)
for name, rows in result.sets.items():
    print(f"{name}: {len(rows)} patterns, c1..c3 then x1..x7")
    for row in rows:
        print(f"  {row}")
print()

# grade the union and let the fallback repair or classify whatever is left:
# the pipeline `bridgetest verify --dedup` runs
run = run_pipeline(net, result.sets, RunConfig("verify", dedup=True))
evaluation = run.evaluation
print(f"union of {run.union.pre_dedup_size}: {evaluation.count('detected')} of"
      f" {len(evaluation.faults)} faults detected, {evaluation.count('undetected')} left")
# fallback writes its verdicts into the evaluation; a redundant verdict's
# method names its proof (exhaustive, or constant-line for an EXOR obligation)
for verdict in evaluation.verdicts:
    if verdict.status == "redundant":
        print(f"  {verdict.fault.describe()}: redundant ({verdict.method} proof)")
if run.union.fallback_count:
    repairs = [row for row, origin in zip(run.union.rows, run.union.origins) if origin == "Fallback"]
    print(f"  repair patterns added: {repairs}")
print()

# the bound is a number read off the network; it is held against the union
# before any deduplication
size, bound = run.union.pre_dedup_size, size_bound(net)
print(f"bound: {size} <= {bound} -> {'pass' if size <= bound else 'FAIL'}")

# duplicates across sets are dropped for the actual tester load
print(f"after dedup: {len(run.union.rows)} patterns ({run.union.removed} removed)")
