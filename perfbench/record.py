"""Record what later runs of the benchmark compare against.

    python3 perfbench/record.py --seeds 0-31

For every workload and seed this runs each op once, untimed, checks its
output with the reference checker and stores the report's digest under a
digest of the op's inputs in ``digests.json``; a traced run counts the ops
whose report bytes differ from it as ``report.changed_ops``.  An op that
fails its check is not recorded.  It also writes ``workload_stats.json``:
the input statistics of each workload over those seeds, so the traffic each
workload sends is measured rather than assumed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from collections import Counter

import checker
import run
import workloads

STATS = run.HERE / "workload_stats.json"
ORACLE_CAP = 22  # the program's default --oracle-cap


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def input_stats(ops: list[workloads.Op]) -> dict:
    """Statistics of one seed's generated inputs, from the checker's view."""
    nets = [checker.read_netlist(op.circuit.text(op.name)) for op in ops]
    kinds = Counter(f[0] for net in nets for f in checker.fault_universe(net))
    used = [{v for sup in net.supports for v in sup} for net in nets]
    return {
        "ops": len(ops),
        "command": sorted({op.command for op in ops}),
        "n": sorted({len(net.real_inputs()) for net in nets}),
        "p": sorted({net.p for net in nets}),
        "d": sorted({net.d for net in nets}),
        "width": sorted({net.width for net in nets}),
        "over_cap_ops": sum(net.width > ORACLE_CAP for net in nets),
        "constant_line_ops": sum(net.constant_line is not None for net in nets),
        "faults_per_op": {k: kinds[k] / len(ops) for k in (
            checker.EXOR_INTERNAL, checker.X_PAIR, checker.INTRA_LEVEL, checker.A_PAIR)},
        "shared_term_share": statistics.fmean(
            1 - len(set(net.supports)) / net.d for net in nets),
        "idle_inputs_per_op": statistics.fmean(
            sum(v not in u for v in net.real_inputs()) for net, u in zip(nets, used)),
        "patterns_per_file": sorted({op.tests.count("\n") - 1 for op in ops if op.tests}),
    }


def merge(per_seed: list[dict]) -> dict:
    """Pool the per-seed statistics: sets are united, numbers averaged."""
    out = {}
    for key, first in per_seed[0].items():
        values = [s[key] for s in per_seed]
        if isinstance(first, list):
            out[key] = sorted(set().union(*values))
        elif isinstance(first, dict):
            out[key] = {k: statistics.fmean(v[k] for v in values) for k in first}
        else:
            out[key] = statistics.fmean(values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-31")
    args = ap.parse_args(argv)
    cli = run.load_cli()
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    stats = {}
    failed = 0
    run.SCRATCH.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        per_seed = []
        for seed in args.seeds:
            ops = workloads.make_ops(name, seed)
            per_seed.append(input_stats(ops))
            workdir = run.SCRATCH / f"record-{name}-{seed}"
            workdir.mkdir(exist_ok=True)
            try:
                for case in run.materialize(ops, workdir):
                    run.run_op(cli, case, None)
                    run.check_case(case)
                    if case.errors:
                        failed += 1
                        print(f"not recorded: {name} seed {seed} {case.op.name}:"
                              f" {case.errors[0]}", file=sys.stderr)
                    else:
                        digests[case.key] = case.digest
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: {len(ops)} ops", flush=True)
        stats[name] = merge(per_seed)
    stats["seeds"] = [args.seeds.start, args.seeds.stop - 1]
    run.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=0) + "\n")
    STATS.write_text(json.dumps(stats, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
