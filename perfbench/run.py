"""End-to-end and per-layer benchmark of the `bridgetest` command line.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 26 --trace 0

Run from a source checkout: the package is imported from ``src/``.  The
workload's circuits (and test files) are generated from the seed and written
under ``.perfbench/``; each op is one ``bridgetest.cli.main([...])`` call in
this process, one at a time (a closed loop with one client, ``--jobs 1``).
Ops run in whole passes over the workload's list, at least two, until the
next pass would overrun ``--seconds``; an op's time is its best pass, which
takes out most of the host's speed drift.  Outputs of the first pass are
checked by the independent reference checker after the timed passes end,
and later passes must reproduce them byte for byte.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and it carries the
per-layer metrics.  The line before it prints every end-to-end metric, gated
or not.  See README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checker
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
SETUP_FIRST = 3  # fresh-interpreter set-ups before the passes; one more after each
MIN_PASSES = 2  # each op's time is its best pass
TAIL_BEYOND = 10  # samples required above the reported tail percentile
# End-to-end metrics in the result line.  The others in the summary are
# zero on healthy runs (failures, repairs, unresolved faults, bound
# violations), follow the host's speed more than the program's (raw per-op
# times), or restate op_p50_s (faults_per_s): they are printed, not gated.
E2E_GATED = ("setup_s", "op_p50_s", "peak_rss_mib", "patterns_per_op", "coverage")


@dataclass
class Case:
    """One generated op, its files, and what its first pass produced."""

    op: workloads.Op
    argv: list[str]
    out: Path
    key: str  # digest of the op's inputs, for the recorded report digests
    net: checker.Netlist
    faults: int  # in-model fault count, from the checker's own universe
    tests: str | None
    exit_code: int | None = None
    report: bytes = b""
    digest: str = ""
    runs: int = 0
    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    check: checker.OpCheck | None = None


def materialize(ops: list[workloads.Op], workdir: Path) -> list[Case]:
    cases = []
    for op in ops:
        text = op.circuit.text(op.name)
        circuit = workdir / f"{op.name}.rev"
        circuit.write_text(text, encoding="utf-8")
        tests = workdir / f"{op.name}.tests"
        if op.tests is not None:
            tests.write_text(op.tests, encoding="utf-8")
        out = workdir / f"{op.name}.out"
        argv = [a.format(circuit=circuit, tests=tests, out=out) for a in op.args]
        key = hashlib.sha256(
            "\0".join([*op.args, text, op.tests or ""]).encode()).hexdigest()[:16]
        net = checker.read_netlist(text)
        cases.append(Case(op, argv, out, key, net, len(checker.fault_universe(net)), op.tests))
    return cases


def run_op(cli, case: Case, rec: spans.Recorder | None) -> float:
    """Run one op; return its wall time.  Records failures on the case."""
    root = rec.begin("cli") if rec is not None else None
    t0 = time.perf_counter()
    try:
        code = cli.main(case.argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        code = None
        case.errors.append("raised:\n" + traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0
        if rec is not None:
            rec.end(root)
    report = case.out.read_bytes() if code is not None and case.out.exists() else b""
    digest = hashlib.sha256(report).hexdigest()[:16]
    if case.runs == 0:
        case.exit_code, case.report, case.digest = code, report, digest
    elif (code, digest) != (case.exit_code, case.digest):
        case.errors.append("output or exit code differs from the first pass")
    case.runs += 1
    return elapsed


def check_case(case: Case) -> None:
    if case.exit_code is None:
        return
    try:
        if case.op.command == "verify":
            case.check = checker.check_verify_json(case.net, case.report, case.exit_code)
        elif case.op.command == "simulate":
            case.check = checker.check_simulate_csv(
                case.net, case.report, case.tests, case.exit_code)
        else:
            case.check = checker.check_atpg_text(case.net, case.report, case.exit_code)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        case.errors.append(f"unreadable output: {exc!r}")
        return
    case.errors.extend(case.check.errors)


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bridgetest.cli as c; c.build_parser()"],
                   env=env, check=True)
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the median when there are too few samples."""
    ordered = sorted(times)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(cases, setup_s, rss_mib, attempted, failed) -> dict:
    checks = [c.check for c in cases if c.check is not None]
    best = [min(c.times) for c in cases]
    raw = [t for c in cases for t in c.times]
    tail_s, tail_pct = tail(raw)
    testable = sum(k.testable for k in checks)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(best), "s"),
        "op_p50_raw_s": (statistics.median(raw), "s"),
        "op_tail_s": (tail_s, "s"),
        "op_tail_pct": (tail_pct, "%"),
        "op_samples": (len(raw), "ops"),
        "faults_per_s": (statistics.median(c.faults / b for c, b in zip(cases, best)), "1/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "failed_frac": (failed / attempted, "ratio"),
        "patterns_per_op": (sum(k.patterns for k in checks) / max(1, len(checks)), "patterns"),
        "fallback_patterns": (sum(k.fallback for k in checks), "patterns"),
        "coverage": (sum(k.detected for k in checks) / testable if testable else 1.0, "ratio"),
        "unresolved_frac": (sum(k.unresolved for k in checks)
                            / max(1, sum(k.faults for k in checks)), "ratio"),
        "bound_violations": (sum(k.bound_violation for k in checks), "ops"),
    }


def per_layer(rec: spans.Recorder, traced_ops: int, overhead: float,
              changed: int, compared: int) -> dict:
    own = spans.self_time_by_name(rec.spans)
    n = max(1, traced_ops)
    counts = rec.counts
    grade_calls = counts["simulate.grade_calls"]
    pairs = counts["simulate.fault_pattern_pairs"]
    oracle_calls = counts["simulate.oracle_calls"]
    out = {}
    for layer in ("circuit.parse", "network.expand", "pprm.derive", "faults.enumerate",
                  "atpg.generate", "atpg.gen_T2", "atpg.gen_T3", "simulate.grade",
                  "simulate.oracle", "patterns.parse", "patterns.format",
                  "report.build", "report.render"):
        out[f"{layer}_s"] = (own.get(layer, 0.0) / n, "s")
    out["atpg.fallback_self_s"] = (own.get("atpg.fallback", 0.0) / n, "s")
    out["cli.self_s"] = (own.get("cli", 0.0) / n, "s")
    for name in ("faults.count", "atpg.gen_detects_calls", "atpg.t2_uncovered_pairs",
                 "atpg.t3_uncovered_pairs", "simulate.oracle_calls",
                 "atpg.fallback_detects_calls", "atpg.fallback_unresolved", "report.bytes"):
        out[name] = (counts[name] / n, "count")
    out["simulate.grade_calls_per_op"] = (grade_calls / n, "count")
    out["simulate.fault_pattern_pairs"] = (pairs / grade_calls if grade_calls else 0.0, "count")
    out["simulate.grade_ns_per_pair"] = (
        own.get("simulate.grade", 0.0) / pairs * 1e9 if pairs else 0.0, "ns")
    out["simulate.oracle_ms_per_call"] = (
        own.get("simulate.oracle", 0.0) / oracle_calls * 1e3 if oracle_calls else 0.0, "ms")
    out["simulate.oracle_witness_frac"] = (
        counts["simulate.oracle_witnesses"] / oracle_calls if oracle_calls else 0.0, "ratio")
    out["report.changed_ops"] = (changed, "ops")
    out["report.compared_ops"] = (compared, "ops")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def compare_digests(cases: list[Case]) -> tuple[int, int]:
    """(changed, compared): first-pass reports against the recorded digests."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    known = [c for c in cases if c.key in recorded and c.exit_code is not None]
    return sum(recorded[c.key] != c.digest for c in known), len(known)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_cli():
    """Import the CLI from this checkout's sources."""
    if not (SRC / "bridgetest" / "cli.py").is_file():
        raise SystemExit(f"error: no bridgetest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from bridgetest import cli
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, args, workdir: Path) -> int:
    cases = materialize(workloads.make_ops(args.workload, args.seed), workdir)
    setup = [time_setup() for _ in range(SETUP_FIRST)]

    # warm-up: lazy imports and allocator growth are paid once per process;
    # a failure here shows again, and is counted, in the timed passes
    try:
        cli.main(cases[0].argv)
    except Exception:
        pass

    rec = spans.Recorder()
    started = time.perf_counter()
    passes = 0
    while True:
        tracing = args.trace == 1 and passes % 2 == 1
        restore = spans.instrument(rec) if tracing else None
        pass_start = time.perf_counter()
        try:
            for case in cases:
                if tracing:
                    rec.op += 1
                    case.traced_times.append(run_op(cli, case, rec))
                else:
                    case.times.append(run_op(cli, case, None))
        finally:
            if restore is not None:
                restore()
        passes += 1
        last = time.perf_counter() - pass_start
        setup.append(time_setup())  # spread over the run, like the ops
        if passes >= MIN_PASSES and time.perf_counter() - started + last > args.seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for case in cases:
        check_case(case)
    attempted = sum(len(c.times) + len(c.traced_times) for c in cases)
    failed = sum(c.runs for c in cases if c.errors)
    for case in cases:
        for err in case.errors:
            print(f"FAILED {case.op.name}: {err}", file=sys.stderr)

    e2e = end_to_end(cases, statistics.median(setup), rss_mib, attempted, failed)
    print(f"{args.workload} seed {args.seed}: {len(cases)} ops x {passes} passes"
          f" in {time.perf_counter() - started:.1f} s, {failed} of {attempted} failed")
    print("  " + "  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in e2e.items()))
    if args.trace:
        changed, compared = compare_digests(cases)
        overhead = (statistics.median(min(c.traced_times) for c in cases)
                    / statistics.median(min(c.times) for c in cases) - 1)
        traced_ops = sum(len(c.traced_times) for c in cases)
        metrics = per_layer(rec, traced_ops, overhead, changed, compared)
        rec.write(SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl")
        print("  " + "  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()))
        accounted = sum(v for k, (v, u) in metrics.items() if u == "s")
        mean = sum(sum(c.traced_times) for c in cases) / traced_ops
        print(f"  layer self times sum to {accounted:.6g} s per traced op; op mean {mean:.6g} s")
    else:
        metrics = {k: e2e[k] for k in E2E_GATED}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
