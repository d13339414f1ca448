"""Command line front end.

Subcommands: parse, faults, atpg, simulate, verify, bench.

Exit codes: 0 success; 1 at least one fault left undetected; 2 usage,
circuit, or test-file error; 3 I/O error; 4 nothing undetected but some
fault's detectability could not be resolved.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from collections import namedtuple
from typing import NamedTuple

from . import __version__
from .atpg import SET_NAMES, assemble_union, fallback_search, generate_sets, size_bound
from .benchmark import (
    BENCHMARK_TEXT,
    REFERENCE_T2_X,
    REFERENCE_T3_X,
    benchmark_circuit,
    tabulated_discrepancies,
)
from .circuit import (
    CircuitError,
    expand_network,
    format_circuit,
    normalize_zero_controls,
    parse_circuit,
)
from .faults import enumerate_faults
from .patterns import DC_POLICIES, TestFileError, format_patterns, parse_test_file
from .pprm import derive_pprm  # noqa: F401  (kept: perfbench/spans.py patches cli.derive_pprm)
from .report import (
    SCHEMA_VERSION,
    build_coverage_report,
    build_fault_report,
    build_generation_report,
    render_report,
)
from .simulate import DEFAULT_ORACLE_CAP, Evaluation, evaluate_test_set

EXIT_OK = 0
EXIT_COVERAGE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_UNRESOLVED = 4


class RunConfig(NamedTuple):
    command: str
    sets: tuple[str, ...] = SET_NAMES
    dc_policy: str = "fill-zero"
    oracle_cap: int = DEFAULT_ORACLE_CAP
    fallback: bool = True
    dedup: bool = False
    include_aux: bool = False

    def echo(self) -> dict:
        """Configuration block for reports.

        The output path is left out on purpose: it changes no computed
        value, and reports must be byte-identical across runs that differ
        only in where they are written.
        """
        out = {name: getattr(self, name) for name in _ECHOED[self.command]}
        if "sets" in out:
            out["sets"] = list(self.sets)
        return out


# the fields each command's reports echo, in field order
_ECHOED = {
    "faults": ("command", "dc_policy", "include_aux"),
    "atpg": ("command", "sets", "dc_policy", "oracle_cap", "fallback", "dedup"),
    "simulate": ("command", "dc_policy", "oracle_cap", "fallback", "include_aux"),
    "verify": RunConfig._fields,
}


def _read_text(path: str) -> str:
    r"""A circuit or test file, or stdin, read as UTF-8 whatever the locale,
    less one leading byte-order mark; a mark anywhere else stays and the
    parser refuses it.  A file's line ends read as "\n"; a text-only stdin
    (``io.StringIO``) is read as text."""
    if path == "-":
        stdin = sys.stdin
        text = stdin.buffer.read().decode("utf-8") if hasattr(stdin, "buffer") else stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


def _write_text(path: str | None, text: str) -> None:
    # A slice at a time, so that encoding never copies the whole text at once.
    # stdout takes UTF-8 bytes whatever the locale, as an --out file does; a
    # text-only stdout (io.StringIO) takes the text.
    # A file is written over in place and cut to length: after a truncate to
    # zero, ext4 starts writeback of the whole file at close.  Only a regular
    # file that held data is cut (/dev/null refuses ftruncate), and it is cut
    # even when the write stops partway, so no old bytes follow the new ones.
    slices = (text[k : k + (1 << 20)] for k in range(0, len(text), 1 << 20))
    if path is None or path == "-":
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.writelines(piece.encode("utf-8") for piece in slices)
        else:
            sys.stdout.writelines(slices)
    else:
        with open(path, "w", encoding="utf-8",
                  opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as out:
            old = os.fstat(out.fileno())
            try:
                out.writelines(slices)
            finally:
                if stat.S_ISREG(old.st_mode) and old.st_size:
                    out.truncate()


def _write_stderr(line: str) -> None:
    # UTF-8 bytes whatever the locale, as stdout takes; a lone surrogate (out
    # of argv) reads as a backslash escape.  A text-only stderr takes text.
    if hasattr(sys.stderr, "buffer"):
        sys.stderr.flush()
        sys.stderr.buffer.write(f"{line}\n".encode("utf-8", "backslashreplace"))
        sys.stderr.buffer.flush()
    else:
        sys.stderr.write(f"{line}\n")


def _load_circuit(path: str, *, normalize: bool = True):
    # the file name less its last suffix, as pathlib's stem reads it
    name = "" if path == "-" else os.path.basename(path)
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        name = name[:dot]
    circuit = parse_circuit(_read_text(path), allow_zero_controls=normalize, name=name)
    if normalize:
        circuit = normalize_zero_controls(circuit)
    return circuit


def _parse_sets(arg: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in arg.split(",") if s.strip())
    if not names:
        raise ValueError("empty --sets selection")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate test-set name(s): {', '.join(duplicates)}")
    return names


def _config(args) -> RunConfig:
    """The run's configuration: the ``RunConfig`` fields the parsed command
    line holds, with ``--sets`` read by ``_parse_sets``."""
    fields = {name: value for name, value in vars(args).items() if name in RunConfig._fields}
    if "sets" in fields:
        fields["sets"] = _parse_sets(fields["sets"])
    return RunConfig(**fields)


PipelineResult = namedtuple("PipelineResult", "union evaluation")


def run_pipeline(network, faults, sets: dict[str, list[str]], cfg: RunConfig) -> PipelineResult:
    """Grade the union of ``sets``, and repair or classify its misses.

    Fallback writes its verdicts into the evaluation it is given, and adds
    repair patterns only when ``cfg.fallback``.  If it added any, the
    final union is graded again, and fallback classifies the misses of
    that evaluation without adding patterns.
    """
    dc = cfg.dc_policy
    union = assemble_union(sets, dedup=cfg.dedup, dc_policy=dc)
    evaluation = evaluate_test_set(network, faults, union.rows, dc_policy=dc)
    fb = fallback_search(evaluation, cfg.oracle_cap, classify_only=not cfg.fallback)
    if fb.patterns:
        union = assemble_union(sets, fb.patterns, dedup=cfg.dedup, dc_policy=dc)
        evaluation = evaluate_test_set(network, faults, union.rows, dc_policy=dc)
        fallback_search(evaluation, cfg.oracle_cap, classify_only=True)
    return PipelineResult(union, evaluation)


def _coverage_exit(evaluation: Evaluation) -> int:
    if evaluation.count("undetected"):
        return EXIT_COVERAGE
    if evaluation.count("unresolved"):
        return EXIT_UNRESOLVED
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def cmd_parse(args) -> int:
    circuit = _load_circuit(args.circuit, normalize=args.normalize)
    _write_text(args.out, format_circuit(circuit))
    return EXIT_OK


def cmd_faults(args) -> int:
    cfg = _config(args)
    faults = enumerate_faults(
        expand_network(_load_circuit(args.circuit)),
        include_aux=cfg.include_aux,
        record_out_of_model=args.out_of_model,
    )
    report = build_fault_report(faults, cfg.echo(), timestamp=not args.no_timestamp)
    _write_text(args.out, render_report(report, args.format))
    return EXIT_OK


def cmd_atpg(args) -> int:
    cfg = _config(args)
    network = expand_network(_load_circuit(args.circuit))
    sets = generate_sets(network, cfg.sets).sets
    if cfg.fallback:
        union = run_pipeline(network, enumerate_faults(network), sets, cfg).union
    else:  # without repair patterns the union needs no grading
        union = assemble_union(sets, dedup=cfg.dedup, dc_policy=cfg.dc_policy)
    bound = size_bound(network)
    if args.format == "text":
        header = [
            f"# {network.name or 'circuit'}: n={network.n} p={network.p} d={network.d}",
            f"# columns: {network.p} c lines then {network.n} x lines",
        ]
        body = format_patterns(union)
        _write_text(args.out, "\n".join(header) + "\n" + body)
    else:
        report = build_generation_report(
            network, sets, union, bound, cfg.echo(), timestamp=not args.no_timestamp,
        )
        _write_text(args.out, render_report(report, "json"))
    if union.pre_dedup_size > bound:
        _write_stderr(f"warning: union size {union.pre_dedup_size} exceeds bound {bound}")
    return EXIT_OK


def cmd_grade(args) -> int:
    cfg = _config(args)
    if args.circuit == args.tests == "-":
        raise ValueError("the circuit and --tests cannot both be read from stdin")
    network = expand_network(_load_circuit(args.circuit))
    faults = enumerate_faults(network, include_aux=cfg.include_aux)
    sets = {"User": parse_test_file(_read_text(args.tests), network)}
    run = run_pipeline(network, faults, sets, cfg)
    report = build_coverage_report(
        run.evaluation, sets, run.union, None, cfg.echo(), timestamp=not args.no_timestamp,
    )
    _write_text(args.out, render_report(report, args.format))
    return _coverage_exit(run.evaluation)


def cmd_verify(args) -> int:
    cfg = _config(args)
    network = expand_network(_load_circuit(args.circuit))
    faults = enumerate_faults(network, include_aux=cfg.include_aux)
    sets = generate_sets(network, cfg.sets).sets
    run = run_pipeline(network, faults, sets, cfg)
    report = build_coverage_report(
        run.evaluation, sets, run.union, size_bound(network), cfg.echo(),
        timestamp=not args.no_timestamp,
    )
    _write_text(args.out, render_report(report, args.format))
    return _coverage_exit(run.evaluation)


def cmd_bench(args) -> int:
    if args.emit_circuit:
        _write_text(args.out, BENCHMARK_TEXT)
        return EXIT_OK
    network = benchmark_circuit()
    gen = generate_sets(network)
    t2 = tuple(row[network.p :] for row in gen.sets["T2"])
    t3 = tuple(row[network.p :] for row in gen.sets["T3"])
    cells = tabulated_discrepancies()
    if args.format == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "circuit": {"name": network.name, "n": network.n, "p": network.p, "d": network.d},
            "discrepancies": cells,
            "t2": {"generated": t2, "reference": REFERENCE_T2_X, "match": t2 == REFERENCE_T2_X},
            "t3": {"generated": t3, "reference": REFERENCE_T3_X, "match": t3 == REFERENCE_T3_X},
        }
        _write_text(args.out, render_report(report, "json"))
        return EXIT_OK
    lines = [
        f"benchmark {network.name}: n={network.n} p={network.p} d={network.d}",
        f"tabulated cells disagreeing with recomputation: {len(cells)}"
        " (recomputed values are authoritative)",
    ]
    for c in cells:
        lines.append(
            f"  {c['table']} {c['cell']}: tabulated {c['reference']}, derived {c['derived']}"
        )
    for name, generated, reference in (("T2", t2, REFERENCE_T2_X), ("T3", t3, REFERENCE_T3_X)):
        verdict = "matches" if generated == reference else "differs from"
        lines.append(f"{name} generated {verdict} the tabulated set")
        lines.append(f"  generated: {' '.join(generated)}")
        lines.append(f"  tabulated: {' '.join(reference)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _count(text: str) -> int:
    """``--oracle-cap`` or ``--jobs`` in ASCII digits only, as ``parse_circuit``
    reads ``.n`` and ``.p``: no sign, space, underscore or other script."""
    if text.isascii() and text.isdigit():
        return int(text)
    magnitude = text[1:]
    if text[:1] == "-" and magnitude.isascii() and magnitude.isdigit() and int(magnitude):
        raise argparse.ArgumentTypeError(f"must be 0 or more, got -{int(magnitude)}")
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: ``parse_args`` leaves it unchanged, and no caller adds to it."""
    ap = argparse.ArgumentParser(
        prog="bridgetest",
        description="Bridging-fault test generation and fault simulation"
        " for AND-EXOR reversible circuit netlists.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(sp, formats=("text", "json", "csv")):
        if formats:
            sp.add_argument("--format", "-f", choices=formats, default=formats[0])
        sp.add_argument("--out", "-o", default=None, metavar="PATH",
                        help="write output here instead of stdout")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation timestamp from reports")

    def add_grading(sp):
        sp.add_argument("--dc-policy", choices=DC_POLICIES, default="fill-zero",
                        help="how don't-care positions are instantiated")
        sp.add_argument("--oracle-cap", type=_count, default=DEFAULT_ORACLE_CAP,
                        metavar="N",
                        help="max n+p for exact oracle verdicts in fallback (N >= 0);"
                        " wider circuits get a seeded random search")
        sp.add_argument("--jobs", type=_count, default=1,
                        help="accepted for older command lines and ignored")

    sp = sub.add_parser("parse", help="parse a circuit and echo its canonical form")
    sp.add_argument("circuit", help="circuit file, or - for stdin")
    sp.add_argument("--normalize", action="store_true",
                    help="rewrite 0-control gates onto a shared constant-1 line")
    sp.add_argument("--out", "-o", default=None, metavar="PATH")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("faults", help="enumerate the bridging-fault universe")
    sp.add_argument("circuit")
    sp.add_argument("--include-aux", action="store_true",
                    help="also pair the constant line in input bridges")
    sp.add_argument("--out-of-model", action="store_true",
                    help="report counts of cross-class shorts outside the model")
    add_out(sp)
    sp.set_defaults(func=cmd_faults)

    sp = sub.add_parser("atpg", help="generate the named test sets")
    sp.add_argument("circuit")
    sp.add_argument("--sets", default=",".join(SET_NAMES),
                    help="comma list out of T1,T2,T3,T4,T5")
    sp.add_argument("--fallback", action="store_true",
                    help="append repair patterns for faults the sets miss")
    sp.add_argument("--dedup", action="store_true",
                    help="drop patterns identical after don't-care fill")
    add_grading(sp)
    add_out(sp, formats=("text", "json"))
    sp.set_defaults(func=cmd_atpg)

    sp = sub.add_parser("simulate", help="grade a test file against all faults")
    sp.add_argument("circuit")
    sp.add_argument("--tests", required=True, metavar="PATH",
                    help="test patterns, one c+x row per line")
    sp.add_argument("--include-aux", action="store_true")
    add_grading(sp)
    add_out(sp)
    sp.set_defaults(func=cmd_grade, fallback=False)

    sp = sub.add_parser("verify", help="generate, grade, repair, and check the bound")
    sp.add_argument("circuit")
    sp.add_argument("--sets", default=",".join(SET_NAMES))
    sp.add_argument("--no-fallback", dest="fallback", action="store_false",
                    help="classify misses but do not add repair patterns")
    sp.add_argument("--dedup", action="store_true")
    sp.add_argument("--include-aux", action="store_true")
    add_grading(sp)
    add_out(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bench", help="built-in benchmark and its reference tables")
    sp.add_argument("--emit-circuit", action="store_true",
                    help="print the benchmark netlist and exit")
    add_out(sp, formats=("text", "json"))
    sp.set_defaults(func=cmd_bench)

    return ap


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name, out of ``build_parser()``."""
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # One argparse pass: a command's own parser reads the arguments after it.
    # Any other command line, or arguments that parser leaves over, go through
    # the full parser, for its version, help and error text.
    command = _commands().get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        args.command = argv[0]
    if command is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitError, TestFileError, ValueError) as exc:
        _write_stderr(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _write_stderr(f"error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
