"""End-to-end command line behavior, driven in-process through main()."""

import io
import json
import os
import stat
import subprocess
import sys

import pytest

import bridgetest
from bridgetest import (
    AndExorNetwork,
    BridgingFault,
    Polarity,
    cli,
    format_circuit,
    normalize_zero_controls,
    parse_circuit,
    parse_test_file,
    patterns,
)
from bridgetest.cli import build_parser, main
from bridgetest.simulate import _Good
from conftest import DATA

NOTPLUS_TEXT = ".n 2\n.p 1\n.gate c1 :\n.gate c1 : x1 x2\n.end\n"
Z3_TEXT = ".n 3\n.p 2\n.gate c1 : x1\n.gate c2 :\n.end\n"
BRIDGE_X2_X4_OR = ("XPair", "x2", "x4", "WiredOr")  # redundant in Z3_TEXT
WIDE_TEXT = ".n 20\n.p 3\n.gate c1 : x1 x2\n.gate c2 : x3\n.gate c3 : x4\n.end\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def byte_stdin(text: str) -> io.TextIOWrapper:
    """A stdin holding ``text`` in UTF-8 under a Latin-1 locale: reading
    its text layer would turn a byte-order mark into three letters."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="latin-1")


class TestParse:
    def test_echo_canonical(self, capsys, bench_path, bench):
        code, out, err = run(capsys, "parse", str(bench_path))
        assert code == 0 and err == ""
        assert out == format_circuit(bench)
        assert parse_circuit(out, name="bench7x3") == bench

    def test_normalize_flag(self, capsys, tmp_path):
        src = tmp_path / "notplus.rev"
        src.write_text(NOTPLUS_TEXT)
        code, out, err = run(capsys, "parse", str(src), "--normalize")
        assert code == 0
        expected = format_circuit(
            normalize_zero_controls(parse_circuit(NOTPLUS_TEXT, allow_zero_controls=True))
        )
        assert out == expected
        assert ".n 3" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", byte_stdin(".n 1\n.p 1\n.gate c1 : x1\n.end\n"))
        code, out, err = run(capsys, "parse", "-")
        assert code == 0 and ".gate c1 : x1" in out
        # a text-only stdin is read as text
        monkeypatch.setattr("sys.stdin", io.StringIO(".n 1\n.p 1\n.gate c1 : x1\n.end\n"))
        code, out, err = run(capsys, "parse", "-")
        assert code == 0 and ".gate c1 : x1" in out

    def test_byte_order_mark_opening_a_circuit_file(self, capsys, tmp_path, bench_path, bench):
        # one mark at the start is dropped; one that opens a later line is text
        lines = bench_path.read_text().splitlines(keepends=True)
        marked = tmp_path / "bom.rev"
        marked.write_text("\ufeff" + "".join(lines), encoding="utf-8")
        assert run(capsys, "parse", str(marked)) == (0, format_circuit(bench), "")
        marked.write_text("".join(lines[:2]) + "\ufeff" + "".join(lines[2:]), encoding="utf-8")
        code, out, err = run(capsys, "parse", str(marked))
        assert (code, out) == (2, "")
        assert err == "error: line 3, column 1: unknown directive '\ufeff.p'\n"

    def test_byte_order_mark_opening_stdin(self, capsys, monkeypatch):
        text = ".n 1\n.p 1\n.gate c1 : x1\n.end\n"
        monkeypatch.setattr("sys.stdin", byte_stdin("\ufeff" + text))
        assert run(capsys, "parse", "-") == (0, text, "")
        # dropped once: a second mark is the first token's text
        monkeypatch.setattr("sys.stdin", byte_stdin("\ufeff\ufeff" + text))
        code, out, err = run(capsys, "parse", "-")
        assert (code, out) == (2, "")
        assert err == "error: line 1, column 1: unknown directive '\ufeff.n'\n"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.rev"
        bad.write_text(".n 1\n.p 1\n.gate c9 : x1\n.end\n")
        code, out, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert err.startswith("error: line 3")

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "parse", str(tmp_path / "nope.rev"))
        assert code == 3 and err.startswith("error:")


class TestArgHandling:
    def test_parser_built_once(self, capsys):
        # the cached parser must come out of a rejected command line unchanged
        parser = build_parser()
        assert build_parser() is parser
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(DATA / "and2.rev"), "--format", "xml"])
        assert exc.value.code == 2
        # refused by the subcommand's parser alone, then by the full parser
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(DATA / "and2.rev")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(DATA / "and2.rev"), "--bogus"])
        assert exc.value.code == 2
        assert build_parser() is parser
        capsys.readouterr()
        code, out, err = run(capsys, "verify", str(DATA / "and2.rev"), "--no-timestamp")
        assert (code, err) == (0, "")
        assert out == (DATA / "golden" / "verify_and2.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv", [
        # the benchmark's command lines: verify, atpg and simulate
        ["verify", "{rand8x4}", "--format", "json", "--no-timestamp", "--jobs", "1",
         "--out", "{out}"],
        ["atpg", "{idle12}", "--fallback", "--jobs", "1", "--out", "{out}"],
        ["simulate", "{bench7x3}", "--tests", "{user}", "--format", "csv", "--jobs", "1",
         "--out", "{out}"],
        ["verify", "{and2}", "--format", "xml"],
        ["simulate", "{and2}"],
        ["verify", "{and2}", "--bogus"],
        ["verify", "{and2}", "--version"],
        ["verify", "-h"],
        ["verify", "{and2}", "--form", "json", "--no-timestamp"],
        ["verify", "--no-timestamp", "--", "{and2}"],
        ["frobnicate", "{and2}"],
        [],
        ["--version"],
    ])
    def test_dispatch_matches_the_full_parser(self, capsys, tmp_path, argv):
        # main() reads argv with the subcommand's parser alone when it can;
        # the outcome must be what one pass of the full parser gives
        out = tmp_path / "out"
        files = {"rand8x4": DATA / "rand8x4.rev", "idle12": DATA / "idle12.rev",
                 "bench7x3": DATA / "bench7x3.rev", "user": DATA / "bench7x3_user.tests",
                 "and2": DATA / "and2.rev", "out": out}
        argv = [arg.format(**files) for arg in argv]

        def reference(argv):
            args = build_parser().parse_args(argv)
            return args.func(args)

        def outcome(entry):
            try:
                code = entry(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            report = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, captured.out, captured.err, report

        assert outcome(main) == outcome(reference)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "bridgetest 0.1.0" in capsys.readouterr().out

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_set_name(self, capsys, bench_path):
        code, out, err = run(capsys, "verify", str(bench_path), "--sets", "T1,T9")
        assert code == 2 and "unknown test-set name" in err

    def test_empty_sets(self, capsys, bench_path, tmp_path):
        code, out, err = run(capsys, "atpg", str(bench_path), "--sets", ",")
        assert code == 2 and "empty --sets" in err
        # --sets is read before the circuit: a missing file is not reached
        for command in ("atpg", "verify"):
            code, out, err = run(capsys, command, str(tmp_path / "nope.rev"), "--sets", ",")
            assert (code, err) == (2, "error: empty --sets selection\n")

    @pytest.mark.parametrize("command", ["atpg", "verify"])
    def test_duplicate_set_names(self, capsys, bench_path, command):
        # refused like an unknown name, not built once and echoed twice
        code, out, err = run(capsys, command, str(bench_path), "--sets", "T2,T1,T2,T1")
        assert (code, out) == (2, "")
        assert err == "error: duplicate test-set name(s): T1, T2\n"

    @pytest.mark.parametrize("cap", ["-1"])
    def test_oracle_cap_out_of_range(self, capsys, monkeypatch, bench_path, cap):
        # the parser refuses a negative cap before any oracle call
        def refuse(*args, **kwargs):
            raise AssertionError("oracle started")

        monkeypatch.setattr("bridgetest.atpg.exhaustive_detectability", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(bench_path), "--oracle-cap", cap])
        assert exc.value.code == 2
        assert "--oracle-cap: must be 0 or more, got -1" in capsys.readouterr().err

    def test_oracle_cap_not_an_int(self, capsys, bench_path):
        # ASCII digits only, as for .n and .p: int() would read a non-ASCII
        # digit, a sign, a space or an underscore, and the report would echo
        # the number; worded like argparse's own int check
        for flag in ("--oracle-cap", "--jobs"):
            for text in ("abc", "\u0663", "+3", " 3", "3 ", "1_000", "1_0", "-0", "", "3.0", "0x3"):
                with pytest.raises(SystemExit) as exc:
                    main(["verify", str(bench_path), flag, text])
                err = capsys.readouterr().err
                assert exc.value.code == 2, (flag, text)
                assert f"{flag}: invalid int value: {text!r}" in err
                assert "_count" not in err

    def test_oracle_cap_limits_accepted(self, bench_path):
        parser = build_parser()
        for cap in (0, 24):
            args = parser.parse_args(["verify", str(bench_path), "--oracle-cap", str(cap)])
            assert args.oracle_cap == cap

    @pytest.mark.parametrize("cap", ["25", "40"])
    def test_oracle_cap_above_24_accepted(self, capsys, bench_path, cap):
        code, out, err = run(
            capsys, "verify", str(bench_path), "--oracle-cap", cap, "-f", "json", "--no-timestamp"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["config"]["oracle_cap"] == int(cap)

    def test_oracle_cap_reaches_width_26(self, capsys, tmp_path):
        # gates 1 and 2 share x1 x2, so three bridges are redundant; at n + p
        # = 26 only a cap of 26 or more lets the oracle prove it
        lines = [".n 24", ".p 2", ".gate c1 : x1 x2", ".gate c2 : x1 x2"]
        lines += [f".gate c{1 + k % 2} : x{k}" for k in range(3, 25)]
        circuit = tmp_path / "shared24.rev"
        circuit.write_text("\n".join(lines + [".end", ""]))
        argv = ["verify", str(circuit), "-f", "json", "--no-timestamp"]
        code, out, _ = run(capsys, *argv)
        assert code == 4
        assert json.loads(out)["coverage"]["unresolved"] == 3
        code, out, _ = run(capsys, *argv, "--oracle-cap", "26")
        assert code == 0
        coverage = json.loads(out)["coverage"]
        assert (coverage["redundant"], coverage["unresolved"]) == (3, 0)


class TestFaults:
    def test_json_counts(self, capsys, bench_path):
        code, out, err = run(
            capsys, "faults", str(bench_path), "-f", "json", "--no-timestamp"
        )
        assert code == 0
        report = json.loads(out)
        assert report["fault_counts"] == {
            "ExorInternal": 19, "XPair": 42, "IntraLevel": 120,
            "APair": 342, "total": 523,
        }
        assert len(report["faults"]) == 523

    def test_csv_header(self, capsys, bench_path):
        code, out, err = run(capsys, "faults", str(bench_path), "-f", "csv")
        assert code == 0
        assert out.splitlines()[0] == "class,line_a,line_b,polarity"

    def test_out_of_model(self, capsys, bench_path):
        code, out, err = run(
            capsys, "faults", str(bench_path), "-f", "json", "--out-of-model",
            "--no-timestamp",
        )
        report = json.loads(out)
        assert report["out_of_model"]["total"] == 3386


class TestAtpg:
    def test_text_is_a_valid_test_file(self, capsys, bench_path, bench):
        code, out, err = run(capsys, "atpg", str(bench_path))
        assert code == 0 and err == ""
        rows = parse_test_file(out, bench)
        assert len(rows) == 25
        assert rows[0] == "0000000000"
        assert rows[4] == "ddd1000000"
        # origin sections are announced as comments
        assert "# T1" in out and "# T5" in out

    def test_json_report(self, capsys, bench_path):
        code, out, err = run(
            capsys, "atpg", str(bench_path), "-f", "json", "--no-timestamp"
        )
        report = json.loads(out)
        assert report["config"]["command"] == "atpg"
        assert "jobs" not in report["config"]
        assert report["union"]["pre_dedup_size"] == 25
        assert report["bound"]["passed"] is True

    def test_dedup(self, capsys, bench_path, bench):
        code, out, err = run(capsys, "atpg", str(bench_path), "--dedup")
        assert len(parse_test_file(out, bench)) == 21

    def test_sets_selection(self, capsys, bench_path, bench):
        code, out, err = run(capsys, "atpg", str(bench_path), "--sets", "T4")
        assert parse_test_file(out, bench) == ["1100000000", "1010000000"]

    def test_fallback_adds_nothing_when_covered(self, capsys, and2_path, and2):
        code_plain, out_plain, _ = run(capsys, "atpg", str(and2_path))
        code_fb, out_fb, _ = run(capsys, "atpg", str(and2_path), "--fallback")
        assert code_plain == code_fb == 0
        # the only miss is provably redundant, so no repair pattern appears
        assert out_plain == out_fb
        assert len(parse_test_file(out_fb, and2)) == 7

    def test_bound_overrun_warns_on_stderr(self, capsys, bench_path):
        # T1 and T4 miss some faults, and the repair patterns push the
        # union past 3n + ceil(log2 p) + 2; the warning does not fail the run
        code, _, err = run(capsys, "atpg", str(bench_path), "--fallback", "--sets", "T1,T4")
        assert code == 0
        assert err == "warning: union size 26 exceeds bound 25\n"

    def test_text_only_stderr_takes_text(self, monkeypatch, bench_path):
        # a stderr with no byte buffer (io.StringIO) gets the warning as text
        err = io.StringIO()
        monkeypatch.setattr("sys.stderr", err)
        argv = ["atpg", str(bench_path), "--fallback", "--sets", "T1,T4", "-o", os.devnull]
        assert main(argv) == 0
        assert err.getvalue() == "warning: union size 26 exceeds bound 25\n"


class TestSimulateAndVerify:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_simulate_builds_no_pattern_per_row(self, capsys, monkeypatch, tmp_path, fmt):
        # from file text to the report, rows stay strings and are graded as
        # packed columns: the file repeated ten times builds as many tables
        # of fault-free values as the file once
        built = []
        init = _Good.__init__
        monkeypatch.setattr(_Good, "__init__", lambda self, *args:
                            built.append(init(self, *args)))
        text = (DATA / "bench7x3_user.tests").read_text()
        counts = []
        for copies in (1, 10):
            tests = tmp_path / f"user{copies}.tests"
            tests.write_text(text * copies)
            built.clear()
            code, out, _ = run(capsys, "simulate", str(DATA / "bench7x3.rev"), "--tests",
                               str(tests), "--format", fmt)
            assert code == 1 and out
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    def test_circuit_name_needs_escaping(self, capsys, tmp_path, and2_path):
        # the file stem is the circuit's name, and json must escape it
        circuit = tmp_path / 'say "héllo".rev'
        circuit.write_text(and2_path.read_text())
        outputs = {}
        for fmt in ("json", "csv", "text"):
            code, outputs[fmt], err = run(capsys, "verify", str(circuit), "-f", fmt)
            assert (code, err) == (0, "")
        out = outputs["json"]
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        assert json.loads(out)["circuit"]["name"] == 'say "héllo"'
        assert '"name": "say \\"h\\u00e9llo\\"",' in out
        assert outputs["csv"].startswith("class,line_a,line_b,polarity,verdict,detail\n")
        assert '\ncircuit: say "héllo"  n=2  p=1  d=1\n' in outputs["text"]

    def test_stdin_circuit_is_unnamed(self, capsys, monkeypatch, and2_path):
        # a circuit read from stdin has no file stem, so its name is empty
        def read(*argv):
            monkeypatch.setattr("sys.stdin", byte_stdin(and2_path.read_text()))
            code, out, err = run(capsys, *argv, "-", "--no-timestamp")
            assert (code, err) == (0, "")
            return out

        assert "\ncircuit: (unnamed)  n=2  p=1  d=1\n" in read("verify")
        report = json.loads(read("verify", "-f", "json"))
        assert report["circuit"] == {"name": "", "n": 2, "p": 1, "d": 1, "constant_line": None}
        assert read("atpg").startswith("# circuit: n=2 p=1 d=1\n# columns: 1 c lines then 2 x")

    def test_verify_dedup_summary(self, capsys, and2_path):
        code, out, _ = run(capsys, "verify", str(and2_path), "--dedup")
        assert code == 0
        assert "\nunion: 6 patterns (pre-dedup 7, fallback 0, deduplicated away 1)\n" in out

    def test_verify_benchmark(self, capsys, bench_path):
        code, out, err = run(
            capsys, "verify", str(bench_path), "-f", "json", "--no-timestamp"
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == {
            "size": 25, "bound": 25, "passed": True,
            "construction_size": 25, "fallback_count": 0,
            "exceeds_construction": False,
        }
        assert report["coverage"]["detected"] == 519
        assert report["coverage"]["redundant"] == 4
        assert report["coverage"]["undetected"] == 0
        redundant = [r for r in report["verdicts"] if r["verdict"] == "Redundant"]
        assert [(r["line_a"], r["line_b"], r["polarity"]) for r in redundant] == [
            ("a9", "a13", "WiredAnd"),
            ("a9", "a13", "WiredOr"),
            ("a15", "a18", "WiredAnd"),
            ("a15", "a18", "WiredOr"),
        ]
        assert all(r["detail"] == "exhaustive" for r in redundant)

    def test_verify_text_bound_line(self, capsys, bench_path):
        code, out, err = run(capsys, "verify", str(bench_path))
        assert code == 0
        assert "bound: 25 ≤ 25 (pass)" in out

    def test_verify_no_fallback_same_verdicts(self, capsys, bench_path):
        code, out, err = run(
            capsys, "verify", str(bench_path), "--no-fallback", "-f", "json",
            "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert report["coverage"]["redundant"] == 4
        assert report["union"]["fallback_count"] == 0

    def test_verify_redundancy_on_and2(self, capsys, and2_path):
        code, out, err = run(
            capsys, "verify", str(and2_path), "-f", "json", "--no-timestamp"
        )
        assert code == 0
        report = json.loads(out)
        rows = {
            (r["class"], r["line_a"], r["line_b"], r["polarity"]): r["verdict"]
            for r in report["verdicts"]
        }
        assert rows[("XPair", "x1", "x2", "WiredAnd")] == "Redundant"
        assert rows[("XPair", "x1", "x2", "WiredOr")] == "Detected"

    # without --fallback, atpg leaves out the repair patterns verify adds, so
    # the rand5z round trip needs it
    @pytest.mark.parametrize("circuit, options", [
        pytest.param("bench7x3.rev", [], id="bench7x3"),
        pytest.param("rand5z.rev", ["--sets", "T1,T4", "--fallback"], id="rand5z"),
    ])
    def test_simulate_round_trips_verify(self, capsys, tmp_path, circuit, options):
        circuit_path = DATA / circuit
        tests_file = tmp_path / "round.tests"
        code = main(["atpg", str(circuit_path), *options, "-o", str(tests_file)])
        assert code == 0
        capsys.readouterr()

        code, sim_out, _ = run(
            capsys, "simulate", str(circuit_path), "--tests", str(tests_file),
            "-f", "json", "--no-timestamp",
        )
        assert code == 0
        verify_options = [o for o in options if o != "--fallback"]
        code, ver_out, _ = run(
            capsys, "verify", str(circuit_path), *verify_options, "-f", "json",
            "--no-timestamp",
        )
        assert code == 0
        sim = json.loads(sim_out)
        ver = json.loads(ver_out)
        # identical pattern list, so identical verdicts and coverage
        assert sim["verdicts"] == ver["verdicts"]
        assert sim["coverage"] == ver["coverage"]
        assert sim["exor_masks"] == ver["exor_masks"]

    def test_simulate_refuses_stdin_for_both_files(self, capsys, monkeypatch):
        # one stream cannot hold the circuit and the tests: refused before
        # anything is read, rather than grading an empty test set
        stdin = byte_stdin((DATA / "and2.rev").read_text())
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "simulate", "-", "--tests", "-")
        assert (code, out) == (2, "")
        assert err == "error: the circuit and --tests cannot both be read from stdin\n"
        assert stdin.buffer.tell() == 0

    def test_simulate_undetected_exit_1(self, capsys, tmp_path, bench_path):
        tests_file = tmp_path / "weak.tests"
        tests_file.write_text("0000000000\n")
        code, out, err = run(
            capsys, "simulate", str(bench_path), "--tests", str(tests_file)
        )
        assert code == 1

    def test_simulate_unresolved_exit_4(self, capsys, tmp_path):
        # above the oracle cap nothing can be proven about the misses, and
        # grading a fixed set never invents patterns
        circuit = tmp_path / "wide.rev"
        circuit.write_text(WIDE_TEXT)
        tests_file = tmp_path / "wide.tests"
        tests_file.write_text(
            "000" + "0" * 20 + "\n"
            "000" + "1" * 20 + "\n"
            "111" + "0" * 20 + "\n"
            "111" + "1" * 20 + "\n"
        )
        code, out, err = run(
            capsys, "simulate", str(circuit), "--tests", str(tests_file),
            "-f", "json", "--no-timestamp",
        )
        assert code == 4
        report = json.loads(out)
        assert report["coverage"]["undetected"] == 0
        assert report["coverage"]["unresolved"] > 0

    def test_byte_order_mark_opening_a_test_file(self, capsys, tmp_path, bench_path):
        plain = DATA / "bench7x3_user.tests"
        marked = tmp_path / "bom.tests"
        marked.write_text("\ufeff" + plain.read_text(), encoding="utf-8")
        argv = ["simulate", str(bench_path), "--format", "csv", "--no-timestamp", "--tests"]
        expected = run(capsys, *argv, str(plain))
        assert expected[0] == 1
        assert run(capsys, *argv, str(marked)) == expected
        marked.write_text("0000000000\n\ufeff0000000000\n", encoding="utf-8")
        assert run(capsys, *argv, str(marked)) == (2, "", "error: line 2: bad symbol '\\ufeff'\n")

    def test_simulate_bad_test_file_exit_2(self, capsys, tmp_path, bench_path):
        tests_file = tmp_path / "bad.tests"
        tests_file.write_text("00x0000000\n")
        code, out, err = run(
            capsys, "simulate", str(bench_path), "--tests", str(tests_file)
        )
        assert code == 2 and "error: line 1" in err

    def test_short_width_padding_for_normalized_circuit(self, capsys, tmp_path):
        circuit = tmp_path / "notplus.rev"
        circuit.write_text(NOTPLUS_TEXT)
        tests_file = tmp_path / "notplus.tests"
        # written for the original 2-input circuit: c then x1 x2
        tests_file.write_text("000\n001\n010\n011\n100\n111\n")
        code, out, err = run(
            capsys, "simulate", str(circuit), "--tests", str(tests_file),
            "-f", "json", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert report["circuit"]["constant_line"] == 3
        # every pattern gained the mandatory 1 on the constant line
        pats = report["test_sets"]["User"]["patterns"]
        assert pats == ["0001", "0011", "0101", "0111", "1001", "1111"]

    def test_padded_file_is_tokenized_once(self, capsys, monkeypatch, tmp_path):
        # the first row's width and the rows themselves come from one pass
        circuit = tmp_path / "notplus.rev"
        circuit.write_text(NOTPLUS_TEXT)
        tests_file = tmp_path / "notplus.tests"
        tests_file.write_text("000\n001\n010\n# a comment\n011\n100\n111\n")
        calls = []
        tokens = patterns._line_tokens

        def counted(text):
            calls.append(text)
            return tokens(text)

        monkeypatch.setattr(patterns, "_line_tokens", counted)
        code, _, err = run(capsys, "simulate", str(circuit), "--tests", str(tests_file))
        assert (code, err) == (0, "")
        assert len(calls) == 1

    def test_constant_line_zero_refused(self, capsys, tmp_path):
        # x4 is the constant line normalization adds, and it is always 1:
        # graded with x4 = 0, XPair x2 x4 WiredOr would read as detected,
        # though verify proves it redundant
        circuit = tmp_path / "z3.rev"
        circuit.write_text(Z3_TEXT)
        tests_file = tmp_path / "z3.tests"
        tests_file.write_text("000101\n\n000100\n")
        code, out, err = run(capsys, "simulate", str(circuit), "--tests", str(tests_file),
                             "--include-aux")
        assert (code, out) == (2, "")
        assert err == "error: line 3: 0 on the constant line x4, which is always 1\n"

    @pytest.mark.parametrize("dc_policy", ["fill-zero", "fill-one"])
    def test_constant_line_dont_care_reads_as_one(self, capsys, tmp_path, dc_policy):
        circuit = tmp_path / "z3.rev"
        circuit.write_text(Z3_TEXT)
        tests_file = tmp_path / "z3.tests"
        tests_file.write_text("00010d\n")
        args = ["--include-aux", "--dc-policy", dc_policy, "-f", "json", "--no-timestamp"]
        _, out, _ = run(capsys, "simulate", str(circuit), "--tests", str(tests_file), *args)
        report = json.loads(out)
        assert report["test_sets"]["User"]["patterns"] == ["000101"]
        verdict = next(v for v in report["verdicts"] if (v["class"], v["line_a"], v["line_b"],
                                                         v["polarity"]) == BRIDGE_X2_X4_OR)
        assert verdict["verdict"] == "Redundant"


class TestConfigBlock:
    """Each command's json ``config`` block under non-default flags, key order
    included: the goldens pin default flags, or one flag at a time."""

    @pytest.mark.parametrize("argv, config", [
        (["verify", "--no-fallback", "--include-aux", "--dedup", "--oracle-cap", "5",
          "--dc-policy", "fill-one", "--sets", "T4,T1"],
         {"command": "verify", "sets": ["T4", "T1"], "dc_policy": "fill-one", "oracle_cap": 5,
          "fallback": False, "dedup": True, "include_aux": True}),
        (["atpg", "--fallback", "--dedup"],
         {"command": "atpg", "sets": ["T1", "T2", "T3", "T4", "T5"], "dc_policy": "fill-zero",
          "oracle_cap": 22, "fallback": True, "dedup": True}),
        (["simulate", "--include-aux", "--tests", str(DATA / "bench7x3_user.tests")],
         {"command": "simulate", "dc_policy": "fill-zero", "oracle_cap": 22, "fallback": False,
          "include_aux": True}),
        (["faults", "--include-aux"],
         {"command": "faults", "dc_policy": "fill-zero", "include_aux": True}),
    ], ids=["verify", "atpg", "simulate", "faults"])
    def test_non_default_flags(self, capsys, argv, config):
        command, *flags = argv
        code, out, err = run(capsys, command, str(DATA / "bench7x3.rev"), *flags,
                             "--format", "json", "--no-timestamp")
        assert code in (0, 1, 4) and err == ""  # a report, whatever its verdicts
        assert list(json.loads(out)["config"].items()) == list(config.items())


class TestGradeCount:
    @pytest.fixture
    def grades(self, monkeypatch):
        calls = []
        grade = cli.evaluate_test_set

        def recording(network, faults, rows, *args, **kwargs):
            evaluation = grade(network, faults, rows, *args, **kwargs)
            calls.append((faults, list(rows), evaluation))
            return evaluation

        monkeypatch.setattr(cli, "evaluate_test_set", recording)
        return calls

    def test_verify_grades_once(self, capsys, grades):
        code, _, _ = run(capsys, "verify", str(DATA / "bench7x3.rev"))
        assert code == 0
        assert len(grades) == 1

    def test_verify_regrades_the_final_union(self, capsys, grades, monkeypatch):
        repairs = []
        search = cli.fallback_search

        def recording(*args, **kwargs):
            repairs.append(search(*args, **kwargs))
            return repairs[-1]

        monkeypatch.setattr(cli, "fallback_search", recording)
        code, _, _ = run(capsys, "verify", str(DATA / "rand5z.rev"), "--sets", "T1,T4")
        assert code == 0
        (faults, base, _), (second_faults, final, _) = grades
        assert second_faults is faults
        assert repairs[0].patterns and final == base + repairs[0].patterns

    def test_atpg_without_fallback_grades_nothing(self, capsys, grades):
        code, _, _ = run(capsys, "atpg", str(DATA / "bench7x3.rev"))
        assert code == 0
        assert grades == []


class TestModuleEntry:
    """``python -m bridgetest`` runs the same main() in a fresh interpreter."""

    def run_module(self, *argv, stdin=None, encoding=None):
        """Run the module; ``encoding`` sets PYTHONIOENCODING, the encoding
        Python gives stdin and stdout.  Its output is read as UTF-8."""
        root = DATA.parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        if encoding is not None:
            env["PYTHONIOENCODING"] = encoding
        return subprocess.run([sys.executable, "-m", "bridgetest", *argv], cwd=root, env=env,
                              input=stdin, capture_output=True, encoding="utf-8", timeout=120)

    def test_verify_prints_the_golden_report(self):
        proc = self.run_module("verify", "tests/data/and2.rev", "--no-timestamp")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (DATA / "golden" / "verify_and2.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_stdout_is_utf8_whatever_the_locale(self, encoding):
        # the text report holds a non-ASCII sign; it goes out as UTF-8 bytes
        proc = self.run_module("verify", "tests/data/and2.rev", "--no-timestamp",
                               encoding=encoding)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (DATA / "golden" / "verify_and2.txt").read_text(encoding="utf-8")

    def test_stdin_is_utf8_whatever_the_locale(self):
        # a byte-order mark opening stdin is dropped, as it is from a file
        text = (DATA / "and2.rev").read_text(encoding="utf-8")
        proc = self.run_module("parse", "-", stdin="\ufeff" + text, encoding="latin-1")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == format_circuit(parse_circuit(text))

    def test_stderr_is_utf8_whatever_the_locale(self, tmp_path):
        # the error quotes a control token with an Arabic-Indic digit: both
        # locales get the same UTF-8 bytes, not a backslash escape
        circuit = tmp_path / "bad.rev"
        circuit.write_text(".n 2\n.p 1\n.gate c1 : x\u0661\n.end\n", encoding="utf-8")
        for encoding in ("utf-8", "ascii"):
            proc = self.run_module("parse", str(circuit), encoding=encoding)
            assert (proc.returncode, proc.stdout) == (2, ""), encoding
            assert proc.stderr == "error: line 3, column 12: bad control token 'x\u0661'\n", encoding

    def test_missing_circuit_exits_3(self):
        proc = self.run_module("verify", "tests/data/no_such_circuit.rev")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error:")


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path, bench_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", str(bench_path), "-f", "json", "--no-timestamp",
                     "-o", str(out1)]) == 0
        assert main(["verify", str(bench_path), "-f", "json", "--no-timestamp",
                     "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path, bench_path):
        seq = tmp_path / "seq.json"
        par = tmp_path / "par.json"
        assert main(["verify", str(bench_path), "-f", "json", "--no-timestamp",
                     "-o", str(seq), "--jobs", "1"]) == 0
        assert main(["verify", str(bench_path), "-f", "json", "--no-timestamp",
                     "-o", str(par), "--jobs", "4"]) == 0
        assert seq.read_bytes() == par.read_bytes()


class TestOut:
    """``--out`` writes over an existing file in place, then cuts it to length."""

    GOLDEN = (DATA / "golden" / "verify_and2.txt").read_bytes()

    def verify(self, capsys, and2_path, out):
        return run(capsys, "verify", str(and2_path), "--no-timestamp", "--out", str(out))

    def test_dev_null(self, capsys, and2_path):
        # a character device cannot be cut, so only a regular file is
        if not os.path.exists("/dev/null"):
            pytest.skip("no /dev/null")
        assert self.verify(capsys, and2_path, "/dev/null") == (0, "", "")

    def test_missing_directory_exits_3(self, capsys, and2_path, tmp_path):
        out = tmp_path / "missing" / "r.txt"
        message = f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert self.verify(capsys, and2_path, out) == (3, "", message)

    def test_directory_exits_3(self, capsys, and2_path, tmp_path):
        if os.name == "nt":
            pytest.skip("Windows names a directory's error differently")
        message = f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        assert self.verify(capsys, and2_path, tmp_path) == (3, "", message)

    @pytest.mark.skipif(os.name == "nt", reason="no POSIX permission bits")
    def test_new_file_mode_follows_umask(self, capsys, and2_path, tmp_path):
        out = tmp_path / "r.txt"
        old = os.umask(0o027)
        try:
            assert self.verify(capsys, and2_path, out) == (0, "", "")
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027
        assert out.read_bytes() == self.GOLDEN

    def test_opened_without_truncation(self, capsys, monkeypatch, and2_path, tmp_path):
        out = tmp_path / "r.txt"
        out.write_bytes(self.GOLDEN * 2)
        flags, os_open = [], os.open

        def recorded(path, flag, *args, **kwargs):
            if os.fspath(path) == str(out):
                flags.append(flag)
            return os_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recorded)
        assert self.verify(capsys, and2_path, out) == (0, "", "")
        assert len(flags) == 1
        assert flags[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
        assert not flags[0] & os.O_TRUNC
        assert out.read_bytes() == self.GOLDEN

    @pytest.mark.skipif(os.name == "nt" or os.geteuid() == 0,
                        reason="needs POSIX permission bits that bind the user")
    def test_write_only_file_is_rewritten(self, capsys, and2_path, tmp_path):
        out = tmp_path / "r.txt"
        out.write_bytes(self.GOLDEN * 2)
        out.chmod(0o200)
        try:
            assert self.verify(capsys, and2_path, out) == (0, "", "")
        finally:
            out.chmod(0o600)
        assert out.read_bytes() == self.GOLDEN

    @pytest.mark.parametrize("stop", [KeyboardInterrupt, OSError])
    def test_stopped_write_leaves_no_old_bytes(self, monkeypatch, tmp_path, stop):
        # a write stopped after its first 1 MiB slice is still cut there
        out = tmp_path / "r.txt"
        out.write_bytes(b"z" * (3 << 20))
        real_open = open

        def stopping_open(*args, **kwargs):
            f = real_open(*args, **kwargs)

            def writelines(slices):
                f.write(next(iter(slices)))
                raise stop

            f.writelines = writelines
            return f

        monkeypatch.setattr(cli, "open", stopping_open, raising=False)
        with pytest.raises(stop):
            cli._write_text(str(out), "a" * (2 << 20))
        assert out.read_bytes() == b"a" * (1 << 20)


class TestBench:
    def test_emit_circuit_parses(self, capsys):
        code, out, err = run(capsys, "bench", "--emit-circuit")
        assert code == 0
        circuit = parse_circuit(out)
        assert (circuit.n, circuit.p, circuit.d) == (7, 3, 19)

    def test_text_comparison(self, capsys):
        code, out, err = run(capsys, "bench")
        assert code == 0
        assert "tabulated cells disagreeing with recomputation: 20" in out
        assert "T2 generated differs from the tabulated set" in out
        assert "T3 generated differs from the tabulated set" in out

    def test_json_comparison(self, capsys):
        code, out, err = run(capsys, "bench", "-f", "json")
        report = json.loads(out)
        assert len(report["discrepancies"]) == 20
        assert report["t2"]["match"] is False
        assert report["t3"]["match"] is False
        assert report["t2"]["reference"] == [
            "1000000", "0100000", "0001000", "0000100", "0011000", "0001001",
        ]


@pytest.mark.parametrize("argv", [
    ["atpg", "bench7x3.rev", "--fallback"],
    ["verify", "bench7x3.rev"],
    ["bench"],
])
def test_commands_read_no_pprm(capsys, monkeypatch, argv):
    # generation reads the gate supports, so no command derives a PPRM;
    # cli still names derive_pprm only for the benchmark harness to wrap
    def refuse(circuit):
        raise AssertionError("derive_pprm called")

    monkeypatch.setattr(cli, "derive_pprm", refuse)
    args = [str(DATA / arg) if arg.endswith(".rev") else arg for arg in argv]
    code, out, err = run(capsys, *args, "--no-timestamp")
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("text, line, message", [
    # the first bad symbol in sorted order is named, after comments and blanks
    ("# user file\n\n0000000000\n00y0x00000\n", 4, "bad symbol 'x'"),
    ("000 0000000  # spaced\n1111111111\n  0d0 1\t1 \n", 3,
     "pattern has 5 symbols, expected 10 (p=3 then n=7)"),
    ("0000000000\n0000000000d\n", 2, "pattern has 11 symbols, expected 10 (p=3 then n=7)"),
])
def test_test_file_errors_name_their_line(text, line, message, bench):
    with pytest.raises(bridgetest.TestFileError) as err:
        parse_test_file(text, bench)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("c, x, message", [
    ("0x", "1", "bad pattern symbol ['x']"),
    ("01", "zd y", "bad pattern symbol [' ', 'y', 'z']"),
    ("2", "3", "bad pattern symbol ['2', '3']"),  # the c and x parts alike
])
def test_bad_pattern_symbols_are_listed(c, x, message):
    # a row of the network's width, with symbols other than 0, 1 and d:
    # it is refused before the fault is read
    net = AndExorNetwork(len(x), len(c), (), ())
    with pytest.raises(ValueError) as err:
        bridgetest.detects(net, BridgingFault.a_pair(1, 2, Polarity.WIRED_AND), c + x)
    assert str(err.value) == message
