import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge import cli, invariants
from cuspforge.cli import _json_text, run
from cuspforge.hn import format_hn, parse_hn, standardize
from cuspforge.invariants import (
    cusp_record,
    hn_to_multiplicity,
    hn_to_puiseux_char,
    zariski_from_hn,
)
from support import (
    invariants_output_oracle,
    resolution_corpus_hn,
    resolve_output_oracle,
    standard_hn_sequences,
)

INVARIANT_ROWS = """\
hn         6/4,2/3
mult       4,2,2,2
char       4;6,9
puiseux    (3,2),(9,2)
zariski    (2,3),(2,3)
semigroup  4,6,15
gaps       1,2,3,5,7,9,11,13,17
alexander  1,-1,0,0,1,-1,1,-1,1,-1,1,-1,1,-1,1,0,0,-1,1
M          12
I          30
"""

DOT_13_4 = """\
graph Q {
  node [shape=circle];
  v0 [label="-2"];
  v1 [label="-2"];
  v2 [label="-5"];
  v3 [label="-2"];
  v4 [label="-2"];
  v5 [label="-2"];
  v6 [label="-1", shape=doublecircle];
  E [shape=box];
  v0 -- v1;
  v1 -- v2;
  v2 -- v6;
  v3 -- v4;
  v4 -- v5;
  v5 -- v6;
  v6 -- E [style=dashed];
}
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_hn_input(self, capsys):
        code, out, err = invoke(capsys, "invariants", "--hn", "6/4,2/3")
        assert (code, err) == (0, "")
        assert out == INVARIANT_ROWS

    def test_mult_input_same_cusp(self, capsys):
        code, out, _ = invoke(capsys, "invariants", "--mult", "4,2,2,2")
        assert code == 0
        assert out == INVARIANT_ROWS

    def test_exactly_one_input(self, capsys):
        code, _, err = invoke(capsys, "invariants", "--hn", "7/3",
                              "--mult", "3,3")
        assert code == 2
        assert err.startswith("error: ")

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "invariants", "--hn", "7/3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["semigroup_generators"] == ["3", "7"]
        assert obj["mult_reduced"] == ["3", "3"]
        assert obj["M"] == "9"
        assert obj["I"] == "21"


def invariants_outputs(text: str) -> tuple[str, str]:
    """stdout of `invariants --hn text` with --json and as text rows."""
    outs = []
    for fmt in (["--json"], []):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["invariants", "--hn", text, *fmt]) == 0
        outs.append(out.getvalue())
    return tuple(outs)


class TestInvariantsFromTable:
    """Output written in pieces from the membership table against whole lists."""

    @settings(max_examples=40, deadline=None)
    @given(standard_hn_sequences(cap=200), st.sampled_from([1, 2, 3, 7]))
    def test_matches_whole_list_output(self, s, piece):
        # at piece size 1 most gap pieces hold no gap and print nothing
        want = invariants_output_oracle(cusp_record(s))
        assert invariants_outputs(format_hn(s)) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "_PIECE", piece)
            assert invariants_outputs(format_hn(s)) == want

    @pytest.mark.parametrize("text", [
        "3/2", "6/4,2/3", "257/65", "16387/2", "16389/2", "32769/2", "32771/2"])
    def test_fixed_cases(self, text):
        # conductors at and just past one piece of the table: 16384, 16386,
        # 16388; reduced multiplicity runs of one piece and one past: 16384, 16385
        assert invariants_outputs(text) == invariants_output_oracle(
            cusp_record(standardize(parse_hn(text))))

    @pytest.mark.parametrize("fmt", [["--json"], []])
    @pytest.mark.parametrize("text", [
        "99999999999999999999999/99999999999999999999998",
        "6/4,2/99999999999999999999999",
    ])
    def test_table_past_an_index_fails_before_output(self, capsys, text, fmt):
        # the table is sized first: no list of 10**23 Apery elements is begun
        start = time.process_time()
        code, out, err = invoke(capsys, "invariants", "--hn", text, *fmt)
        assert time.process_time() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestConvert:
    @pytest.mark.parametrize("src,dst,text,expected", [
        ("mult", "hn", "4,2,2,2", "6/4,2/3"),
        ("hn", "char", "7/3", "3;7"),
        ("char", "zariski", "4;6,9", "(2,3),(2,3)"),
        ("zariski", "mult", "(2,3),(2,3)", "4,2,2,2"),
        ("hn", "hn", "6/4,2/2,2/1", "6/4,2/3"),
    ])
    def test_fixtures(self, capsys, src, dst, text, expected):
        code, out, _ = invoke(capsys, "convert", "--from", src,
                              "--to", dst, text)
        assert code == 0
        assert out == expected + "\n"

    def test_round_trip_all_representations(self, capsys):
        reps = ["hn", "mult", "char", "zariski", "hn"]
        text = "6/4,2/3"
        for src, dst in zip(reps, reps[1:]):
            code, out, _ = invoke(capsys, "convert", "--from", src,
                                  "--to", dst, text)
            assert code == 0
            text = out.strip()
        assert text == "6/4,2/3"

    def test_bad_entry(self, capsys):
        code, _, err = invoke(capsys, "convert", "--from", "hn",
                              "--to", "mult", "6/0")
        assert code == 2
        assert err == "error: HN pair entries must be >= 1, got (6/0)\n"

    @pytest.mark.parametrize("text,err", [
        ("", "error: empty pair list text\n"),
        (" ", "error: empty pair list text\n"),
        ("(2,3)(2,3)", "error: invalid pair list text '(2,3)(2,3)'\n"),
        ("2,3", "error: invalid pair list text '2,3'\n"),
        ("(\u0662,\u0663)", "error: invalid pair list text '(\u0662,\u0663)'\n"),
        ("(2,+3)", "error: invalid pair list text '(2,+3)'\n"),
        ("(2,1_3)", "error: invalid pair list text '(2,1_3)'\n"),
        ("()", "error: invalid pair list text '()'\n"),
    ])
    def test_bad_zariski_text(self, capsys, text, err):
        assert invoke(capsys, "convert", "--from", "zariski", "--to", "hn", text) == (2, "", err)

    @settings(max_examples=40, deadline=None)
    @given(standard_hn_sequences(cap=300))
    def test_every_pair_matches_the_library(self, seq):
        texts = {
            "hn": format_hn(seq),
            "mult": hn_to_multiplicity(seq).to_text(),
            "char": hn_to_puiseux_char(seq).to_text(),
            "zariski": zariski_from_hn(seq).to_text(),
        }
        for source, text in texts.items():
            for target, want in texts.items():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(["convert", "--from", source, "--to", target, text])
                assert (code, out.getvalue(), err.getvalue()) == (0, want + "\n", "")

    def test_unrealizable_mult(self, capsys):
        code, _, err = invoke(capsys, "convert", "--from", "mult",
                              "--to", "hn", "5,3")
        assert code == 2
        assert "5,3,1,1,1" in err


class TestResolve:
    def test_dot_to_stdout(self, capsys):
        code, out, err = invoke(capsys, "resolve", "--hn", "13/4", "--dot", "-")
        assert (code, err) == (0, "")
        assert out == DOT_13_4

    def test_dot_to_file_suppresses_stdout(self, capsys, tmp_path):
        target = tmp_path / "q.dot"
        code, out, _ = invoke(capsys, "resolve", "--hn", "13/4",
                              "--dot", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == DOT_13_4

    def test_human_report(self, capsys):
        code, out, _ = invoke(capsys, "resolve", "--hn", "13/4")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "hn        13/4"
        assert "weights   v0:-2 v1:-2 v2:-5 v3:-2 v4:-2 v5:-2 v6:-1" in lines
        assert "curve     v6" in lines
        assert "chain     [2,2,2,1,5,2,2]" in lines

    def test_json_schema(self, capsys):
        code, out, _ = invoke(capsys, "resolve", "--hn", "6/4,2/3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"hn", "weights", "edges", "curve_vertex",
                            "multiplicities", "chain"}
        assert obj["weights"] == ["-3", "-2", "-2", "-3", "-2", "-1"]
        assert obj["edges"] == [["0", "2"], ["1", "2"], ["2", "3"],
                                ["3", "5"], ["4", "5"]]
        assert obj["curve_vertex"] == "5"
        assert obj["multiplicities"] == ["4", "2", "2", "2", "1", "1"]
        assert obj["chain"] is None

    def test_json_chain_for_one_pair(self, capsys):
        _, out, _ = invoke(capsys, "resolve", "--hn", "13/4", "--json")
        assert json.loads(out)["chain"] == "[2,2,2,1,5,2,2]"


def resolve_outputs(text: str) -> tuple[str, str, str]:
    """stdout of `resolve --hn text` with --json, as text and with --dot -."""
    outs = []
    for fmt in (["--json"], [], ["--dot", "-"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["resolve", "--hn", text, *fmt]) == 0
        outs.append(out.getvalue())
    return tuple(outs)


class TestResolveFromRuns:
    """Output written from the run form against the expanded-tree printing."""

    @settings(max_examples=40, deadline=None)
    @given(resolution_corpus_hn(cap=3000), st.sampled_from([1, 2, 3, 7]))
    def test_matches_expanded_tree_output(self, s, piece):
        # tiny pieces put piece boundaries inside runs, edges and chains
        want = resolve_output_oracle(s)
        assert resolve_outputs(format_hn(s)) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "_PIECE", piece)
            assert resolve_outputs(format_hn(s)) == want

    @pytest.mark.parametrize("text", [
        "3/2", "13/4", "6/4,2/3", "987/144,3/1", "120/90,30/20,10/7",
        "65537/2", "49153/3", "16387/16385",
    ])
    def test_fixed_cases(self, text):
        # runs longer than one piece of output, and pieces that end a run
        assert resolve_outputs(text) == resolve_output_oracle(standardize(parse_hn(text)))

    @pytest.mark.parametrize("fmt", [["--json"], [], ["--dot", "-"]])
    def test_too_many_vertices_fail_before_output(self, capsys, fmt):
        code, out, err = invoke(capsys, "resolve", "--hn",
                                "6/4,2/99999999999999999999999", *fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_json_peak_memory(self):
        # 70,065 vertices; whole lists of them took 4 MiB, pieces of 2^14 edges 3.8 MiB
        argv = ["resolve", "--hn", "140129/2", "--json"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert run(["resolve", "--hn", "3/2", "--json"]) == 0   # the parser, built once
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_too_many_vertices_write_no_file(self, capsys, tmp_path):
        target = tmp_path / "q.dot"
        code, _, err = invoke(capsys, "resolve", "--hn",
                              "6/4,2/99999999999999999999999", "--dot", str(target))
        assert code == 2 and err.startswith("error: ")
        assert not target.exists()


class TestFamily:
    def test_gen_json(self, capsys):
        code, out, _ = invoke(capsys, "family", "gen", "G", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == {"id": "G", "params": {"gamma": "3"}}
        assert obj["degree"] == "5"
        assert obj["gamma"] == "3"
        assert [c["standard"] for c in obj["cusps"]] == [[["9", "2"]],
                                                          [["5", "2"]]]

    def test_gen_human_with_audit(self, capsys):
        code, out, _ = invoke(capsys, "family", "gen", "G", "3", "--audit")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family  G(3)"
        assert lines[1] == "degree  5"
        assert lines[3] == "cusp 1  9/2  (standard 9/2)"
        assert lines[-1] == "ok (28 checks)"

    def test_gen_json_audit_key(self, capsys):
        code, out, _ = invoke(capsys, "family", "gen", "G", "3",
                              "--json", "--audit")
        assert code == 0
        obj = json.loads(out)
        assert all(c["pass"] for c in obj["audit"]["checks"])

    def test_gen_domain_error(self, capsys):
        code, _, err = invoke(capsys, "family", "gen", "A", "1", "2")
        assert code == 2
        assert err == "error: A takes parameters ('gamma', 'p', 's'), got 2 values\n"
        code, _, err = invoke(capsys, "family", "gen", "A", "1", "2", "1")
        assert code == 2
        assert err == "error: A excludes (gamma,p) = (1,2)\n"

    def test_enumerate_human(self, capsys):
        code, out, _ = invoke(capsys, "family", "enumerate",
                              "--max-degree", "5")
        assert code == 0
        assert out == (
            "FZ1(4,1)     degree 4    gamma 2   cusps 3/2 + 3/2 + 3/2\n"
            "FZ1(5,2)     degree 5    gamma 3   cusps 5/2 + 4/3 + 3/2\n"
            "D(1,2,1)     degree 5    gamma 1   cusps 4/3 + 7/2\n"
            "G(3)         degree 5    gamma 3   cusps 9/2 + 5/2\n"
            "4 curves with degree <= 5\n"
        )

    def test_enumerate_audit(self, capsys):
        code, out, _ = invoke(capsys, "family", "enumerate",
                              "--max-degree", "8", "--audit")
        assert code == 0
        body = out.splitlines()
        assert len(body) == 21
        assert all(line.endswith("  audit ok") for line in body[:-1])
        assert body[-1] == "20 curves with degree <= 8"

    def test_enumerate_json_audit_flag(self, capsys):
        code, out, _ = invoke(capsys, "family", "enumerate",
                              "--max-degree", "5", "--json", "--audit")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["curves"]) == 4
        assert all(c["audit_ok"] is True for c in obj["curves"])

    def test_enumerate_failed_audit_exit_code(self, capsys, monkeypatch):
        import cuspforge.cli as cli
        from cuspforge.verify import AuditReport, Check

        failing = AuditReport((Check("forced", False, 1, 0),))
        monkeypatch.setattr(cli, "_audit_each", lambda records: (failing for _ in records))
        for extra in ((), ("--json",)):
            code, out, _ = invoke(capsys, "family", "enumerate",
                                  "--max-degree", "5", "--audit", *extra)
            assert code == 1
            assert "FAILED" in out or '"audit_ok": false' in out


class Md5Sink:
    """A stdout that keeps only the md5 of what is written to it."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text):
        self.md5.update(text.encode())
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)

    def flush(self):
        pass


class TestGoldenOutput:
    @pytest.mark.parametrize("argv,digest", [
        (("invariants", "--hn", "1000001/2", "--json"), "ff443037ba488522d0e09a916232e1ca"),
        (("invariants", "--hn", "1000001/2"), "c8382080801267af498cd80fbe3d52b4"),
        (("invariants", "--hn", "180/54,18/30,6/4,2/5", "--json"),
         "d12aae2845ca74dd96a7f3432b5032c0"),
        (("invariants", "--mult", "4,2,2,2"), "9df5eb1d26a95670d221207bfd94458a"),
    ])
    def test_invariants(self, argv, digest):
        sink = Md5Sink()
        with contextlib.redirect_stdout(sink):
            assert run(list(argv)) == 0
        assert sink.md5.hexdigest() == digest

    @pytest.mark.parametrize("fmt,digest", [
        ((), "31656bee4f3c5108e4f16af568a770ac"),
        (("--json",), "70f6de746b5bf201587dd8fe1911c559"),
        (("--dot", "-"), "dbd031ccdc30b61f4b232beb33e4f478"),
    ])
    def test_resolve(self, fmt, digest):
        # the piece size feeds all three writers
        sink = Md5Sink()
        with contextlib.redirect_stdout(sink):
            assert run(["resolve", "--hn", "140001/2", *fmt]) == 0
        assert sink.md5.hexdigest() == digest

    def test_enumerate_audit_to_degree_80(self):
        # the whole text of the benchmark command, byte for byte
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["family", "enumerate", "--max-degree", "80", "--audit"])
        assert code == 0
        text = out.getvalue()
        assert text.count("  audit ok\n") == 2984
        assert text.endswith("\n2984 curves with degree <= 80\n")
        assert hashlib.md5(text.encode()).hexdigest() == "a63379b2626076b2eaaa8c3b142dd808"


class TestVerify:
    def test_degree_seven(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--degree", "7",
                              "--gamma", "2", "--hn", "6/4,2/3",
                              "--hn", "7/3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "ok (26 checks)"
        assert "PASS hn_equation_a                       21 21" in lines
        assert "PASS hn_equation_b                       51 51" in lines
        assert "PASS hn_equation_c                       30 30" in lines
        assert "PASS kkd_nonnegative                     0 0" in lines
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_failing_record(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--degree", "4",
                              "--gamma", "1", "--hn", "3/2")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "FAILED (4 of 16 checks)"
        assert "FAIL hn_equation_a                       11 4" in lines
        assert "FAIL E2_single_cusp_bound                -1 -2" in lines
        assert "PASS kkd_nonnegative                     5 0" in lines

    def test_family_form(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--family", "FZ1", "5", "2")
        assert code == 0
        assert out.splitlines()[-1] == "ok (38 checks)"

    def test_family_xor_explicit(self, capsys):
        code, _, err = invoke(capsys, "verify", "--family", "G", "3",
                              "--degree", "5")
        assert code == 2
        assert "not both" in err
        code, _, err = invoke(capsys, "verify", "--degree", "7",
                              "--hn", "6/4")
        assert code == 2
        assert err == ("error: verify needs --family, or --degree, "
                       "--gamma and at least one --hn\n")

    @pytest.mark.parametrize("param", ["1", "x"])
    def test_unknown_family_is_named_before_its_parameters(self, capsys, param):
        code, out, err = invoke(capsys, "verify", "--family", "Z", param)
        assert (code, out, err) == (2, "", "error: unknown family 'Z'\n")


class TestLedger:
    def test_pass_with_euler(self, capsys):
        code, out, _ = invoke(capsys, "ledger", "--h", "3", "--nu", "0",
                              "--sigmas", "2,1,1", "--chis", "0,0,0",
                              "--mode", "q_acyclic_Cstst")
        assert code == 0
        assert out == (
            "PASS sigma_count_identity    1 1\n"
            "PASS degenerate_fiber_count  3 3\n"
            "PASS sigma_sum               4 4\n"
            "PASS nu_bound                0 1\n"
            "PASS euler_identity          1 1\n"
            "ok (5 checks)\n"
        )

    def test_generic_default_mode(self, capsys):
        code, out, _ = invoke(capsys, "ledger", "--h", "2", "--nu", "1",
                              "--sigmas", "1,2")
        assert code == 0
        assert out.splitlines()[-1] == "ok (1 checks)"

    def test_fail_exit_one(self, capsys):
        code, out, _ = invoke(capsys, "ledger", "--h", "3", "--nu", "0",
                              "--sigmas", "1,1")
        assert code == 1
        assert out == ("FAIL sigma_count_identity  1 0\n"
                       "FAILED (1 of 1 checks)\n")

    def test_mismatched_chis(self, capsys):
        code, _, err = invoke(capsys, "ledger", "--h", "3", "--nu", "0",
                              "--sigmas", "2,1,1", "--chis", "0,0")
        assert code == 2
        assert err == "error: chis must pair up with sigmas\n"


class TestTopLevel:
    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "nonsense")
        assert code == 2
        assert "invalid choice" in err

    def test_no_arguments(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspforge.cli", "convert",
             "--from", "mult", "--to", "hn", "4,2,2,2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "6/4,2/3\n"

    @pytest.mark.parametrize("argv,code,out_md5,err_end", [
        (("invariants", "--hn", "13/4"), 0, "0c0f2a41f56547339793b3d03b83575a", ""),
        (("family", "gen", "A", "x"), 2, hashlib.md5(b"").hexdigest(),
         "argument params: invalid integer 'x'\n"),
    ])
    def test_main_exits_with_the_run_code(self, capsys, monkeypatch, argv, code, out_md5, err_end):
        # the console script's entry point, in process: sys.argv in, SystemExit out
        monkeypatch.setattr(sys, "argv", ["cuspforge", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out, err = capsys.readouterr()
        assert exc.value.code == code
        assert hashlib.md5(out.encode()).hexdigest() == out_md5
        assert err.endswith(err_end) and bool(err) == bool(code)

    def test_parser_reuse(self, capsys):
        # one parser serves every call in a process: a usage error leaves
        # nothing behind, and help text goes to the stdout of its own call
        argv = ("invariants", "--hn", "6/4,2/3", "--json")
        fresh = subprocess.run([sys.executable, "-m", "cuspforge.cli", *argv],
                               capture_output=True, text=True)
        assert fresh.returncode == 0
        code, _, err = invoke(capsys, "invariants", "--hn")
        assert code == 2
        assert "expected one argument" in err
        assert invoke(capsys, *argv) == (0, fresh.stdout, "")
        code, out, _ = invoke(capsys, "invariants", "--help")
        assert code == 0
        assert out.startswith("usage: cuspforge invariants")

    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "q.dot"
        code, out, err = invoke(capsys, "resolve", "--hn", "6/4,2/3",
                                "--dot", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(target) in err

    @pytest.mark.parametrize("argv", [
        ("invariants", "--hn", "99999999999999999999999/2"),
        ("resolve", "--hn", "99999999999999999999999/2"),
        ("verify", "--family", "G", str(10 ** 20)),
    ])
    def test_oversized_input_is_an_input_error(self, capsys, argv):
        start = time.process_time()
        code, _, err = invoke(capsys, *argv)
        assert time.process_time() - start < 1.0
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("invariants", "--hn", "99999999999/2"),
        ("verify", "--family", "G", "1000000000000"),
    ])
    def test_out_of_memory_is_an_input_error(self, argv):
        # the conductor fits an index but its table does not fit in 1 GiB
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = os.path.dirname(os.path.dirname(invariants.__file__))
        proc = subprocess.run([sys.executable, "-m", "cuspforge.cli", *argv],
                              capture_output=True, text=True, timeout=10,
                              preexec_fn=limit, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_determinism(self, capsys):
        argv = ("family", "enumerate", "--max-degree", "15", "--json",
                "--audit")
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second


def full_parse(argv):
    """The reference route: every argv through the full parser's parse_args."""
    return cli._build_parser()[0].parse_args(argv)


def outcome(call, argv):
    """(result, stdout, stderr) of call(argv); a SystemExit gives ("exit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def assert_routes_agree(argv, workdir):
    """The routed parse and run end as the full parser's do, byte for byte."""
    assert outcome(cli._parse, list(argv)) == outcome(full_parse, list(argv))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)     # a --dot PATH drawn from the vocabulary is written here
        routed = outcome(run, list(argv))
        mp.setattr(cli, "_parse", full_parse)
        assert routed == outcome(run, list(argv))


VALID_COMMANDS = [
    ("invariants", "--hn", "6/4,2/3", "--json"),
    ("invariants", "--mult", "4,2,2,2"),
    ("invariants", "--hn", "7/3", "--hn", "6/4,2/3"),
    ("convert", "--from", "hn", "--to", "mult", "6/4,2/3"),
    ("convert", "--from=mult", "--to=hn", "4,2,2,2"),
    ("resolve", "--hn", "13/4", "--dot", "-"),
    ("resolve", "--hn", "6/4,2/3", "--json"),
    ("family", "gen", "G", "3", "--audit"),
    ("family", "gen", "--json", "A", "2", "3", "2"),
    ("family", "gen", "--", "G", "3"),
    ("family", "enumerate", "--max-degree", "8", "--audit"),
    ("family", "enumerate", "--max-d", "5", "--json"),
    ("family", "enumerate", "--max-degree=-3"),
    ("verify", "--degree", "7", "--gamma", "2", "--hn", "6/4,2/3", "--hn", "7/3"),
    ("verify", "--family", "FZ1", "5", "2", "--json"),
    ("ledger", "--h", "3", "--nu", "0", "--sigmas", "2,1,1", "--chis", "0,0,0",
     "--mode", "q_acyclic_Cstst"),
    ("ledger", "--h", "2", "--nu", "1", "--sigmas", "1,2", "--json"),
]

ROUTING_CORPUS = VALID_COMMANDS + [
    (), ("-h",), ("--help",), ("invariants", "-h"), ("family", "-h"),
    ("family", "gen", "-h"), ("family", "enumerate", "--help"), ("ledger", "--help"),
    ("family",), ("invar",), ("nonsense",), ("family", "generate", "G", "3"),
    ("invariants", "--hn"), ("convert", "--from", "hn", "3/2"), ("family", "gen"),
    ("family", "gen", "Z"), ("family", "gen", "A", "x"),
    ("family", "enumerate", "--max-degree", "x"),
    ("ledger", "--h", "1", "--nu", "0", "--sigmas", "2,x"),
    ("verify", "--family", "G", "x"), ("verify", "--family", "G", "3", "--degree", "5"),
    ("invariants", "--hn", "3/2", "extra"), ("invariants", "--bogus"),
    ("family", "gen", "G", "3", "--bogus"), ("family", "enumerate", "--max-degree", "5", "x"),
    ("resolve", "--hn", "3/2", "--json=1"), ("invariants", "--hn", "3/2", "--mult", "3,3"),
    ("--", "invariants", "--hn", "3/2"), ("invariants", "--", "--hn", "3/2"),
    ("invariants", "--hn", "3/2", "--"), ("family", "--", "gen", "G", "3"),
    ("-h", "invariants"), ("family", "gen", "G", "3", "-h"),
]

ROUTING_VOCABULARY = [
    "invariants", "convert", "resolve", "family", "gen", "enumerate", "verify",
    "ledger", "--hn", "--mult", "--json", "--from", "--to", "--dot", "--audit",
    "--max-degree", "--family", "--degree", "--gamma", "--h", "--nu", "--sigmas",
    "--chis", "--mode", "G", "hn", "3/2", "x", "-3", "--", "-h",
]


class TestRouting:
    """An argv that opens with a subcommand goes straight to its leaf parser."""

    @pytest.mark.parametrize("argv", ROUTING_CORPUS, ids=" ".join)
    def test_corpus_ends_as_the_full_parser(self, argv, tmp_path):
        assert_routes_agree(argv, tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(ROUTING_VOCABULARY), max_size=6))
    def test_drawn_argv_ends_as_the_full_parser(self, tmp_path_factory, argv):
        assert_routes_agree(argv, tmp_path_factory.mktemp("routing"))

    def test_routed_command_skips_the_full_parser(self, capsys, monkeypatch):
        parser, _ = cli._build_parser()
        calls = []

        def spy(real):
            def call(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return call

        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(parser, name, spy(getattr(parser, name)))
        for argv in VALID_COMMANDS:
            assert invoke(capsys, *argv)[0] in (0, 1)
        assert calls == []
        assert invoke(capsys, "invar")[0] == 2
        assert calls

    def test_argv_forms(self, capsys, monkeypatch):
        argv = ["family", "gen", "G", "3", "--json"]
        want = invoke(capsys, *argv)
        assert want[0] == 0
        assert (run(tuple(argv)), *capsys.readouterr()) == want
        monkeypatch.setattr(sys, "argv", ["cuspforge", *argv])
        assert (run(None), *capsys.readouterr()) == want
        assert (run(), *capsys.readouterr()) == want


class TestUsageErrors:
    @pytest.mark.parametrize("argv,name,token", [
        (("family", "enumerate", "--max-degree", "x"), "--max-degree", "x"),
        (("family", "gen", "A", "2", "1.5"), "params", "1.5"),
        (("verify", "--degree", "x", "--gamma", "1", "--hn", "3/2"), "--degree", "x"),
        (("verify", "--gamma", "0x1"), "--gamma", "0x1"),
        (("ledger", "--h", "x", "--nu", "0", "--sigmas", "1"), "--h", "x"),
        (("ledger", "--h", "1", "--nu", "", "--sigmas", "1"), "--nu", ""),
        (("ledger", "--h", "1", "--nu", "0", "--sigmas", "2,x"), "--sigmas", "x"),
        (("ledger", "--h", "1", "--nu", "0", "--sigmas", "1", "--chis", "0,,1"), "--chis", ""),
        # only ASCII decimal digits: no other script's digits, no `_`, no `+`
        (("family", "gen", "G", "1_0"), "params", "1_0"),
        (("family", "gen", "G", "+5"), "params", "+5"),
        (("ledger", "--h", "\u0663", "--nu", "0", "--sigmas", "1"), "--h", "\u0663"),
        (("family", "enumerate", "--max-degree", "\uff18"), "--max-degree", "\uff18"),
        (("ledger", "--h", "1", "--nu", "0", "--sigmas", "2,\u00b2"), "--sigmas", "\u00b2"),
    ])
    def test_bad_integer_names_its_argument(self, capsys, argv, name, token):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f": error: argument {name}: invalid integer {token!r}")
        assert "_int" not in err

    def test_family_parameter_is_an_input_error(self, capsys):
        assert invoke(capsys, "verify", "--family", "G", "x") == (
            2, "", "error: invalid integer 'x'\n")

    @pytest.mark.parametrize("param", ["\u0665", "1_0", "+5"])
    def test_family_parameter_digits_are_ascii(self, capsys, param):
        assert invoke(capsys, "verify", "--family", "G", param) == (
            2, "", f"error: invalid integer {param!r}\n")

    def test_negative_integer_reaches_the_domain_check(self, capsys):
        assert invoke(capsys, "family", "gen", "G", "-3") == (
            2, "", "error: G requires gamma >= 3, got gamma = -3\n")

    def test_integer_whitespace_and_leading_zeros(self):
        assert [cli._int(t) for t in (" 7", "007", "-3", "\t-03\n")] == [7, 7, -3, -3]


# strings that need escaping: quotes, backslashes, control characters, non-ASCII
json_strings = st.text(st.sampled_from('a1 "\\/\n\t\x00\x1f\x7fé€\U0001f600'), max_size=6) | st.text()
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-10**60, 10**60) | st.floats() | json_strings)
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(json_strings, max_size=5)
                   | st.lists(json_strings | inner, max_size=5)
                   | st.dictionaries(json_strings, inner, max_size=5)),
    max_leaves=30)


class TestJsonWriter:
    @given(json_values)
    def test_matches_indent_2_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], {"": {}}, ["a", 1], [1, "a"], ["a", ["b"]],
        {"k": ["\"", "\\", "\x01", "\u00e9"]}, [True, None, -10**30],
    ])
    def test_fixtures(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("odd", ['"', "\\", "\x01", "\x7f", "\u00e9", "a\nb"])
    @pytest.mark.parametrize("at", [0, 20, 40])
    def test_one_string_to_escape_among_plain_ones(self, odd, at):
        plain = [str(k) for k in range(-20, 20)]
        value = plain[:at] + [odd] + plain[at:]
        assert _json_text(value) == json.dumps(value, indent=2)
        assert _json_text({"k": value}) == json.dumps({"k": value}, indent=2)

    @pytest.mark.parametrize("argv", [
        ("invariants", "--hn", "10001/2", "--json"),
        ("resolve", "--hn", "6/4,2/3", "--json"),
        ("resolve", "--hn", "13/4", "--json"),
        ("family", "gen", "G", "3", "--audit", "--json"),
        ("family", "enumerate", "--max-degree", "12", "--audit", "--json"),
        ("verify", "--degree", "7", "--gamma", "1", "--hn", "6/4,2/3",
         "--hn", "7/3", "--json"),
        ("ledger", "--h", "3", "--nu", "0", "--sigmas", "2,1,1",
         "--chis", "0,0,0", "--json"),
    ])
    def test_every_json_command_prints_indent_2_dumps(self, capsys, argv):
        _, out, err = invoke(capsys, *argv)
        assert err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_a_value_too_large_to_encode_prints_nothing(self, capsys, monkeypatch):
        # the audit is the last key; no earlier key may reach stdout before it fails
        real = cli._json_text

        def encode(obj, *args):
            if isinstance(obj, dict) and "checks" in obj:
                raise MemoryError
            return real(obj, *args)

        monkeypatch.setattr(cli, "_json_text", encode)
        code, out, err = invoke(capsys, "family", "gen", "G", "3", "--audit", "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: out of memory")
