"""Command line driver: each subcommand end to end, exit codes, and
run-to-run reproducibility of everything written to disk."""

import argparse
import csv
import errno
import gc
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import solbugsmith
from solbugsmith import cli, evaluator, locator
from solbugsmith.buglog import CSV_COLUMNS
from solbugsmith.cli import _COMMANDS, _build_parser, main
from solbugsmith.errors import shown
from solbugsmith.front import parse, parser
from solbugsmith.injector import inject_all
from solbugsmith.locator import find_all_potential_locations
from solbugsmith.model import BugType
from solbugsmith.pool import default_pool, load_pool, vouched

TOOLS = ["Manticore", "Mythril", "Oyente", "Securify", "SmartCheck",
         "Slither"]


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory, corpus_dir):
    root = tmp_path_factory.mktemp("corpus")
    for name in ("PiggyBank.sol", "Counter.sol"):
        (root / name).write_text(
            (corpus_dir / name).read_text(encoding="utf-8"),
            encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def injected(tmp_path_factory, mini_corpus):
    out = tmp_path_factory.mktemp("injected")
    code = main(["inject", "--corpus", str(mini_corpus), "--out", str(out),
                 "--bug-types", "Reentrancy,TxOrigin"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def reports(tmp_path_factory, injected):
    out = tmp_path_factory.mktemp("reports")
    code = main(["oracle", "--buglogs", str(injected), "--out", str(out),
                 "--miss-rate", "0.3", "--mistype-rate", "0.2",
                 "--extra-per-file", "3", "--seed", "11"])
    assert code == 0
    return out


def _one_snippet_pool(snippet_id: str, template: str) -> str:
    return json.dumps({"snippets": [
        {"id": snippet_id, "bugType": "TOD", "form": "SimpleStatement",
         "template": template}]})


class TestLocate:
    def test_summary_lists_site_counts(self, mini_corpus, capsys):
        assert main(["locate", "--corpus", str(mini_corpus / "Counter.sol"),
                     "--bug-types", "Reentrancy"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Counter.sol Reentrancy: ")
        assert out.strip().endswith("site(s)")

    def test_dump_bip_prints_profiles(self, mini_corpus, capsys):
        assert main(["locate", "--corpus", str(mini_corpus / "Counter.sol"),
                     "--bug-types", "TOD", "--dump-bip"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sourceId"] == "Counter.sol"
        assert doc["bugType"] == "TOD"
        assert doc["sites"]

    def test_dump_ast_prints_span_tree(self, mini_corpus, capsys):
        assert main(["locate", "--corpus", str(mini_corpus / "Counter.sol"),
                     "--dump-ast"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "sourceUnit"
        assert {"start", "end", "startLine", "endLine"} <= set(doc["span"])

    def test_out_writes_one_profile_per_pair(self, mini_corpus, tmp_path):
        out = tmp_path / "profiles"
        assert main(["locate", "--corpus", str(mini_corpus), "--out",
                     str(out), "--bug-types", "Reentrancy,TOD"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["Counter.Reentrancy.bip.json",
                         "Counter.TOD.bip.json",
                         "PiggyBank.Reentrancy.bip.json",
                         "PiggyBank.TOD.bip.json"]

    def test_dump_bip_with_out_prints_what_it_writes(
            self, mini_corpus, tmp_path, monkeypatch, capsys):
        """Each profile is laid out once, printed and written alike, as
        ``--out`` alone writes it."""
        types = ["--bug-types", "Reentrancy,TOD"]
        assert main(["locate", "--corpus", str(mini_corpus), "--out",
                     str(tmp_path / "alone"), *types]) == 0
        real, calls = locator.dump_profile, []

        def counting(profile):
            calls.append(profile)
            return real(profile)

        monkeypatch.setattr(locator, "dump_profile", counting)
        out = tmp_path / "both"
        assert main(["locate", "--corpus", str(mini_corpus), "--out",
                     str(out), "--dump-bip", *types]) == 0
        written = [p.read_text(encoding="utf-8")
                   for p in sorted(out.iterdir())]
        assert len(calls) == len(written) == 4
        assert capsys.readouterr().out == "".join(written)
        assert written == [p.read_text(encoding="utf-8")
                           for p in sorted((tmp_path / "alone").iterdir())]

    def test_dump_ast_with_out_writes_one_tree_per_source(
            self, mini_corpus, tmp_path, capsys):
        out = tmp_path / "trees"
        assert main(["locate", "--corpus", str(mini_corpus / "Counter.sol"),
                     "--dump-ast"]) == 0
        printed = capsys.readouterr().out
        assert main(["locate", "--corpus", str(mini_corpus), "--dump-ast",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "Counter.ast.json", "PiggyBank.ast.json"]
        assert (out / "Counter.ast.json").read_text(encoding="utf-8") \
            == printed

    def test_an_empty_bug_type_item_is_skipped(self, mini_corpus, capsys):
        assert main(["locate", "--corpus", str(mini_corpus / "Counter.sol"),
                     "--bug-types", "TOD,,Reentrancy,TOD"]) == 0
        assert [line.split(":")[0] for line in
                capsys.readouterr().out.splitlines()] == [
            "Counter.sol TOD", "Counter.sol Reentrancy"]


class TestInject:
    def test_writes_source_log_and_csv_per_pair(self, injected, capsys):
        names = sorted(p.name for p in injected.iterdir())
        for stem in ("Counter.Reentrancy", "Counter.TxOrigin",
                     "PiggyBank.Reentrancy", "PiggyBank.TxOrigin"):
            assert f"{stem}.sol" in names
            assert f"{stem}.buglog.json" in names
            assert f"{stem}.buglog.csv" in names
        assert len(names) == 12

    def test_buglog_csv_has_the_documented_columns(self, injected):
        csv = (injected / "Counter.Reentrancy.buglog.csv").read_text()
        assert csv.split("\n")[0] == ",".join(CSV_COLUMNS)

    def test_reruns_are_byte_identical(self, mini_corpus, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for target in dirs:
            assert main(["inject", "--corpus", str(mini_corpus),
                         "--out", str(target),
                         "--bug-types", "UncheckedSend,TOD",
                         "--counter-start", "5"]) == 0
        capsys.readouterr()
        first = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
        second = {p.name: p.read_bytes() for p in dirs[1].iterdir()}
        assert first == second

    def test_broken_file_fails_but_others_still_written(
            self, mini_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "Good.sol").write_text(
            (mini_corpus / "Counter.sol").read_text())
        (corpus / "Broken.sol").write_text("contract Broken { function }")
        out = tmp_path / "out"
        code = main(["inject", "--corpus", str(corpus), "--out", str(out),
                     "--bug-types", "Reentrancy"])
        captured = capsys.readouterr()
        assert code == 2
        assert "Broken.Reentrancy.sol" in captured.err
        assert (out / "Good.Reentrancy.sol").is_file()

    def test_output_failing_validation_is_that_pairs_failure(
            self, mini_corpus, tmp_path, unbalancing_pool_text, capsys):
        pool = tmp_path / "pool.json"
        pool.write_text(unbalancing_pool_text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["inject", "--corpus", str(mini_corpus / "Counter.sol"),
                     "--out", str(out), "--pool", str(pool),
                     "--bug-types", "IntegerOverflowUnderflow,TOD"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Counter.IntegerOverflowUnderflow.sol: output failed " \
               "validation at line 11: expected ')', found '('" in err
        assert sorted(p.name for p in out.iterdir()) == [
            "Counter.TOD.buglog.csv", "Counter.TOD.buglog.json",
            "Counter.TOD.sol"]


class TestOracle:
    def test_writes_report_and_truth_per_tool(self, reports, capsys):
        names = sorted(p.name for p in reports.iterdir())
        assert names == sorted([f"{t}.report.json" for t in TOOLS]
                               + [f"{t}.truth.json" for t in TOOLS])
        doc = json.loads((reports / "Mythril.report.json").read_text())
        assert doc["tool"] == "Mythril"
        assert isinstance(doc["findings"], list)

    def test_truth_ids_come_from_the_bug_logs(self, reports, injected):
        logged = set()
        for path in injected.glob("*.buglog.json"):
            logged |= {e["bugId"] for e in json.loads(path.read_text())}
        truth = json.loads((reports / "Mythril.truth.json").read_text())
        assert set(truth["missed"]) <= logged
        assert {m["bugId"] for m in truth["mistyped"]} <= logged

    def test_seed_reproduces_reports(self, injected, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for target in dirs:
            assert main(["oracle", "--buglogs", str(injected),
                         "--out", str(target), "--miss-rate", "0.5",
                         "--seed", "99"]) == 0
        capsys.readouterr()
        first = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
        second = {p.name: p.read_bytes() for p in dirs[1].iterdir()}
        assert first == second


class TestEvaluate:
    def test_writes_all_four_documents(self, injected, reports, tmp_path,
                                       capsys):
        out = tmp_path / "eval"
        assert main(["evaluate", "--buglogs", str(injected),
                     "--reports", str(reports), "--out", str(out),
                     "--seed", "11"]) == 0
        assert {p.name for p in out.iterdir()} == {
            "fn_report.md", "fp_report.md", "fn_scores.csv", "fp_cells.csv"}
        fn_rows = (out / "fn_scores.csv").read_text().strip().split("\n")
        assert fn_rows[0] == \
            "tool,bugType,injected,detected,misidentified,unreported,cell"
        fp_rows = (out / "fp_cells.csv").read_text().strip().split("\n")
        assert fp_rows[0] == \
            "tool,bugType,threshold,reported,filtered,estimated"

    def test_scores_partition_per_row(self, injected, reports, tmp_path,
                                      capsys):
        out = tmp_path / "eval"
        main(["evaluate", "--buglogs", str(injected), "--reports",
              str(reports), "--out", str(out), "--seed", "11"])
        capsys.readouterr()
        rows = (out / "fn_scores.csv").read_text().strip().split("\n")[1:]
        assert rows
        for row in rows:
            _, _, injected_n, detected, misidentified, unreported, _ = \
                row.split(",")
            assert int(detected) + int(misidentified) + int(unreported) \
                == int(injected_n)

    def test_rows_respect_tool_capabilities(self, injected, reports,
                                            tmp_path, capabilities, capsys):
        out = tmp_path / "eval"
        main(["evaluate", "--buglogs", str(injected), "--reports",
              str(reports), "--out", str(out), "--seed", "11"])
        capsys.readouterr()
        rows = [r.split(",") for r in
                (out / "fn_scores.csv").read_text().strip().split("\n")[1:]]
        listed = {(r[0], r[1]) for r in rows}
        for tool in capabilities:
            assert len({t for n, t in listed if n == tool}) == 7
        for tool, type_name, injected_n, *_, cell in rows:
            capable = any(bt.value == type_name
                          for bt in capabilities[tool])
            if not capable:
                assert cell == "NA"
            elif type_name in ("Reentrancy", "TxOrigin"):
                assert int(injected_n) > 0 and cell != "NA"
            else:  # capable but nothing of this type was planted
                assert injected_n == "0" and cell == "NA"

    def test_repeated_bug_ids_are_scored_within_their_file(
            self, corpus_dir, tmp_path, capsys):
        # Both snippets declare bug{N}, so Counter.Reentrancy.sol and
        # Counter.TOD.sol log the same bug ids under different types.
        pool = {"snippets": [
            {"id": "re-bug", "bugType": "Reentrancy",
             "form": "FunctionDefinition",
             "template": "function bug{N}() public {\n"
                         "  msg.sender.call.value(1)(\"\");\n}"},
            {"id": "tod-bug", "bugType": "TOD", "form": "FunctionDefinition",
             "template": "function bug{N}() public {\n"
                         "  winner_tod = msg.sender;\n}",
             "requiredContext": ["address payable winner_tod;"]}]}
        (tmp_path / "pool.json").write_text(json.dumps(pool),
                                            encoding="utf-8")
        buggy, reports, out = (tmp_path / d for d in ("b", "r", "e"))
        assert main(["inject", "--corpus", str(corpus_dir / "Counter.sol"),
                     "--out", str(buggy), "--bug-types", "Reentrancy,TOD",
                     "--pool", str(tmp_path / "pool.json")]) == 0
        assert main(["oracle", "--buglogs", str(buggy), "--out", str(reports),
                     "--miss-rate", "0.5", "--seed", "3"]) == 0
        assert main(["evaluate", "--buglogs", str(buggy), "--reports",
                     str(reports), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [r.split(",") for r in
                (out / "fn_scores.csv").read_text().strip().split("\n")[1:]]
        for tool in ("Oyente", "Securify"):  # capable of both types
            mine = [r for r in rows if r[0] == tool and int(r[2])]
            assert {r[1] for r in mine} == {"Reentrancy", "TOD"}
            for row in mine:
                injected_n, detected, misidentified, unreported = \
                    map(int, row[2:6])
                assert detected + misidentified + unreported == injected_n
            truth = json.loads((reports / f"{tool}.truth.json").read_text())
            assert sum(int(r[5]) for r in mine) == len(truth["missed"])

    def test_slack_wider_than_the_file_scores_without_a_traceback(
            self, tmp_path, capsys):
        # Every finding lies in every entry's widened range, so all 2000
        # entries are open at each of the 2000 findings, more than the
        # interpreter's recursion limit. The findings sit on distinct
        # lines; a matcher that rescans the open entries at each finding
        # is quadratic or worse, while the two sweeps pop each entry from
        # a heap once.
        n = 2000
        buggy, reports, out = (tmp_path / d for d in ("b", "r", "e"))
        buggy.mkdir()
        reports.mkdir()
        (buggy / "Deep.buglog.json").write_text(json.dumps([
            {"bugId": f"b{i}", "bugType": "TOD", "approach": "FullSnippet",
             "snippetId": None, "file": "Deep.sol", "startLine": i,
             "endLine": i, "byteSpan": {"start": 0, "end": 1}}
            for i in range(1, n + 1)]), encoding="utf-8")
        (reports / "Oyente.report.json").write_text(json.dumps(
            {"tool": "Oyente", "findings": [
                {"file": "Deep.sol", "line": i, "type": "TOD"}
                for i in range(1, n + 1)]}),
            encoding="utf-8")
        caps = tmp_path / "caps.json"
        caps.write_text('{"Oyente": ["TOD"]}', encoding="utf-8")
        started = time.perf_counter()
        assert main(["evaluate", "--buglogs", str(buggy), "--reports",
                     str(reports), "--capabilities", str(caps), "--out",
                     str(out), "--line-slack", "100000"]) == 0
        assert time.perf_counter() - started < 15
        assert "Traceback" not in capsys.readouterr().err
        assert f"Oyente,TOD,{n},{n},0,0," in \
            (out / "fn_scores.csv").read_text(encoding="utf-8")

    def test_csv_rows_have_the_header_width(self, injected, tmp_path, capsys):
        caps = tmp_path / "caps.json"
        caps.write_text(json.dumps({"Slither, v2": ["Reentrancy", "TxOrigin"],
                                    "Mythril": ["Reentrancy"]}),
                        encoding="utf-8")
        reports, out = tmp_path / "reports", tmp_path / "out"
        assert main(["oracle", "--buglogs", str(injected),
                     "--out", str(reports), "--capabilities", str(caps),
                     "--extra-per-file", "3", "--seed", "1"]) == 0
        assert main(["evaluate", "--buglogs", str(injected),
                     "--reports", str(reports), "--capabilities", str(caps),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        for name in ("fn_scores.csv", "fp_cells.csv"):
            with open(out / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert rows, name
            assert {len(row) for row in rows} == {len(header)}, name
            assert {row[0] for row in rows} == {"Mythril", "Slither, v2"}

    def test_tool_with_no_findings_is_scored(self, corpus_dir, tmp_path,
                                             capsys):
        buggy, reports, out = (tmp_path / d for d in ("b", "r", "e"))
        assert main(["inject", "--corpus", str(corpus_dir / "Counter.sol"),
                     "--out", str(buggy), "--bug-types", "TOD"]) == 0
        assert main(["oracle", "--buglogs", str(buggy), "--out", str(reports),
                     "--seed", "1"]) == 0
        report = reports / "Oyente.report.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        report.write_text(json.dumps({**doc, "findings": []}),
                          encoding="utf-8")
        confirmed = tmp_path / "confirmed.json"
        confirmed.write_text('{"Oyente": {"TOD": 0}}', encoding="utf-8")
        assert main(["evaluate", "--buglogs", str(buggy), "--reports",
                     str(reports), "--out", str(out),
                     "--confirmed", str(confirmed)]) == 0
        capsys.readouterr()
        rows = [r.split(",") for r in
                (out / "fn_scores.csv").read_text().strip().split("\n")[1:]]
        assert {r[0] for r in rows} == set(TOOLS)
        injected_n = len(json.loads(
            (buggy / "Counter.TOD.buglog.json").read_text()))
        (oyente,) = [r for r in rows if r[:2] == ["Oyente", "TOD"]]
        assert oyente[2:6] == [str(injected_n), "0", "0", str(injected_n)]
        assert "Oyente" in (out / "fn_report.md").read_text()

    def test_empty_report_is_filed_under_its_documents_tool(
            self, corpus_dir, tmp_path, capsys):
        buggy, reports, out = (tmp_path / d for d in ("b", "r", "e"))
        assert main(["inject", "--corpus", str(corpus_dir / "Counter.sol"),
                     "--out", str(buggy), "--bug-types", "TOD"]) == 0
        assert main(["oracle", "--buglogs", str(buggy), "--out", str(reports),
                     "--seed", "1"]) == 0
        (reports / "Oyente.report.json").unlink()
        (reports / "renamed.report.json").write_text(
            json.dumps({"tool": "Oyente", "findings": []}), encoding="utf-8")
        assert main(["evaluate", "--buglogs", str(buggy), "--reports",
                     str(reports), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [r.split(",") for r in
                (out / "fn_scores.csv").read_text().strip().split("\n")[1:]]
        assert {r[0] for r in rows} == set(TOOLS)
        injected_n = len(json.loads(
            (buggy / "Counter.TOD.buglog.json").read_text()))
        (oyente,) = [r for r in rows if r[:2] == ["Oyente", "TOD"]]
        assert oyente[2:6] == [str(injected_n), "0", "0", str(injected_n)]
        assert "Oyente" in (out / "fp_report.md").read_text()

    def test_capability_tool_without_report_is_named(self, injected, reports,
                                                     tmp_path, capsys):
        partial, out = tmp_path / "reports", tmp_path / "out"
        shutil.copytree(reports, partial)
        (partial / "Oyente.report.json").unlink()
        argv = ["evaluate", "--buglogs", str(injected), "--reports",
                str(partial), "--out", str(out), "--seed", "11"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert "partial results" in err[0]
        assert [line for line in err if "Oyente" in line] == [
            f"  {partial}: no report for tool(s) in the capabilities file: "
            "'Oyente'"]
        rows = (out / "fn_scores.csv").read_text().strip().split("\n")[1:]
        assert {r.split(",")[0] for r in rows} == set(TOOLS) - {"Oyente"}
        # a report that names its tool may sit under any file name
        shutil.copy(reports / "Oyente.report.json",
                    partial / "renamed.report.json")
        assert main(argv) == 0
        capsys.readouterr()
        # a report that exists but does not ingest is named once, as before
        (partial / "Mythril.report.json").write_bytes(b"\xff")
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if "Mythril" in line]) == 1

    def test_without_out_prints_both_tables(self, injected, reports, capsys):
        assert main(["evaluate", "--buglogs", str(injected),
                     "--reports", str(reports), "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "| Bug type | " in out
        assert "(Reported/FIL/FP)" in out
        assert "Miscellaneous" in out


class TestExitCodes:
    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["locate"])
        assert err.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_bug_type_exits_one(self, mini_corpus, capsys):
        assert main(["locate", "--corpus", str(mini_corpus),
                     "--bug-types", "Nonsense"]) == 1
        assert "Nonsense" in capsys.readouterr().err

    def test_empty_bug_type_list_exits_one(self, mini_corpus, capsys):
        assert main(["locate", "--corpus", str(mini_corpus),
                     "--bug-types", ""]) == 1
        capsys.readouterr()

    def test_missing_corpus_path_exits_one(self, tmp_path, capsys):
        assert main(["locate", "--corpus", str(tmp_path / "nope")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, names", [
        ("inject", ["Broken.Reentrancy.sol", "Broken.TxOrigin.sol",
                    "Odd.Reentrancy.sol", "Odd.TxOrigin.sol"]),
        ("locate", ["Broken.sol (Reentrancy)", "Broken.sol (TxOrigin)",
                    "Odd.sol (Reentrancy)", "Odd.sol (TxOrigin)"]),
    ])
    def test_unparsable_source_fails_once_per_bug_type(
            self, command, names, mini_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(mini_corpus / "Counter.sol", corpus / "Good.sol")
        (corpus / "Broken.sol").write_text("contract Broken { function }")
        (corpus / "Odd.sol").write_text('contract Odd { string s = "open; }')
        code = main([command, "--corpus", str(corpus), "--out",
                     str(tmp_path / "out"), "--bug-types",
                     "Reentrancy,TxOrigin"])
        reasons = ["1:28: expected function name, found '}'"] * 2 \
            + ["1:27: unterminated string literal"] * 2
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "4 failure(s):",
            *(f"  {name}: {reason}" for name, reason in zip(names, reasons))]

    @pytest.mark.parametrize("command", ["locate", "inject"])
    def test_sol_free_corpus_exits_one(self, command, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "notes.txt").write_text("not a contract", encoding="utf-8")
        assert main([command, "--corpus", str(corpus), "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"solbugsmith {command}: error: no *.sol files in {corpus}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under"])
    @pytest.mark.parametrize("command", ["locate", "inject", "oracle",
                                         "evaluate"])
    def test_an_out_path_at_or_under_a_file_exits_one(
            self, command, under, mini_corpus, injected, reports, tmp_path,
            monkeypatch, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "x" if under else tmp_path / "file"
        inputs = {"locate": ["--corpus", mini_corpus],
                  "inject": ["--corpus", mini_corpus],
                  "oracle": ["--buglogs", injected],
                  "evaluate": ["--buglogs", injected, "--reports", reports]}
        # evaluate checks --out before it scores anything
        monkeypatch.setattr(evaluator, "evaluate_campaign", None)
        assert main([command, *map(str, inputs[command]),
                     "--out", str(out)]) == 1
        strerror = os.strerror(errno.ENOTDIR if under else errno.EEXIST)
        assert capsys.readouterr().err.splitlines() == [
            f"solbugsmith {command}: error: cannot make directory {out}: "
            f"{strerror}"]

    @pytest.mark.parametrize("command, blocked, others, said", [
        ("locate", "Counter.Reentrancy.bip.json",
         ["Counter.TxOrigin.bip.json", "PiggyBank.Reentrancy.bip.json"], ""),
        ("inject", "Counter.Reentrancy.buglog.csv",
         ["Counter.TxOrigin.sol", "PiggyBank.Reentrancy.buglog.csv"],
         "wrote 3 buggy file(s), "),
        ("oracle", "Slither.report.json",
         ["Oyente.report.json", "Oyente.truth.json"],
         "wrote reports for 5 tool(s) over 4 file(s)\n"),
        ("evaluate", "fn_report.md", ["fp_report.md", "fp_cells.csv"], ""),
    ])
    def test_an_output_that_cannot_be_written_fails_that_file(
            self, command, blocked, others, said, mini_corpus, injected,
            reports, tmp_path, capsys):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        types = ["--bug-types", "Reentrancy,TxOrigin"]
        inputs = {"locate": ["--corpus", mini_corpus, *types],
                  "inject": ["--corpus", mini_corpus, *types],
                  "oracle": ["--buglogs", injected],
                  "evaluate": ["--buglogs", injected, "--reports", reports]}
        assert main([command, *map(str, inputs[command]),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "1 failure(s):",
            f"  {blocked}: cannot write: {os.strerror(errno.EISDIR)}"]
        # stdout counts only what was written
        assert captured.out.startswith(said) and (said or not captured.out)
        assert all((out / name).is_file() for name in others)
        if command == "inject":  # no buggy file stays without both its logs
            assert not (out / "Counter.Reentrancy.sol").exists()
            assert not (out / "Counter.Reentrancy.buglog.json").exists()
        if command == "oracle":  # a tool stops at its first unwritten file
            assert not (out / "Slither.truth.json").exists()

    @pytest.mark.parametrize("reader", ["source", "buglog", "report",
                                        "truth"])
    def test_an_input_that_cannot_be_read_says_why(
            self, reader, mini_corpus, injected, reports, tmp_path, capsys):
        corpus, buggy, found = (tmp_path / d for d in ("c", "b", "r"))
        for source, copy in ((mini_corpus, corpus), (injected, buggy),
                             (reports, found)):
            shutil.copytree(source, copy)
        blocked = {"source": corpus / "Broken.sol",
                   "buglog": buggy / "Broken.buglog.json",
                   "report": found / "Slither.report.json",
                   "truth": found / "Slither.truth.json"}[reader]
        if blocked.exists():
            blocked.unlink()
        blocked.mkdir()
        if reader == "source":
            argv = ["inject", "--corpus", corpus, "--bug-types", "Reentrancy"]
        else:
            argv = ["evaluate", "--buglogs", buggy, "--reports", found]
        assert main([*map(str, argv), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        why = f"cannot read: {os.strerror(errno.EISDIR)}"
        if reader in ("source", "report"):  # a per-file failure
            assert err[-2:] == ["1 failure(s):", f"  {blocked.name}: {why}"]
        else:  # the campaign cannot be scored without it
            assert err == [f"solbugsmith {argv[0]}: error: {blocked}: {why}"]

    def test_buglog_free_directory_exits_one(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["oracle", "--buglogs", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "buglog" in capsys.readouterr().err

    def test_report_free_directory_names_expected_tools(self, injected,
                                                        tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["evaluate", "--buglogs", str(injected),
                     "--reports", str(tmp_path / "empty")]) == 1
        err = capsys.readouterr().err
        assert "Mythril" in err and "Slither" in err

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--counter-start", "-5"], "--counter-start",
                     id="negative-counter-start"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--line-slack", "-1"], "--line-slack",
                     id="negative-line-slack"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--sample-size", "-1"], "--sample-size",
                     id="negative-sample-size"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--pool", "{tmp}/missing.json"], "missing.json",
                     id="missing-pool"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--pool", "{tmp}/bad.json"], "bad.json",
                     id="invalid-pool-json"),
        pytest.param(["oracle", "--buglogs", "{tmp}", "--out", "{tmp}/out",
                      "--capabilities", "{tmp}/missing.json"], "missing.json",
                     id="missing-capabilities"),
        pytest.param(["oracle", "--buglogs", "{tmp}", "--out", "{tmp}/out",
                      "--capabilities", "{tmp}/bad.json"], "bad.json",
                     id="invalid-capabilities-json"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--confirmed", "{tmp}/missing.json"], "missing.json",
                     id="missing-confirmed"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--confirmed", "{tmp}/bad.json"], "bad.json",
                     id="invalid-confirmed-json"),
        pytest.param(["oracle", "--buglogs", "{tmp}", "--out", "{tmp}/out",
                      "--miss-rate", "2"], "miss rate",
                     id="oracle-rate-out-of-range"),
        pytest.param(["oracle", "--buglogs", "{tmp}", "--out", "{tmp}/out",
                      "--capabilities", "{tmp}/caps_list.json"],
                     "caps_list.json: expected a JSON object",
                     id="capabilities-not-an-object"),
        pytest.param(["oracle", "--buglogs", "{tmp}", "--out", "{tmp}/out",
                      "--capabilities", "{tmp}/caps_str.json"],
                     "caps_str.json: expected a JSON object",
                     id="capabilities-tool-maps-to-string"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--confirmed", "{tmp}/confirmed_int.json"],
                     "confirmed_int.json: expected a JSON object",
                     id="confirmed-tool-maps-to-int"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--confirmed", "{tmp}/confirmed_str.json"],
                     "confirmed_str.json: expected a JSON object",
                     id="confirmed-count-not-an-integer"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/untruthed",
                      "--confirmed", "{tmp}/confirmed_big.json"],
                     "confirmed_big.json: Slither TxOrigin: confirmed count 999",
                     id="confirmed-count-beyond-sample"),
        pytest.param(["oracle", "--buglogs", "{injected}",
                      "--out", "{tmp}/out",
                      "--capabilities", "{tmp}/caps_empty.json"],
                     "caps_empty.json: expected a JSON object mapping each "
                     "tool to a non-empty list",
                     id="oracle-empty-capability-list"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{reports}",
                      "--capabilities", "{tmp}/caps_empty.json"],
                     "caps_empty.json: expected a JSON object mapping each "
                     "tool to a non-empty list",
                     id="evaluate-empty-capability-list"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--pool", "{tmp}/pool_lex.json"],
                     "pool_lex.json: bad-char: template does not parse:",
                     id="snippet-with-illegal-character"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--pool", "{tmp}/pool_surrogate.json"],
                     "pool_surrogate.json: surrogate: template does not "
                     "parse:",
                     id="snippet-with-lone-surrogate"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/untruthed",
                      "--confirmed", "{tmp}/confirmed_type.json"],
                     "confirmed_type.json: Slither: unknown bug type: "
                     "'TxOrigin '",
                     id="confirmed-unknown-bug-type"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/untruthed",
                      "--confirmed", "{tmp}/confirmed_tool.json"],
                     "confirmed_tool.json: confirmed counts for tool(s) not "
                     "evaluated: 'Slitherr'",
                     id="confirmed-tool-not-evaluated"),
        *(pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                        "--pool", f"{{tmp}}/pool_{section}.json"],
                       f"pool_{section}.json: <document>: {section} must be "
                       "a list", id=f"pool-{section}-not-a-list")
          for section in ("snippets", "transforms", "weakenings")),
        *(pytest.param(["locate", "--corpus", "{tmp}",
                        "--pool", f"{{tmp}}/pool_shape_{kind}.json"],
                       f"pool_shape_{kind}.json: <weakening #0>: unknown "
                       "guard shape:", id=f"pool-guard-shape-{kind}")
          for kind in ("list", "object")),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--pool", "{tmp}/pool_cr_id.json"],
                     "pool_cr_id.json: <snippet>: id 'cr\\rX' is not "
                     "printable", id="pool-snippet-id-unprintable"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--pool", "{tmp}/pool_weakening_twice.json"],
                     "pool_weakening_twice.json: <weakening #1>: duplicate "
                     "bugType and guardShape", id="pool-weakening-twice"),
        pytest.param(["oracle", "--buglogs", "{injected}",
                      "--out", "{tmp}/out",
                      "--capabilities", "{tmp}/caps_surrogate.json"],
                     "caps_surrogate.json: tool name '\\ud800' cannot name",
                     id="capability-tool-name-unencodable"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{reports}",
                      "--capabilities", "{tmp}/caps_slash.json"],
                     "caps_slash.json: tool name '../Slither' cannot name",
                     id="capability-tool-name-with-slash"),
        pytest.param(["locate", "--corpus", "{tmp}", "--seed", "1"],
                     "unrecognized arguments: --seed 1", id="locate-seed"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--pool", "{tmp}/deep.json"], "deep.json: <document>",
                     id="pool-nested-too-deeply"),
        pytest.param(["oracle", "--buglogs", "{tmp}", "--out", "{tmp}/out",
                      "--capabilities", "{tmp}/deep.json"], "deep.json: max",
                     id="capabilities-nested-too-deeply"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--confirmed", "{tmp}/deep.json"], "deep.json: max",
                     id="confirmed-nested-too-deeply"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--seed", "1"],
                     "unrecognized arguments: --seed 1", id="inject-seed"),
        pytest.param(["oracle", "--buglogs", "{tmp}/missing", "--out",
                      "{tmp}/out"],
                     "buglog directory does not exist: ",
                     id="oracle-missing-buglogs"),
        pytest.param(["evaluate", "--buglogs", "{tmp}/missing", "--reports",
                      "{reports}"],
                     "buglog directory does not exist: ",
                     id="evaluate-missing-buglogs"),
        pytest.param(["evaluate", "--buglogs", "{injected}", "--reports",
                      "{tmp}/missing"],
                     "reports directory does not exist: ",
                     id="evaluate-missing-reports"),
        pytest.param(["inject", "--corpus", "{tmp}", "--out", "{tmp}/out",
                      "--counter-start", "x"],
                     "--counter-start: expected an integer >= 0, got 'x'",
                     id="non-integer-counter-start"),
        pytest.param(["evaluate", "--buglogs", "{tmp}", "--reports", "{tmp}",
                      "--line-slack", "1.5"],
                     "--line-slack: expected an integer >= 0, got '1.5'",
                     id="non-integer-line-slack"),
    ])
    def test_bad_flag_or_config_file_exits_one_with_one_line(
            self, argv, named, tmp_path, injected, reports, capsys):
        for name, text in {
                "bad.json": "{not json",
                "deep.json": "[" * 200_000,
                "caps_list.json": '["Reentrancy"]',
                "caps_str.json": '{"Slither": "Reentrancy"}',
                "confirmed_int.json": '{"Slither": 3}',
                "confirmed_str.json": '{"Slither": {"TxOrigin": "x"}}',
                "confirmed_big.json": '{"Slither": {"TxOrigin": 999}}',
                "confirmed_type.json": '{"Slither": {"TxOrigin ": 0}}',
                "confirmed_tool.json": '{"Slitherr": {"TxOrigin": 0}}',
                "caps_empty.json": '{"Mythril": ["TOD"], "Slither": []}',
                "pool_lex.json": _one_snippet_pool("bad-char",
                                                   "uint a{N} = 1 # 2;"),
                "pool_surrogate.json": _one_snippet_pool(
                    "surrogate", "uint a{N} = \ud800;"),
                "pool_cr_id.json": _one_snippet_pool("cr\rX",
                                                     "uint a{N} = 1;"),
                "caps_surrogate.json": '{"\\ud800": ["TOD"]}',
                "caps_slash.json": '{"../Slither": ["TOD"]}',
                "pool_snippets.json": '{"snippets": 3}',
                "pool_transforms.json": '{"transforms": null}',
                "pool_weakenings.json": '{"weakenings": true}',
                "pool_shape_list.json": json.dumps({"weakenings": [
                    {"bugType": "TOD", "guardShape": ["guardedSendRevert"]}]}),
                "pool_shape_object.json": json.dumps({"weakenings": [
                    {"bugType": "TOD", "guardShape": {}}]}),
                "pool_weakening_twice.json": json.dumps({"weakenings": [
                    {"bugType": "UnhandledException",
                     "guardShape": "guardedSendRevert"}] * 2})}.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        # reports without truth files, so that --confirmed counts are used
        (tmp_path / "untruthed").mkdir()
        for path in reports.glob("*.report.json"):
            shutil.copy(path, tmp_path / "untruthed")
        try:
            code = main([arg.format(tmp=tmp_path, injected=injected,
                                    reports=reports) for arg in argv])
        except SystemExit as exit_:  # argparse rejected a flag
            code = exit_.code
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert named in err
        assert "Traceback" not in err

    def test_a_long_tool_key_is_cut_in_a_confirmed_count_error(
            self, tmp_path, injected, reports, capsys):
        confirmed = tmp_path / "confirmed.json"
        confirmed.write_text(json.dumps({"S" * 10_000: {"TxOrigin ": 0}}),
                             encoding="utf-8")
        assert main(["evaluate", "--buglogs", str(injected), "--reports",
                     str(reports), "--confirmed", str(confirmed)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert len(line) <= 300
        assert line.endswith("S" * 97 + "...: unknown bug type: 'TxOrigin '")

    def test_report_faults_name_the_finding_or_the_json_line(
            self, injected, reports, tmp_path, capsys):
        # a finding's fault names its index, a JSON syntax error its line,
        # and a fault of the whole document no place at all
        bad = tmp_path / "reports"
        shutil.copytree(reports, bad)
        (bad / "Slither.report.json").write_text(json.dumps([
            {"file": "a.sol", "line": 3, "type": "TOD"},
            {"file": "a.sol", "type": "TOD"}]), encoding="utf-8")
        (bad / "Mythril.report.json").write_text(
            '{"tool": "Mythril",\n "findings": [}', encoding="utf-8")
        (bad / "Oyente.report.json").write_text('{"tool": "Oyente"}',
                                                encoding="utf-8")
        assert main(["evaluate", "--buglogs", str(injected), "--reports",
                     str(bad)]) == 2
        err = capsys.readouterr().err
        named = {line.split(":")[0].strip(): line.strip()
                 for line in err.splitlines() if ".report.json:" in line}
        assert named == {
            "Mythril.report.json": "Mythril.report.json: line 2: not valid "
                                   "JSON: Expecting value",
            "Oyente.report.json": "Oyente.report.json: report must be a JSON "
                                  "array of findings or an object with a "
                                  "findings array",
            "Slither.report.json": "Slither.report.json: finding 2: line "
                                   "must be a positive integer, got None"}
        assert "line 0" not in err

    def test_an_entry_past_the_end_of_its_file_fails_that_file(
            self, injected, tmp_path, capsys):
        buglogs = tmp_path / "buglogs"
        shutil.copytree(injected, buglogs)
        log = buglogs / "Counter.TxOrigin.buglog.json"
        entries = json.loads(log.read_text(encoding="utf-8"))
        entries[0]["endLine"] = 10 ** 9
        log.write_text(json.dumps(entries), encoding="utf-8")
        lines = len((buglogs / "Counter.TxOrigin.sol").read_text(
            encoding="utf-8").splitlines())
        out = tmp_path / "out"
        code = main(["oracle", "--buglogs", str(buglogs), "--out", str(out),
                     "--extra-per-file", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "1 failure(s):", f"  Counter.TxOrigin.sol: entry "
            f"{entries[0]['bugId']!r} ends at line 1000000000, past the "
            f"file's {lines} line(s)"]
        assert captured.out == "wrote reports for 6 tool(s) over 3 file(s)\n"
        for tool in TOOLS:
            report = json.loads((out / f"{tool}.report.json").read_text(
                encoding="utf-8"))
            assert {f["file"] for f in report["findings"]} <= {
                "Counter.Reentrancy.sol", "PiggyBank.Reentrancy.sol",
                "PiggyBank.TxOrigin.sol"}

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["inject", "--corpus", "{tmp}/corpus", "--out",
                      "{tmp}/out", "--bug-types", "Reentrancy"], "Bad.sol",
                     id="inject-non-utf8-source"),
        pytest.param(["locate", "--corpus", "{tmp}/corpus",
                      "--bug-types", "Reentrancy"], "Bad.sol",
                     id="locate-non-utf8-source"),
        pytest.param(["evaluate", "--buglogs", "{tmp}/buglogs",
                      "--reports", "{reports}"], "PiggyBank.Reentrancy.buglog.json",
                     id="buglog-without-byte-span"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/reports"], "Slither.truth.json",
                     id="truth-file-holding-a-list"),
        pytest.param(["oracle", "--buglogs", "{tmp}/reversed",
                      "--out", "{tmp}/out"], "Counter.TxOrigin.buglog.json",
                     id="oracle-buglog-with-reversed-lines"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/latin1"], "Oyente.report.json",
                     id="report-not-utf8"),
        pytest.param(["evaluate", "--buglogs", "{tmp}/reversed",
                      "--reports", "{reports}"], "Counter.TxOrigin.buglog.json",
                     id="evaluate-buglog-with-reversed-lines"),
        pytest.param(["oracle", "--buglogs", "{tmp}/elsewhere",
                      "--out", "{tmp}/out"], "Counter.TxOrigin.buglog.json",
                     id="oracle-buglog-naming-another-file"),
        pytest.param(["evaluate", "--buglogs", "{tmp}/elsewhere",
                      "--reports", "{reports}"], "Counter.TxOrigin.buglog.json",
                     id="evaluate-buglog-naming-another-file"),
        pytest.param(["inject", "--corpus", "{tmp}/deepsource", "--out",
                      "{tmp}/out", "--bug-types", "Reentrancy"],
                     "Deep.Reentrancy.sol", id="inject-deeply-nested-source"),
        pytest.param(["oracle", "--buglogs", "{tmp}/deeplog",
                      "--out", "{tmp}/out"], "Counter.TxOrigin.buglog.json",
                     id="buglog-nested-too-deeply"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/deepreport"], "Oyente.report.json",
                     id="report-nested-too-deeply"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/deeptruth"], "Slither.truth.json",
                     id="truth-file-nested-too-deeply"),
        pytest.param(["inject", "--corpus", "{tmp}/unprintable", "--out",
                      "{tmp}/out", "--bug-types", "Reentrancy"],
                     "'Cou\\rnter.sol': a file name with an unprintable",
                     id="inject-unprintable-file-name"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/twotruths"],
                     "Slither.truth.json: malformed truth file: its tool is "
                     "'Mythril', not 'Slither'",
                     id="two-truth-files-for-one-tool"),
        pytest.param(["evaluate", "--buglogs", "{injected}",
                      "--reports", "{tmp}/mistruth"],
                     "Slither.truth.json: malformed truth file: its tool is "
                     "'Mythril', not 'Slither'",
                     id="truth-file-naming-another-tool"),
    ])
    def test_bad_input_file_exits_two_naming_it(
            self, argv, named, tmp_path, mini_corpus, injected, reports,
            capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "Bad.sol").write_bytes(b"contract Bad { \xff }")
        shutil.copy(mini_corpus / "Counter.sol", corpus / "Good.sol")
        shutil.copytree(injected, tmp_path / "buglogs")
        log = tmp_path / "buglogs" / "PiggyBank.Reentrancy.buglog.json"
        entries = json.loads(log.read_text(encoding="utf-8"))
        del entries[0]["byteSpan"]
        log.write_text(json.dumps(entries), encoding="utf-8")
        shutil.copytree(injected, tmp_path / "reversed")
        log = tmp_path / "reversed" / "Counter.TxOrigin.buglog.json"
        entries = json.loads(log.read_text(encoding="utf-8"))
        entries[0]["startLine"], entries[0]["endLine"] = 9, 3
        log.write_text(json.dumps(entries), encoding="utf-8")
        shutil.copytree(injected, tmp_path / "elsewhere")
        log = tmp_path / "elsewhere" / "Counter.TxOrigin.buglog.json"
        entries = json.loads(log.read_text(encoding="utf-8"))
        entries[-1]["file"] = "Counter.sol"
        log.write_text(json.dumps(entries), encoding="utf-8")
        shutil.copytree(reports, tmp_path / "reports")
        (tmp_path / "reports" / "Slither.truth.json").write_text(
            "[]", encoding="utf-8")
        shutil.copytree(reports, tmp_path / "latin1")
        (tmp_path / "latin1" / "Oyente.report.json").write_bytes(b"\xff[]")
        # brackets nested deeper than the parser's or the JSON decoder's
        # recursion goes, each beside files that read
        (tmp_path / "deepsource").mkdir()
        (tmp_path / "deepsource" / "Deep.sol").write_text(
            "contract Deep {\n  function f() public {\n    uint x = "
            + "(" * 5000 + "1" + ")" * 5000 + ";\n  }\n}\n")
        shutil.copy(mini_corpus / "Counter.sol",
                    tmp_path / "deepsource" / "Good.sol")
        for name, source, deep_file in (
                ("deeplog", injected, "Counter.TxOrigin.buglog.json"),
                ("deepreport", reports, "Oyente.report.json"),
                ("deeptruth", reports, "Slither.truth.json")):
            shutil.copytree(source, tmp_path / name)
            (tmp_path / name / deep_file).write_text("[" * 200_000)
        # a file name goes into its bug logs, whose CSV rows stay one line
        # of printable text each
        (tmp_path / "unprintable").mkdir()
        for name in ("Cou\rnter.sol", "Good.sol"):
            shutil.copy(mini_corpus / "Counter.sol",
                        tmp_path / "unprintable" / name)
        # a truth file's tool is its file stem, with the other tool's truth
        # file beside it or not
        for name in ("twotruths", "mistruth"):
            shutil.copytree(reports, tmp_path / name)
            truth = tmp_path / name / "Slither.truth.json"
            doc = json.loads(truth.read_text(encoding="utf-8"))
            truth.write_text(json.dumps(dict(doc, tool="Mythril")),
                             encoding="utf-8")
        (tmp_path / "mistruth" / "Mythril.truth.json").unlink()

        code = main([arg.format(tmp=tmp_path, injected=injected,
                                reports=reports) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if named in line]) == 1
        if ".buglog.json" in named or ".truth.json" in named:
            assert len(err.splitlines()) == 1  # it stops the command
        if argv[0] == "inject":  # the campaign goes on past the bad file
            assert (tmp_path / "out" / "Good.Reentrancy.sol").is_file()


@pytest.mark.parametrize("case", ["locate", "oracle", "misnamed-log"])
def test_an_unprintable_file_name_is_shown_on_one_line(
        case, tmp_path, mini_corpus, injected, capsys):
    """A file whose name holds a newline or a bare carriage return is named
    as ``shown`` puts it: in a ``locate`` site line, in the failure summary
    of ``locate`` and of ``oracle`` (keyed by the bug log's stem), and in
    the error for a log whose entries name another file. Every line is
    printable, and each failure takes one."""
    corpus, logs = tmp_path / "corpus", tmp_path / "logs"
    corpus.mkdir()
    shutil.copy(mini_corpus / "Counter.sol", corpus / "Cou\rnter.sol")
    (corpus / "Bad\nName.sol").write_bytes(b"contract Bad { \xff }")
    shutil.copytree(injected, logs)
    entries = json.loads((injected / "Counter.TxOrigin.buglog.json")
                         .read_text(encoding="utf-8"))
    for stem in ("Cou\rnter", "Bad\nName"):
        file = "Counter.sol" if case == "misnamed-log" else f"{stem}.sol"
        (logs / f"{stem}.buglog.json").write_text(json.dumps(
            [dict(entry, file=file) for entry in entries]))
    # one log's buggy file does not read as UTF-8, the other's is missing
    (logs / "Cou\rnter.sol").write_bytes(b"contract C { \xff }")
    argv = ["locate", "--corpus", corpus, "--bug-types", "TOD"] \
        if case == "locate" else ["oracle", "--buglogs", logs,
                                  "--out", tmp_path / "out"]

    assert main(list(map(str, argv))) == 2
    out, err = capsys.readouterr()
    lines = (out + err).split("\n")[:-1]
    assert lines and all(line.isprintable() for line in lines)
    if case == "misnamed-log":
        # ``shown`` cuts a long path short in its middle
        assert err.startswith("solbugsmith oracle: error: '")
        assert ("Name.buglog.json': malformed bug log: entry "
                f"{entries[0]['bugId']!r} names 'Counter.sol', not "
                "'Bad\\nName.sol'") in err
        assert len(lines) == 1
        return
    head, *summary = err.splitlines()
    assert head == f"{len(summary)} failure(s):"
    if case == "locate":
        assert out == "'Cou\\rnter.sol' TOD: 57 site(s)\n"
        assert summary == ["  'Bad\\nName.sol': cannot read source: 'utf-8' "
                           "codec can't decode byte 0xff in position 15: "
                           "invalid start byte"]
    else:
        assert [line.split(":")[0] for line in summary] == [
            "  'Bad\\nName.sol'", "  'Cou\\rnter.sol'"]


_DEEP = "[" * 800 + "]" * 800  # nested short of the decoder's limit
_LONG = json.dumps("x" * 10_000)
_ENTRY = {"bugId": "b1", "bugType": "TOD", "approach": "FullSnippet",
          "snippetId": None, "file": "X.sol", "startLine": 1, "endLine": 1,
          "byteSpan": {"start": 0, "end": 1}}
_FINDING = {"file": "X.sol", "line": "@", "type": "TOD"}
_SNIPPET = {"id": "s", "bugType": "@", "form": "SimpleStatement",
            "template": "x = 1;"}


@pytest.mark.parametrize("where, doc, value, code", [
    pytest.param("log", [dict(_ENTRY, startLine="@")], _DEEP, 2,
                 id="buglog-start-line"),
    pytest.param("log", [dict(_ENTRY, bugType="@")], _DEEP, 2,
                 id="buglog-bug-type"),
    pytest.param("log", [dict(_ENTRY, bugType="@")], _LONG, 2,
                 id="buglog-long-bug-type"),
    pytest.param("log", [dict(_ENTRY, file="@")], _LONG, 2,
                 id="buglog-long-file"),
    pytest.param("report", {"tool": "Slither", "findings": [_FINDING]},
                 _DEEP, 2, id="report-line"),
    pytest.param("pool", {"weakenings": [{"bugType": "TOD",
                                          "guardShape": "@"}]}, _DEEP, 1,
                 id="pool-guard-shape"),
    pytest.param("pool", {"snippets": [_SNIPPET]}, _DEEP, 1,
                 id="pool-bug-type"),
    pytest.param("pool", {"snippets": [_SNIPPET]}, _LONG, 1,
                 id="pool-long-bug-type"),
])
def test_an_echoed_value_leaves_the_error_lines_short(
        where, doc, value, code, tmp_path, monkeypatch, capsys):
    """A document value that an error message names is shown cut short."""
    monkeypatch.chdir(tmp_path)
    for name in ("logs", "reports", "corpus"):
        Path(name).mkdir()
    Path("corpus/X.sol").write_text("contract X {}\n")
    Path("logs/X.sol").write_text("contract X {\n}\n")
    text = json.dumps(doc).replace('"@"', value)
    if where == "log":
        Path("logs/X.buglog.json").write_text(text)
        argv = ["oracle", "--buglogs", "logs", "--out", "out"]
    elif where == "report":
        Path("logs/X.buglog.json").write_text(json.dumps([_ENTRY]))
        Path("reports/Slither.report.json").write_text(text)
        argv = ["evaluate", "--buglogs", "logs", "--reports", "reports"]
    else:
        Path("pool.json").write_text(text)
        argv = ["inject", "--corpus", "corpus", "--out", "out",
                "--pool", "pool.json"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert max(map(len, err.splitlines())) < 200
    assert "..." in err  # where the value was cut


@pytest.mark.parametrize("value", ["Gremlins", ["TOD"], 3, -1, None, 1.5,
                                   True, {"a": [1]}, ("3", 1, 1, 0),
                                   [[[1]]], "x" * 58])
def test_a_short_value_is_shown_as_repr_shows_it(value):
    assert shown(value) == repr(value)


def test_every_flag_is_read_by_its_command():
    """A flag that its command never reads does nothing."""
    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    unread = [f"{name}: {action.dest}"
              for name, parser in commands.choices.items()
              for action in parser._actions
              if not isinstance(action, argparse._HelpAction)
              and f"args.{action.dest}" not in
              inspect.getsource(_COMMANDS[name])]
    assert unread == []


def test_inject_parses_each_source_once_and_lexes_no_output(
        mini_corpus, tmp_path, monkeypatch, capsys, unbalancing_pool_text):
    """Every binding of ``tokenize`` and ``parse`` in the package counts
    its calls by input text over an ``inject`` run. With the bundled pool,
    loaded before, every output is valid by construction, and transform
    patterns are lexed only at load. With a pool whose ``uint256`` rewrite
    does not keep token roles, exactly the outputs that use it are lexed,
    once each, to validate them."""
    pool = default_pool()
    bad_pool = load_pool(unbalancing_pool_text)
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(mini_corpus.glob("*.sol"))]
    (rewrite,) = [t for t in bad_pool.transforms if not vouched(t)]
    unvouched = []
    for source in sources:
        profile = find_all_potential_locations(
            parse(source), BugType.INTEGER_OVERFLOW_UNDERFLOW, bad_pool)
        if any(getattr(site, "pattern", None) is rewrite
               for site in profile.sites):
            unvouched.append(inject_all(profile, bad_pool).text)
    assert unvouched
    lexed, parsed = Counter(), Counter()

    def counting(real, counts):
        def wrapper(source):
            counts[source] += 1
            return real(source)
        return wrapper

    for real, counts in ((parser.tokenize, lexed), (parser.parse, parsed)):
        wrapper = counting(real, counts)
        for name, module in list(sys.modules.items()):
            if name.startswith("solbugsmith") and \
                    getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, wrapper)
    out = tmp_path / "out"
    assert main(["inject", "--corpus", str(mini_corpus),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    outputs = [p.read_text(encoding="utf-8") for p in sorted(out.glob("*.sol"))]
    assert len(outputs) == len(sources) * 7
    assert [(parsed[s], lexed[s]) for s in sources] == [(1, 1)] * len(sources)
    assert [lexed[o] for o in outputs] == [0] * len(outputs)
    patterns = [text for t in pool.transforms for text in (t.match, t.insert)]
    assert patterns
    assert [lexed[text] for text in patterns] == [0] * len(patterns)

    lexed.clear()
    bad_pool_file = tmp_path / "pool.json"
    bad_pool_file.write_text(unbalancing_pool_text, encoding="utf-8")
    out = tmp_path / "bad"
    assert main(["inject", "--corpus", str(mini_corpus), "--out", str(out),
                 "--pool", str(bad_pool_file)]) == 2
    capsys.readouterr()
    outputs = [p.read_text(encoding="utf-8") for p in sorted(out.glob("*.sol"))]
    assert len(outputs) == len(sources) * 7 - len(unvouched)
    assert [lexed[o] for o in outputs] == [0] * len(outputs)
    assert [lexed[o] for o in unvouched] == [1] * len(unvouched)


def test_evaluate_matches_once_per_tool_and_bug_type(
        injected, reports, capabilities, tmp_path, monkeypatch, capsys):
    """``evaluate`` calls the matcher ``_match`` through its module global,
    once per buggy file, capable tool and bug type the file holds, with the
    file's ranges of that type and that tool's findings in the file."""
    real, calls = evaluator._match, []

    def counting(ranges, findings, bug_type):
        calls.append((len(ranges), bug_type,
                      {(f.tool, f.file) for f in findings}))
        return real(ranges, findings, bug_type)

    monkeypatch.setattr(evaluator, "_match", counting)
    assert main(["evaluate", "--buglogs", str(injected), "--reports",
                 str(reports), "--out", str(tmp_path / "eval")]) == 0
    capsys.readouterr()
    logs = [json.loads(path.read_text(encoding="utf-8"))
            for path in injected.glob("*.buglog.json")]
    expected = Counter((len(log), BugType(log[0]["bugType"]))
                       for log in logs if log for caps in capabilities.values()
                       if BugType(log[0]["bugType"]) in caps)
    assert {bug_type for _, bug_type in expected} == \
        {BugType.REENTRANCY, BugType.TX_ORIGIN}
    assert all(len(owners) <= 1 for *_, owners in calls)
    assert Counter((size, bug_type) for size, bug_type, _ in calls) == \
        expected


def test_traced_bindings_exist_in_every_importing_module(tracer_targets):
    """The benchmark's tracer rebinds each function of ``_TARGETS`` by name
    in its defining module and in every module listed as importing it, so
    each of those names must be bound to the defining module's function."""
    assert tracer_targets
    for home, attr, importers in tracer_targets.values():
        defined = getattr(importlib.import_module(f"solbugsmith.{home}"), attr)
        for owner in importers:
            module = importlib.import_module(f"solbugsmith.{owner}")
            assert getattr(module, attr, None) is defined, \
                f"solbugsmith.{owner}.{attr}"


def test_the_readme_library_examples_run(mini_corpus, tmp_path, monkeypatch,
                                         capsys):
    """The ``python`` blocks of the README's "Library use" run as written,
    on the files of a one-contract ``inject`` and ``oracle``."""
    readme = Path(solbugsmith.__file__).parents[2] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    shutil.copy(mini_corpus / "Counter.sol", "Example.sol")
    data = Path("src/solbugsmith/data")
    data.mkdir(parents=True)
    shutil.copy(Path(solbugsmith.__file__).parent / "data" /
                "capabilities.json", data)
    assert main(["inject", "--corpus", str(mini_corpus / "Counter.sol"),
                 "--out", "buggy", "--bug-types", "Reentrancy"]) == 0
    assert main(["oracle", "--buglogs", "buggy", "--out", "reports",
                 "--extra-per-file", "5", "--seed", "11"]) == 0
    capsys.readouterr()
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
    out = capsys.readouterr().out
    assert "contract Counter" in out and "| Bug type | Slither |" in out
    assert "FPCell(reported=" in out


# -- whole processes ----------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def _child_env(**extra: str) -> dict[str, str]:
    """The environment of a child process that imports this package."""
    path = [str(Path(solbugsmith.__file__).parent.parent)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def _campaign(python: str, corpus: Path, root: Path, hash_seed: str = "0",
              pool: Path | None = None) -> dict[str, bytes]:
    """Each file that ``inject``, ``oracle`` and ``evaluate`` write under
    ``root``, each stage run as a process of ``python``; ``inject`` reads
    ``pool`` if one is given."""
    buggy, reports = root / "buggy", root / "reports"
    pool_flag = ["--pool", str(pool)] if pool else []
    for argv in (["inject", "--corpus", str(corpus), "--out", str(buggy),
                  *pool_flag],
                 ["oracle", "--buglogs", str(buggy), "--out", str(reports),
                  "--miss-rate", "0.3", "--mistype-rate", "0.2",
                  "--extra-per-file", "3", "--seed", "5"],
                 ["evaluate", "--buglogs", str(buggy), "--reports",
                  str(reports), "--out", str(root / "scored"), "--seed", "5"]):
        proc = subprocess.run([python, "-m", "solbugsmith.cli", *argv],
                              env=_child_env(PYTHONHASHSEED=hash_seed),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_outputs_do_not_depend_on_the_hash_seed(mini_corpus, tmp_path):
    """Strings hash by the seed and the vocabulary enums by identity, so a
    set or dict order that reached an output would differ between these
    processes."""
    first = _campaign(sys.executable, mini_corpus, tmp_path / "0", "0")
    assert len(first) > 50
    assert _campaign(sys.executable, mini_corpus, tmp_path / "1", "1") \
        == first


def test_scoring_loads_neither_the_front_end_nor_the_injector():
    """Nor ``hashlib``; and the evaluator alone does not load the oracle."""
    for imported, loaded in [
            ("solbugsmith.evaluator, solbugsmith.oracle",
             ("buglog", "errors", "evaluator", "model", "oracle")),
            ("solbugsmith.evaluator", ("buglog", "errors", "evaluator",
                                       "model"))]:
        code = (f"import sys\nimport {imported}\n"
                "print(' '.join(sorted(m for m in sys.modules\n"
                "                      if m.startswith('solbugsmith.')\n"
                "                      or m == 'hashlib')))")
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == [f"solbugsmith.{name}"
                                       for name in loaded], imported


# run ``main`` on argv in a child interpreter, then print its exit code and
# each package module loaded, the front end's submodules counted as ``front``
_RUN_AND_LIST = """\
import contextlib, io, sys
from solbugsmith.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted({m.split('.')[1] for m in sys.modules
                     if m.startswith('solbugsmith.')}))
"""


@pytest.mark.parametrize("command, loaded", [
    ("--help", "buglog cli errors model"),
    ("locate", "buglog cli errors front locator model pool"),
    ("inject", "buglog cli errors front injector locator model pool"),
    ("oracle", "buglog cli errors model oracle"),
    ("evaluate", "buglog cli errors evaluator model"),
], ids=["help", "locate", "inject", "oracle", "evaluate"])
def test_each_subcommand_loads_only_its_own_modules(
        command, loaded, mini_corpus, injected, reports, tmp_path):
    """Each stage is its own process, and none compiles or imports another
    stage's modules; none loads ``dataclasses`` or ``csv`` either."""
    inputs = {"--help": [],
              "locate": ["--corpus", mini_corpus, "--out", tmp_path],
              "inject": ["--corpus", mini_corpus, "--out", tmp_path],
              "oracle": ["--buglogs", injected, "--out", tmp_path],
              "evaluate": ["--buglogs", injected, "--reports", reports,
                           "--out", tmp_path]}
    child = _RUN_AND_LIST + "".join(
        f"assert {name!r} not in sys.modules, {name!r}\n"
        for name in ("dataclasses", "csv"))
    proc = subprocess.run([sys.executable, "-c", child, command,
                           *map(str, inputs[command])],
                          env=_child_env(), capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["0", *loaded.split()]


def test_main_leaves_the_collector_as_it_found_it(mini_corpus, tmp_path):
    """In process, ``main`` freezes nothing: the caller's collector is its
    own."""
    before = gc.get_freeze_count()
    assert main(["inject", "--corpus", str(mini_corpus), "--out",
                 str(tmp_path), "--bug-types", "TOD"]) == 0
    assert gc.get_freeze_count() == before


def _script_target() -> tuple[str, str]:
    """The module and function that the ``solbugsmith`` script runs."""
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml")
                        .read_text(encoding="utf-8"))
    module, function = doc["project"]["scripts"]["solbugsmith"].split(":")
    return module, function


@pytest.mark.parametrize("launch", ["module", "script"])
def test_a_stage_process_freezes_its_start_up_objects(launch, mini_corpus,
                                                      tmp_path):
    """``python -m solbugsmith.cli`` and the ``solbugsmith`` script freeze
    the objects made before the subcommand runs; the child reports the
    frozen count as it exits."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(),\n"
        "                              file=sys.stderr))\n", encoding="utf-8")
    if launch == "module":
        command = ["-m", "solbugsmith.cli"]
    else:  # as the script pip writes for the entry point does
        module, function = _script_target()
        command = ["-c", f"import sys\nfrom {module} import {function}\n"
                   f"sys.exit({function}())"]
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(hook), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, *command, "inject", "--corpus", str(mini_corpus),
         "--out", str(tmp_path / "out"), "--bug-types", "TOD"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "Counter.TOD.buglog.csv").is_file()
    frozen = re.fullmatch(r"frozen (\d+)\n", proc.stderr)
    assert frozen and int(frozen.group(1)) > 0, proc.stderr


def test_cli_serves_exactly_the_names_the_tracer_rebinds_there(
        tracer_targets):
    """A ``_TARGETS`` function the tracer rebinds in ``cli`` that ``cli``
    does not bind at import is served from its module when asked for, and
    no other name of the package is. (That importing ``cli`` loads none of
    those modules is the ``help`` case above.)"""
    rebound = {attr for _, attr, importers in tracer_targets.values()
               if "cli" in importers}
    bound = set(vars(cli))
    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(solbugsmith.__path__, "solbugsmith.")]
    names = {name for module in modules for name in vars(module)
             if not name.startswith("_")}
    served = {name for name in names - bound if hasattr(cli, name)}
    assert rebound - bound and served == rebound - bound
    assert not hasattr(cli, "no_such_name")


def _python(version: str) -> str | None:
    """A Python ``version`` (``"3.10"``, say) interpreter that runs:
    ``python<version>`` on PATH, else one that pyenv installed under
    ``$PYENV_ROOT/versions``."""
    candidates = [shutil.which(f"python{version}")]
    if os.environ.get("PYENV_ROOT"):
        versions = Path(os.environ["PYENV_ROOT"]) / "versions"
        candidates += sorted(map(str, versions.glob(f"{version}*/bin/python")))
    wanted = tuple(map(int, version.split(".")))
    check = f"import sys\nassert sys.version_info[:2] == {wanted}"
    for python in filter(None, candidates):
        probe = subprocess.run([python, "-c", check], capture_output=True)
        if probe.returncode == 0:
            return python
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_each_interpreter_imports_the_package_and_writes_the_same_files(
        version, tmp_path):
    """pyproject.toml allows Python 3.10 and up: under each installed minor
    version the package imports, the bundled pool loads, and a campaign
    over the fixtures writes the bytes it writes here. Every snippet id
    holds a ``,`` and a ``"``, so the CSV bug logs quote fields."""
    python = _python(version)
    if python is None:
        pytest.skip(f"no Python {version}: put python{version} on PATH or "
                    "install one with pyenv")
    probe = subprocess.run(
        [python, "-c", "import solbugsmith.cli\n"
         "from solbugsmith.pool import default_pool\ndefault_pool()"],
        env=_child_env(), capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("EGame.sol", "ThrowGuards.sol"):
        shutil.copy(FIXTURES / name, corpus / name)
    doc = json.loads((Path(solbugsmith.__file__).parent / "data" /
                      "default_pool.json").read_text(encoding="utf-8"))
    for snippet in doc["snippets"]:
        snippet["id"] += ', "quoted"'
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps(doc), encoding="utf-8")
    here = _campaign(sys.executable, corpus, tmp_path / "here", pool=pool)
    assert any(b'""quoted""' in data for name, data in here.items()
               if name.endswith(".buglog.csv"))
    assert _campaign(python, corpus, tmp_path / version, pool=pool) == here
