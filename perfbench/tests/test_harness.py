"""Self-test of the benchmark harness on a two-contract slice.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

# Splitter holds two contracts, so renaming is exercised on a multi-contract file
SLICE = ("Counter.sol", "Splitter.sol")


@pytest.fixture(autouse=True)
def scratch_work(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")


def _tiny(name: str, trace: bool = False) -> bench.Run:
    return bench.execute(name, seed=3, seconds=0.01, trace=trace,
                         only=SLICE)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(name):
    run = _tiny(name)
    metrics = bench.metrics_of(run)
    assert run.failures == []
    assert list(metrics) == list(bench.END_TO_END)
    text = bench.report(run, metrics)
    for metric, entry in metrics.items():
        assert entry["unit"] == bench.END_TO_END[metric]
        assert entry["value"] > 0
        assert f"{metric} " in text and f" {entry['unit']} " in text


def test_tiny_traced_run_reports_every_per_layer_metric():
    run = _tiny("bundled", trace=True)
    metrics = bench.metrics_of(run)
    assert run.failures == []
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert metrics["front.parses_per_source"]["value"] == 14
    assert metrics["front.lexes_per_output"]["value"] == 2
    assert metrics["injector.bugs.full_snippet"]["value"] > 0
    assert (bench.WORK / "bundled" / "spans.jsonl").stat().st_size > 0
    text = bench.report(run, metrics)
    assert all(f"{metric} " in text for metric in metrics)


def test_tampered_truth_file_is_a_failed_operation(monkeypatch):
    real_stage = bench.run_stage

    def tampering_stage(run, stage):
        result = real_stage(run, stage)
        if stage == "oracle":
            path = sorted(run.out("reports").glob("*.truth.json"))[0]
            truth = json.loads(path.read_text(encoding="utf-8"))
            truth["missed"] = truth["missed"][1:]
            path.write_text(json.dumps(truth), encoding="utf-8")
        return result

    monkeypatch.setattr(bench, "run_stage", tampering_stage)
    run = _tiny("bundled")
    assert len(run.failures) == 1
    assert "unreported/misidentified" in run.failures[0]


def test_fewer_planted_bugs_than_recorded_fail_the_check(tmp_path):
    run = _tiny("merged")
    expected = checks.expected_bugs()
    buggy = tmp_path / "buggy"
    shutil.copytree(run.out("buggy"), buggy)
    assert checks.check_buglogs(buggy, run.workload.origins, expected) == \
        ([], run.planted)
    path = buggy / "Merged.Reentrancy.buglog.json"
    entries = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(entries[1:]), encoding="utf-8")
    failures, planted = checks.check_buglogs(buggy, run.workload.origins, expected)
    assert planted == run.planted - 1
    assert len(failures) == 1 and "Merged.Reentrancy" in failures[0]


def test_recorded_counts_cover_the_bundled_corpus():
    expected = checks.expected_bugs()
    assert sorted(expected) == sorted(workloads.bundled_sources(bench.CORPUS))
    assert sum(n for per_type in expected.values()
               for per_approach in per_type.values()
               for n in per_approach.values()) == 9911


def test_generated_inputs_follow_the_seed(tmp_path):
    corpus = bench.CORPUS
    first = workloads.build("merged", 5, corpus, tmp_path / "a")
    again = workloads.build("merged", 5, corpus, tmp_path / "b")
    other = workloads.build("merged", 6, corpus, tmp_path / "c")
    text = [(w.corpus / "Merged.sol").read_text() for w in (first, again, other)]
    assert text[0] == text[1] != text[2]
    assert len(text[0]) == len(text[2])


def test_benchmark_spec_names_what_the_harness_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_missing_program_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(bench, "PACKAGE", bench.ROOT / "no-such-package")
    assert bench.main(["--workload", "bundled", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
