"""Acceptance gate: one test and one printed PASS/FAIL line per shipping
criterion. Run with `pytest tests/test_acceptance.py -s` to see the lines.

Every check here is exact (set equality, string equality, integer counts) or
a wall-clock bound; nothing is approximate.
"""

import json
import time
from pathlib import Path

import pytest

from solbugsmith.cli import main
from solbugsmith.evaluator import (derive_thresholds, estimate_false_positives,
                                   filter_by_majority, fn_cell)
from solbugsmith.front import parse, validate
from solbugsmith.injector import inject_all
from solbugsmith.locator import SnippetSite, find_all_potential_locations
from solbugsmith.model import BugType, SnippetForm

from test_locator import probe_oracle_offsets

ALL_TYPES = list(BugType)

TABLE_THRESHOLDS = {
    BugType.REENTRANCY: 4,
    BugType.TIMESTAMP_DEPENDENCY: 3,
    BugType.UNCHECKED_SEND: 2,
    BugType.UNHANDLED_EXCEPTION: 3,
    BugType.TOD: 2,
    BugType.INTEGER_OVERFLOW_UNDERFLOW: 3,
    BugType.TX_ORIGIN: 2,
}


def _line(number: int, ok: bool, label: str, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"criterion {number} {status}: {label}{timing}")


def _count_lines(text: str) -> int:
    return text.count("\n") + (0 if text.endswith("\n") else 1)


@pytest.fixture(scope="module")
def corpus_injections(corpus_sources, pool):
    """Every (contract, bug type) injection, with the build time it took."""
    started = time.perf_counter()
    results = {}
    for name in sorted(corpus_sources):
        src = corpus_sources[name]
        unit = parse(src)
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(unit, bug_type, pool,
                                                   source_id=name)
            results[(name, bug_type)] = inject_all(unit, profile, pool)
    return results, time.perf_counter() - started


def test_criterion_1_extrapolation_exactness():
    estimate_false_positives(40, 20, 16)  # warm the code path
    started = time.perf_counter()
    got = estimate_false_positives(40, 20, 16)
    elapsed = time.perf_counter() - started
    ok = got == 32 and elapsed < 0.001
    _line(1, ok, f"estimate(filtered=40, sampled=20, confirmed=16) == {got}",
          elapsed)
    assert got == 32
    assert elapsed < 0.001


def test_criterion_2_validity_preservation(corpus_sources, corpus_injections):
    results, build_time = corpus_injections
    started = time.perf_counter()
    clean = sum(1 for r in results.values() if validate(r.text) == [])
    elapsed = build_time + (time.perf_counter() - started)
    sizes = [_count_lines(s) for s in corpus_sources.values()]
    shape_ok = len(corpus_sources) >= 10 and min(sizes) >= 39 \
        and max(sizes) <= 300
    ok = clean == len(results) and elapsed < 30 and shape_ok
    _line(2, ok, f"{clean}/{len(results)} buggy contracts validate "
          f"({len(corpus_sources)} contracts, {min(sizes)}-{max(sizes)} "
          "lines, 7 types)", elapsed)
    assert shape_ok
    assert clean == len(results)
    assert elapsed < 30


# -- criterion 3: brute-force insert-probe oracle ---------------------------


def test_criterion_3_locator_completeness(corpus_sources, pool):
    started = time.perf_counter()
    subjects = {name: src for name, src in corpus_sources.items()
                if _count_lines(src) <= 50}
    mismatches = []
    for name, src in sorted(subjects.items()):
        profile = find_all_potential_locations(parse(src), BugType.REENTRANCY,
                                               pool)
        located = {s.offset for s in profile.sites
                   if isinstance(s, SnippetSite)
                   and s.form is SnippetForm.SIMPLE_STATEMENT}
        if located != probe_oracle_offsets(src):
            mismatches.append(name)
    elapsed = time.perf_counter() - started
    ok = len(subjects) >= 3 and not mismatches and elapsed < 60
    _line(3, ok, f"statement sites match the insert-probe oracle on "
          f"{len(subjects)} contracts <= 50 lines", elapsed)
    assert len(subjects) >= 3
    assert mismatches == []
    assert elapsed < 60


def test_criterion_4_buglog_line_accuracy(corpus_injections):
    results, _ = corpus_injections
    started = time.perf_counter()
    checked = bad = 0
    for result in results.values():
        data = result.text.encode("utf-8")
        starts = [0]
        for i, byte in enumerate(data):
            if byte == 0x0A:
                starts.append(i + 1)
        for e in result.entries:
            checked += 1
            first = starts[e.start_line - 1]
            last = starts[e.end_line] if e.end_line < len(starts) \
                else len(data)
            if not (first <= e.byte_start and e.byte_end <= last):
                bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and checked > 0 and elapsed < 10
    _line(4, ok, f"{checked - bad}/{checked} bug log entries sit inside "
          "their recorded line span", elapsed)
    assert checked > 0
    assert bad == 0
    assert elapsed < 10


def test_criterion_5_oracle_closure(corpus_dir, tmp_path, capsys,
                                    capabilities):
    started = time.perf_counter()
    buggy, reports, scored = (tmp_path / d
                              for d in ("buggy", "reports", "scored"))
    assert main(["inject", "--corpus", str(corpus_dir),
                 "--out", str(buggy)]) == 0
    assert main(["oracle", "--buglogs", str(buggy), "--out", str(reports),
                 "--miss-rate", "0.3", "--mistype-rate", "0.2",
                 "--extra-per-file", "5", "--seed", "11"]) == 0
    assert main(["evaluate", "--buglogs", str(buggy),
                 "--reports", str(reports), "--out", str(scored),
                 "--seed", "11"]) == 0
    capsys.readouterr()

    truths = {p.name[:-len(".truth.json")]: json.loads(p.read_text())
              for p in reports.glob("*.truth.json")}

    # replay the majority rule from the planted extras alone
    type_names = {bt.value for bt in BugType}
    thresholds = derive_thresholds(capabilities)
    support: dict[tuple, set] = {}
    for tool, truth in truths.items():
        for extra in truth["extras"]:
            if extra["type"] in type_names:
                key = (extra["file"], extra["line"], extra["type"])
                support.setdefault(key, set()).add(tool)
    expected = {}
    for tool, truth in truths.items():
        fn_exp = (len(truth["missed"]), len(truth["mistyped"]))
        fp_exp: dict[str, list[int]] = {}
        misc = 0
        for extra in truth["extras"]:
            if extra["type"] not in type_names:
                misc += 1
                continue
            reported, filtered = fp_exp.setdefault(extra["type"], [0, 0])
            key = (extra["file"], extra["line"], extra["type"])
            threshold = thresholds[next(bt for bt in BugType
                                        if bt.value == extra["type"])]
            fp_exp[extra["type"]] = [reported + 1,
                                     filtered + (len(support[key])
                                                 < threshold)]
        expected[tool] = (fn_exp, fp_exp, misc)

    fn_rows = (scored / "fn_scores.csv").read_text().strip().split("\n")[1:]
    got_fn: dict[str, list[int]] = {}
    for row in fn_rows:
        tool, _, _, _, misidentified, unreported, _ = row.split(",")
        totals = got_fn.setdefault(tool, [0, 0])
        totals[0] += int(unreported)
        totals[1] += int(misidentified)

    fp_rows = (scored / "fp_cells.csv").read_text().strip().split("\n")[1:]
    got_fp: dict[str, dict[str, list[int]]] = {}
    got_misc: dict[str, int] = {}
    for row in fp_rows:
        tool, type_name, _, reported, filtered, _ = row.split(",")
        if type_name == "Miscellaneous":
            got_misc[tool] = int(reported)
            continue
        if int(reported) or int(filtered):
            got_fp.setdefault(tool, {})[type_name] = [int(reported),
                                                      int(filtered)]

    failures = []
    for tool, ((missed, mistyped), fp_exp, misc) in expected.items():
        if got_fn[tool] != [missed, mistyped]:
            failures.append(f"{tool} fn {got_fn[tool]} != "
                            f"{[missed, mistyped]}")
        if got_fp.get(tool, {}) != fp_exp:
            failures.append(f"{tool} fp")
        if got_misc.get(tool, 0) != misc:
            failures.append(f"{tool} misc")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30
    _line(5, ok, "planted unreported/misidentified/filtered counts recovered "
          f"exactly for {len(truths)} tools", elapsed)
    assert failures == []
    assert elapsed < 30


def test_criterion_6_table_cell_convention():
    got = fn_cell(1343, 1237, 106)
    ok = got == "1343 (106)"
    _line(6, ok, f'fn_cell(1343, 1237, 106) == "{got}"')
    assert got == "1343 (106)"


def test_criterion_7_majority_filter_boundary(capabilities):
    derived = derive_thresholds(capabilities)
    boundary_ok = derived == TABLE_THRESHOLDS
    for bug_type, threshold in TABLE_THRESHOLDS.items():
        def reports(count):
            from solbugsmith.evaluator import Finding
            return [Finding(f"t{i}", "a.sol", 9, bug_type)
                    for i in range(count)]
        below = filter_by_majority(reports(threshold - 1), [], derived)
        at = filter_by_majority(reports(threshold), [], derived)
        boundary_ok &= len(below.filtered) == threshold - 1 \
            and not below.excluded
        boundary_ok &= len(at.excluded) == threshold and not at.filtered
    _line(7, boundary_ok,
          "derived thresholds 4/3/2/3/2/3/2; threshold-1 agreement filtered, "
          "threshold agreement excluded")
    assert derived == TABLE_THRESHOLDS
    assert boundary_ok


def test_criterion_8_injection_speed(corpus_sources, pool):
    name = "VaultToken.sol"
    src = corpus_sources[name]
    lines = _count_lines(src)
    started = time.perf_counter()
    total = 0
    unit = parse(src)
    for bug_type in ALL_TYPES:
        profile = find_all_potential_locations(unit, bug_type, pool,
                                               source_id=name)
        total += len(inject_all(unit, profile, pool).entries)
    elapsed = time.perf_counter() - started
    ok = elapsed < 5 and 200 <= lines <= 300
    _line(8, ok, f"all 7 bug types into {name} ({lines} lines, "
          f"{total} bugs)", elapsed)
    assert 200 <= lines <= 300
    assert elapsed < 5


def test_criterion_9_deterministic_injection(corpus_dir, tmp_path, capsys):
    started = time.perf_counter()
    runs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["inject", "--corpus", str(corpus_dir),
                     "--out", str(out), "--counter-start", "0"]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    identical = runs[0] == runs[1]
    ok = identical and len(runs[0]) > 0 and elapsed < 30
    _line(9, ok, f"two runs wrote {len(runs[0])} byte-identical "
          "files", elapsed)
    assert identical
    assert len(runs[0]) > 0
    assert elapsed < 30
