"""Synthetic tool reports: seeded determinism, rate handling, and the planted
ground truth matching what scoring later recovers."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solbugsmith.buglog import BugLogEntry
from solbugsmith.errors import DomainError
from solbugsmith.evaluator import (derive_thresholds, evaluate_campaign,
                                   ingest_report, score_false_negatives)
from solbugsmith.front import parse
from solbugsmith.injector import inject_file
from solbugsmith.model import Approach, BugType
from solbugsmith.oracle import (EXTRA_TYPE_LABEL, OracleSpec, child_seed,
                                dump_report, generate_tool_report,
                                uninjected_lines)

ALL = frozenset(BugType)


def entry(bug_id, bug_type, start, end, file="a.sol"):
    return BugLogEntry(bug_id, bug_type, Approach.FULL_SNIPPET, None,
                       file, start, end, 0, 1)


def _make_buglogs():
    return {
        "a.sol": [entry("b0", BugType.REENTRANCY, 3, 6),
                  entry("b1", BugType.TOD, 10, 14)],
        "b.sol": [entry("b2", BugType.TX_ORIGIN, 2, 2, file="b.sol"),
                  entry("b3", BugType.UNCHECKED_SEND, 5, 9, file="b.sol"),
                  entry("b4", BugType.TIMESTAMP_DEPENDENCY, 20, 25,
                        file="b.sol")],
    }


@pytest.fixture()
def buglogs():
    return _make_buglogs()


@pytest.fixture(scope="module")
def campaign(corpus_sources, pool):
    """Bug logs and line counts of two bundled contracts, each injected
    once with every bug type."""
    buglogs, line_counts = {}, {}
    for name in ("Counter.sol", "PiggyBank.sol"):
        unit = parse(corpus_sources[name])
        for bug_type in BugType:
            out_name = f"{name[:-len('.sol')]}.{bug_type.value}.sol"
            result = inject_file(unit, bug_type, pool, out_name)
            buglogs[out_name] = result.entries
            line_counts[out_name] = result.text.count("\n") + 1
    return buglogs, uninjected_lines(buglogs, line_counts)


LINES = {"a.sol": 40, "b.sol": 60}


def report_over(buglogs, spec, tool="t", capable=ALL, lines=LINES):
    """``generate_tool_report`` with the open lines of ``buglogs`` in files
    of ``lines`` lines."""
    return generate_tool_report(tool, capable, buglogs,
                                uninjected_lines(buglogs, lines), spec)


class TestSeeding:
    def test_child_seed_is_stable_across_runs(self):
        assert child_seed(0, "mythril", "a.sol") == 14334605743161379455
        assert child_seed(7, "sample", "osiris", "TOD") \
            == 6193936668204896499

    def test_child_seed_separates_parts(self):
        seen = {child_seed(0, "t", "a.sol"), child_seed(0, "t", "b.sol"),
                child_seed(0, "u", "a.sol"), child_seed(1, "t", "a.sol")}
        assert len(seen) == 4

    def test_same_spec_reproduces_the_report(self, buglogs):
        spec = OracleSpec(miss_rate=0.3, mistype_rate=0.2,
                          extra_per_file=4, seed=11)
        first = report_over(buglogs, spec)
        second = report_over(buglogs, spec)
        assert first == second

    def test_different_tools_diverge(self, buglogs):
        spec = OracleSpec(miss_rate=0.5, extra_per_file=3, seed=11)
        a = report_over(buglogs, spec, "t1")
        b = report_over(buglogs, spec, "t2")
        assert a != b


class TestRates:
    def test_zero_rates_report_every_bug_correctly(self, buglogs):
        report, truth = report_over(buglogs, OracleSpec())
        assert truth == {"tool": "t", "missed": [], "mistyped": [],
                         "extras": []}
        assert report["tool"] == "t"
        assert len(report["findings"]) == 5
        for entries in buglogs.values():
            for e in entries:
                match = [f for f in report["findings"]
                         if f["file"] == e.file
                         and e.start_line <= f["line"] <= e.end_line
                         and f["type"] == e.bug_type.value]
                assert match, e.bug_id

    def test_certain_miss_reports_nothing(self, buglogs):
        report, truth = report_over(buglogs, OracleSpec(miss_rate=1.0))
        assert report["findings"] == []
        assert sorted(truth["missed"]) == ["b0", "b1", "b2", "b3", "b4"]

    def test_certain_mistype_swaps_every_type(self, buglogs):
        report, truth = report_over(buglogs, OracleSpec(mistype_rate=1.0))
        assert len(truth["mistyped"]) == 5
        planted = {e.bug_id: e.bug_type.value
                   for entries in buglogs.values() for e in entries}
        for item in truth["mistyped"]:
            assert item["reportedType"] != planted[item["bugId"]]

    def test_out_of_scope_types_are_ignored_silently(self, buglogs):
        capable = frozenset({BugType.REENTRANCY})
        report, truth = report_over(buglogs, OracleSpec(), capable=capable)
        assert [f["type"] for f in report["findings"]] == ["Reentrancy"]
        assert truth["missed"] == []  # out of scope is not a miss

    @pytest.mark.parametrize("kwargs", [
        {"miss_rate": -0.1},
        {"miss_rate": 1.1},
        {"mistype_rate": 2.0},
        {"miss_rate": 0.7, "mistype_rate": 0.4},  # sum above 1
        {"extra_per_file": -1},
    ])
    def test_inconsistent_spec_rejected(self, kwargs):
        with pytest.raises(DomainError):
            OracleSpec(**kwargs)


class TestExtras:
    def test_extras_avoid_planted_line_ranges(self, buglogs):
        spec = OracleSpec(extra_per_file=10, seed=3)
        report, truth = report_over(buglogs, spec)
        covered = {
            ("a.sol", n) for n in list(range(3, 7)) + list(range(10, 15))
        } | {
            ("b.sol", n)
            for n in [2] + list(range(5, 10)) + list(range(20, 26))
        }
        assert len(truth["extras"]) == 20
        for extra in truth["extras"]:
            assert (extra["file"], extra["line"]) not in covered
            assert 1 <= extra["line"] <= LINES[extra["file"]]

    def test_extra_labels_stay_in_vocabulary(self, buglogs):
        spec = OracleSpec(extra_per_file=10, seed=5)
        _, truth = report_over(buglogs, spec)
        allowed = {bt.value for bt in BugType} | {EXTRA_TYPE_LABEL}
        labels = {extra["type"] for extra in truth["extras"]}
        assert labels <= allowed

    def test_extras_capped_by_free_lines(self):
        logs = {"tiny.sol": [entry("b0", BugType.TOD, 1, 8, file="tiny.sol")]}
        spec = OracleSpec(extra_per_file=50, seed=1)
        _, truth = report_over(logs, spec, lines={"tiny.sol": 10})
        assert len(truth["extras"]) == 2  # only lines 9 and 10 are free


    def test_range_past_the_end_of_the_file_is_not_expanded(self):
        logs = {"tiny.sol": [entry("b0", BugType.TOD, 9, 10**12,
                                   file="tiny.sol")]}
        spec = OracleSpec(extra_per_file=50, seed=1)
        _, truth = report_over(logs, spec, lines={"tiny.sol": 10})
        assert sorted(e["line"] for e in truth["extras"]) == list(range(1, 9))

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.sampled_from(["a.sol", "b.sol", "c.sol"]),
                           st.tuples(st.integers(0, 40), st.lists(st.tuples(
                               st.integers(1, 50),
                               st.integers(0, 8) | st.integers(0, 10**12)),
                               max_size=6))))
    def test_open_lines_are_the_lines_no_entry_covers(self, files):
        """Entries in any order, overlapping or past the end of the file;
        each line is tested against every entry."""
        buglogs = {file: [entry(f"b{i}", BugType.TOD, start, start + extra,
                                file=file)
                          for i, (start, extra) in enumerate(spans)]
                   for file, (_, spans) in files.items()}
        line_counts = {file: n for file, (n, _) in files.items()}
        want = {file: [line for line in range(1, n + 1) if not any(
            e.start_line <= line <= e.end_line for e in buglogs[file])]
            for file, n in line_counts.items()}
        assert uninjected_lines(buglogs, line_counts) == want


class TestClosure:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_scoring_recovers_planted_counts(self, seed):
        buglogs = _make_buglogs()
        spec = OracleSpec(miss_rate=0.3, mistype_rate=0.2,
                          extra_per_file=5, seed=seed)
        report, truth = report_over(buglogs, spec)
        findings = ingest_report(dump_report(report))
        entries = [e for entries in buglogs.values() for e in entries]
        score = score_false_negatives(entries, findings)
        assert score.unreported == len(truth["missed"])
        assert score.misidentified == len(truth["mistyped"])
        assert score.detected == score.injected \
            - len(truth["missed"]) - len(truth["mistyped"])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(miss=st.floats(0, 1), mistype_share=st.floats(0, 1),
           extra=st.integers(0, 8), seed=st.integers(0, 2**32))
    def test_campaign_recovers_every_tools_planted_counts(
            self, campaign, capabilities, miss, mistype_share, extra, seed):
        """Per tool: missed and mistyped bugs, and per type the reported
        and filtered false positives and the Miscellaneous count, replayed
        from the truth documents alone, at every line slack from 0 to 5.
        The truth files describe slack 0. At slack s, an extra within s
        lines of a bug is set aside, so the FP cells count only the others;
        and it may pair with a missed bug, so a tool with k such extras may
        have up to k fewer unreported bugs than it missed."""
        buglogs, open_lines = campaign
        spec = OracleSpec(miss, mistype_share * (1 - miss), extra, seed)
        findings, truths = {}, {}
        for tool, capable in capabilities.items():
            report, truths[tool] = generate_tool_report(
                tool, capable, buglogs, open_lines, spec)
            findings[tool] = ingest_report(dump_report(report))
        entries = [e for name in sorted(buglogs) for e in buglogs[name]]
        thresholds = {bt.value: n
                      for bt, n in derive_thresholds(capabilities).items()}
        extras = {tool: [tuple(extra_finding[k]
                               for k in ("file", "line", "type"))
                         for extra_finding in truth["extras"]]
                  for tool, truth in truths.items()}
        extra_lines: dict[str, set[int]] = {}
        for keys in extras.values():
            for file, line, _ in keys:
                extra_lines.setdefault(file, set()).add(line)
        for slack in range(6):
            result = evaluate_campaign(entries, findings, capabilities, {},
                                       {}, line_slack=slack, seed=seed)
            near = {file: {line for line in lines if any(
                e.start_line - slack <= line <= e.end_line + slack
                for e in buglogs[file])}
                for file, lines in extra_lines.items()}
            kept = {tool: [key for key in keys if key[1] not in near[key[0]]]
                    for tool, keys in extras.items()}
            support: dict[tuple, set[str]] = {}
            for tool, keys in kept.items():
                for key in keys:
                    support.setdefault(key, set()).add(tool)
            for tool, truth in truths.items():
                scores = result.scores[tool].values()
                unreported = sum(s.unreported for s in scores)
                misidentified = sum(s.misidentified for s in scores)
                set_aside = len(extras[tool]) - len(kept[tool])
                if set_aside:
                    assert len(truth["missed"]) - set_aside <= unreported \
                        <= len(truth["missed"]), slack
                else:
                    assert (unreported, misidentified) == (
                        len(truth["missed"]), len(truth["mistyped"])), slack
                want: dict[str, list[int]] = {}
                for key in kept[tool]:
                    cell = want.setdefault(key[2], [0, 0])
                    cell[0] += 1
                    cell[1] += len(support[key]) < thresholds.get(key[2], 0)
                misc = want.pop(EXTRA_TYPE_LABEL, [0, 0])[0]
                got = {bt.value: [cell.reported, cell.filtered]
                       for bt, cell in result.cells[tool].items()
                       if cell.reported}
                assert got == want, slack
                assert result.misc_counts[tool] == misc, slack

    def test_report_document_round_trips(self, buglogs):
        report, _ = report_over(buglogs, OracleSpec(extra_per_file=2, seed=9))
        assert json.loads(dump_report(report)) == report


# names, files, labels and messages with non-ASCII, control and lone
# surrogate characters, and the braces of a format string
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8) \
    | st.sampled_from(["", "é.sol", "a\x00\n\t\"\\b", "\u2028", "\ud800",
                       "{}", "{0}}"])
_LINE = st.integers(min_value=1, max_value=2**40)


def _record(**fields):
    """Objects with the keys of ``fields`` in that order, as
    ``generate_tool_report`` builds its documents and their records."""
    return st.tuples(*fields.values()).map(
        lambda values: dict(zip(fields, values)))


_REPORTS = _record(tool=_TEXT, findings=st.lists(_record(
    file=_TEXT, line=_LINE, type=_TEXT, message=_TEXT), max_size=4))
_TRUTHS = _record(
    tool=_TEXT, missed=st.lists(_TEXT, max_size=4),
    mistyped=st.lists(_record(bugId=_TEXT, reportedType=_TEXT), max_size=4),
    extras=st.lists(_record(file=_TEXT, line=_LINE, type=_TEXT), max_size=4))


class TestDumpReport:
    @settings(max_examples=150, deadline=None)
    @given(doc=_REPORTS | _TRUTHS)
    def test_writes_what_json_dumps_does(self, doc):
        assert dump_report(doc) == json.dumps(doc, indent=2) + "\n"
