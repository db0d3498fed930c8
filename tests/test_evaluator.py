"""Report ingestion, false-negative matching, majority filtering, sampling,
extrapolation, and table rendering."""

import itertools
import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solbugsmith import evaluator, model
from solbugsmith.buglog import BugLogEntry
from solbugsmith.errors import (DomainError, FormatError, MissingThreshold,
                                ScopeError)
from solbugsmith.evaluator import (MISCELLANEOUS, Evaluation, Finding,
                                   FNScore, FPCell, derive_thresholds,
                                   estimate_false_positives,
                                   evaluate_campaign, filter_by_majority,
                                   fn_cell, fn_csv, fp_csv, ingest_report,
                                   load_capabilities, render_fn_table,
                                   render_fp_table, report_tool,
                                   sample_for_inspection,
                                   score_false_negatives)
from solbugsmith.front import parse
from solbugsmith.injector import inject_file
from solbugsmith.model import Approach, BugType
from solbugsmith.oracle import (OracleSpec, child_seed, generate_tool_report,
                                uninjected_lines)


def entry(bug_id, bug_type, start, end, file="a.sol"):
    return BugLogEntry(bug_id, bug_type, Approach.FULL_SNIPPET, None,
                       file, start, end, 0, 1)


def finding(line, bug_type, file="a.sol", tool="t1"):
    return Finding(tool, file, line, bug_type)


class TestIngest:
    def test_normalized_array(self):
        text = json.dumps([
            {"tool": "osiris", "file": "a.sol", "line": 3,
             "type": "Reentrancy"},
            {"tool": "osiris", "file": "a.sol", "line": 9,
             "type": "assembly-usage", "message": "odd"},
        ])
        got = ingest_report(text)
        assert got[0].reported_type is BugType.REENTRANCY
        assert got[1].reported_type is None
        assert got[1].type_label == MISCELLANEOUS
        assert got[1] == Finding("osiris", "a.sol", 9, None)

    @pytest.mark.parametrize("label", [["Reentrancy"], 7, None, {"a": 1},
                                       "reentrancy", "Miscellaneous"])
    def test_a_label_that_names_no_bug_type_is_miscellaneous(self, label):
        text = json.dumps([{"file": "a.sol", "line": 3, "type": label}])
        (got,) = ingest_report(text, tool="t")
        assert got.reported_type is None
        assert got.type_label == MISCELLANEOUS

    def test_findings_hold_each_file_name_once(self):
        text = json.dumps([{"file": name, "line": line, "type": "TOD"}
                           for line in (1, 2, 3)
                           for name in ("a.sol", "b.sol")])
        got = ingest_report(text, tool="t")
        assert [f.file for f in got] == ["a.sol", "b.sol"] * 3
        assert len({id(f.file) for f in got}) == 2

    def test_oracle_document_supplies_tool(self):
        text = json.dumps({"tool": "mythril", "findings": [
            {"file": "b.sol", "line": 2, "type": "TxOrigin"},
        ]})
        got = ingest_report(text)
        assert got == [Finding("mythril", "b.sol", 2, BugType.TX_ORIGIN)]

    def test_explicit_tool_beats_filename_fallback(self):
        text = json.dumps([{"file": "a.sol", "line": 1, "type": "TOD"}])
        got = ingest_report(text, tool="slither")
        assert got[0].tool == "slither"

    @pytest.mark.parametrize("bad, index", [
        ([{"file": "a.sol", "line": 1, "type": "TOD"},
          {"file": "a.sol", "line": 0, "type": "TOD"}], 2),
        ([{"file": "a.sol", "line": True, "type": "TOD"}], 1),
        ([{"line": 4, "type": "TOD"}], 1),
        ([{"file": "a.sol", "line": 4, "tool": ""}], 1),
        ([{"file": "a.sol", "line": 4, "message": 9}], 1),
    ])
    def test_bad_finding_reports_its_index(self, bad, index):
        with pytest.raises(FormatError) as err:
            ingest_report(json.dumps(bad), tool="x")
        assert err.value.finding == index

    @pytest.mark.parametrize("doc, tool", [
        ({"tool": "mythril", "findings": []}, "mythril"),
        ({"findings": []}, "stem"),
        ([], "stem"),
    ])
    def test_report_tool_is_the_documents_else_the_fallback(self, doc, tool):
        assert report_tool(json.dumps(doc), "stem") == tool

    @pytest.mark.parametrize("name", ["", 5, None])
    def test_report_tool_must_be_a_name(self, name):
        with pytest.raises(FormatError):
            report_tool(json.dumps({"tool": name, "findings": []}), "stem")

    def test_rejects_non_json_and_wrong_shape(self):
        with pytest.raises(FormatError):
            ingest_report("not json at all")
        with pytest.raises(FormatError):
            ingest_report(json.dumps({"tool": "x"}))  # findings expected
        with pytest.raises(FormatError):
            ingest_report(json.dumps([1, 2]))
        # report_tool reads the document as ingest_report does
        too_deep = "[" * 100_000 + "]" * 100_000
        for text in ("not json at all", too_deep):
            with pytest.raises(FormatError):
                ingest_report(text, tool="x")
            with pytest.raises(FormatError):
                report_tool(text, "x")


class TestFalseNegatives:
    def test_perfect_report_detects_everything(self):
        entries = [entry("b0", BugType.REENTRANCY, 3, 6),
                   entry("b1", BugType.REENTRANCY, 10, 12)]
        findings = [finding(4, BugType.REENTRANCY),
                    finding(11, BugType.REENTRANCY)]
        score = score_false_negatives(entries, findings)
        assert (score.detected, score.misidentified, score.unreported) \
            == (2, 0, 0)
        assert set(score.detected_bug_ids) == {"b0", "b1"}

    def test_wrong_type_at_injected_line_is_misidentified(self):
        entries = [entry("b0", BugType.REENTRANCY, 3, 6)]
        findings = [finding(4, BugType.TOD)]
        score = score_false_negatives(entries, findings)
        assert (score.detected, score.misidentified, score.unreported) \
            == (0, 1, 0)
        assert score.misidentified_bug_ids == ("b0",)

    def test_silent_bug_is_unreported(self):
        entries = [entry("b0", BugType.TX_ORIGIN, 3, 6)]
        score = score_false_negatives(entries, [])
        assert score.unreported == 1
        assert score.unreported_bug_ids == ("b0",)

    def test_line_slack_widens_the_match_window(self):
        entries = [entry("b0", BugType.TOD, 5, 7)]
        findings = [finding(8, BugType.TOD)]
        assert score_false_negatives(entries, findings).detected == 0
        assert score_false_negatives(entries, findings,
                                     line_slack=1).detected == 1

    def test_findings_in_other_files_do_not_match(self):
        entries = [entry("b0", BugType.TOD, 5, 7, file="a.sol")]
        findings = [finding(6, BugType.TOD, file="b.sol")]
        assert score_false_negatives(entries, findings).unreported == 1

    def test_type_correct_pairing_wins_over_line_only(self):
        # Both entries cover the finding's line; the matcher must burn the
        # type-correct one, leaving the other misidentified, not unreported.
        entries = [entry("b0", BugType.REENTRANCY, 3, 9),
                   entry("b1", BugType.TOD, 3, 9)]
        findings = [finding(5, BugType.TOD),
                    finding(6, BugType.REENTRANCY)]
        score = score_false_negatives(entries, findings)
        assert score.detected == 2
        assert score.unreported == 0

    def test_one_finding_cannot_cover_two_bugs(self):
        entries = [entry("b0", BugType.TOD, 3, 9),
                   entry("b1", BugType.TOD, 3, 9)]
        findings = [finding(5, BugType.TOD)]
        score = score_false_negatives(entries, findings)
        assert (score.detected, score.unreported) == (1, 1)

    def test_a_finding_detects_one_type_and_misidentifies_another(self):
        # each type is matched on its own, as evaluate_campaign matches it:
        # the TOD finding detects the TOD bug and misidentifies the
        # Reentrancy bug on its line
        entries = [entry("b0", BugType.TOD, 3, 3),
                   entry("b1", BugType.REENTRANCY, 3, 3)]
        assert score_false_negatives(entries, [finding(3, BugType.TOD)]) == \
            FNScore(2, 1, 1, 0, ("b0",), ("b1",), ())

    def test_a_line_only_finding_moves_a_type_correct_one_up(self):
        # the sweep over TOD findings pairs the one on 2 with the 1-3 bug,
        # which ends first; the sweep over all findings pairs the line-only
        # finding on 1 with that bug, the only one open there, and the TOD
        # finding with the 2-10 bug. Merging the two keeps both bugs
        # matched, so the TOD finding moves on to the 2-10 bug; keeping the
        # TOD sweep's pairs as they are would leave the 2-10 bug unreported.
        entries = [entry("b0", BugType.TOD, 1, 3),
                   entry("b1", BugType.TOD, 2, 10)]
        findings = [finding(2, BugType.TOD), finding(1, BugType.REENTRANCY)]
        score = score_false_negatives(entries, findings)
        assert (score.detected, score.misidentified, score.unreported) == \
            (1, 1, 0)
        assert (score.detected_bug_ids, score.misidentified_bug_ids) == \
            (("b1",), ("b0",))

    def test_type_correct_findings_pair_before_line_order_does(self):
        # in line order, the line-only finding on 1 would take the 1-2 bug
        # and leave the TOD finding on 2 nothing but the 1-5 bug, which the
        # TOD finding on 4 also needs; type-correct first detects both
        entries = [entry("b0", BugType.TOD, 1, 2),
                   entry("b1", BugType.TOD, 1, 5)]
        findings = [finding(1, BugType.REENTRANCY), finding(2, BugType.TOD),
                    finding(4, BugType.TOD)]
        score = score_false_negatives(entries, findings)
        assert (score.detected, score.misidentified, score.unreported) == \
            (2, 0, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mixed_types_score_as_the_campaign_scores_each(self, data):
        files = ["a.sol", "b.sol"]
        entries = []
        for i in range(data.draw(st.integers(0, 12))):
            start = data.draw(st.integers(1, 25))
            entries.append(entry(f"b{i}",
                                 data.draw(st.sampled_from(list(BugType))),
                                 start, start + data.draw(st.integers(0, 8)),
                                 file=data.draw(st.sampled_from(files))))
        findings = [
            finding(data.draw(st.integers(1, 35)),
                    data.draw(st.sampled_from([*BugType, None])),
                    file=data.draw(st.sampled_from(files)))
            for _ in range(data.draw(st.integers(0, 14)))]
        slack = data.draw(st.integers(0, 3))
        scores = evaluate_campaign(entries, {"t1": findings},
                                   {"t1": frozenset(BugType)}, {}, {},
                                   line_slack=slack).scores["t1"]
        first_seen = dict.fromkeys(e.bug_type for e in entries)
        assert score_false_negatives(entries, findings, slack) == \
            _concatenated([FNScore(0, 0, 0, 0)] +
                          [scores[bug_type] for bug_type in first_seen])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_counts_partition_the_injected_set(self, data):
        n = data.draw(st.integers(1, 8))
        entries = []
        for i in range(n):
            start = data.draw(st.integers(1, 30))
            end = start + data.draw(st.integers(0, 5))
            bug_type = data.draw(st.sampled_from(list(BugType)))
            entries.append(entry(f"b{i}", bug_type, start, end))
        findings = [
            finding(data.draw(st.integers(1, 40)),
                    data.draw(st.sampled_from(list(BugType))))
            for _ in range(data.draw(st.integers(0, 10)))
        ]
        score = score_false_negatives(entries, findings)
        assert score.injected == n
        assert score.detected + score.misidentified + score.unreported == n
        ids = (set(score.detected_bug_ids) | set(score.misidentified_bug_ids)
               | set(score.unreported_bug_ids))
        assert ids == {e.bug_id for e in entries}
        assert len(score.detected_bug_ids) == score.detected
        assert len(score.misidentified_bug_ids) == score.misidentified
        assert len(score.unreported_bug_ids) == score.unreported


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_line_index_matches_the_pairwise_scan(self, data):
        files = ["a.sol", "b.sol", "c.sol"]
        entries = []
        for i in range(data.draw(st.integers(0, 14))):
            start = data.draw(st.integers(1, 30))
            # mostly short ranges, some hulls that nest the short ones
            width = data.draw(st.one_of(st.integers(0, 4), st.integers(5, 40)))
            entries.append(entry(f"b{i % 5}",
                                 data.draw(st.sampled_from(list(BugType))),
                                 start, start + width,
                                 file=data.draw(st.sampled_from(files))))
        findings = [
            finding(data.draw(st.integers(1, 45)),
                    data.draw(st.sampled_from([*BugType, None])),
                    file=data.draw(st.sampled_from(files + ["d.sol"])),
                    tool=data.draw(st.sampled_from(["t1", "t2", "t3"])))
            for _ in range(data.draw(st.integers(0, 16)))
        ]
        slack = data.draw(st.integers(0, 3))
        by_type = {}  # the entries of each type, types in first-seen order
        for e in entries:
            by_type.setdefault(e.bug_type, []).append(e)
        score = score_false_negatives(entries, findings, slack)
        assert _counts(score) == _counts(_concatenated(
            [FNScore(0, 0, 0, 0)] + [_pairwise_score(group, findings, slack)
                                     for group in by_type.values()]))
        # ids never steer the matching; with distinct ids, they name one
        unique = _unique_ids(entries)
        distinct = score_false_negatives(unique, findings, slack)
        assert _relabelled(distinct, entries) == score
        _assert_realisable(distinct, unique, findings, slack)

    @pytest.mark.parametrize("slack", [0, 1])
    def test_counts_are_the_brute_force_maxima_of_every_small_graph(
            self, slack):
        # one file and one bug type: every multiset of up to three ranges
        # on four lines against every multiset of up to four findings
        # there, each of the type or not. The most pairs of a finding of
        # the type, and the most pairs, are found by trying every matching.
        lines = range(1, 5)
        ranges = [(a, b) for a in lines for b in lines if a <= b]
        points = [(line, bug_type) for line in lines
                  for bug_type in (BugType.TOD, BugType.REENTRANCY)]
        for n in range(4):
            for spans in itertools.combinations_with_replacement(ranges, n):
                entries = [entry(f"b{i}", BugType.TOD, a, b)
                           for i, (a, b) in enumerate(spans)]
                for m in range(5):
                    for marks in itertools.combinations_with_replacement(
                            points, m):
                        findings = [finding(line, bug_type)
                                    for line, bug_type in marks]
                        score = score_false_negatives(entries, findings,
                                                      slack)
                        typed = [f for f in findings
                                 if f.reported_type is BugType.TOD]
                        assert (score.detected,
                                score.detected + score.misidentified) == (
                            _most_pairs(entries, typed, slack),
                            _most_pairs(entries, findings, slack))

    def test_huge_range_and_slack_are_not_expanded(self):
        entries = [entry("b0", BugType.TOD, 1, 10**12),
                   entry("b1", BugType.TOD, 5, 5)]
        findings = [finding(2 * 10**12, BugType.TOD),
                    finding(5, BugType.REENTRANCY)]
        score = score_false_negatives(entries, findings, line_slack=10**12)
        assert score.detected_bug_ids == ("b0",)
        assert score.misidentified_bug_ids == ("b1",)


    def test_many_findings_open_to_every_entry_need_no_deep_stack(self):
        # every finding lies in every entry's range, so all n entries are
        # open at each finding; the sweeps are loops, and the stack is
        # allowed 100 more frames than this
        n = 300
        entries = [entry(f"b{i}", BugType.TOD, 1, 10) for i in range(n)]
        findings = [finding(5, BugType.TOD) for _ in range(n)]
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            score = score_false_negatives(entries, findings)
        finally:
            sys.setrecursionlimit(limit)
        assert score.detected == n


def _concatenated(scores: list[FNScore]) -> FNScore:
    """One score holding ``scores`` in order: counts added, ids joined."""
    return FNScore(*(sum(rest, first) for first, *rest
                     in zip(*scores)))


def _counts(score: FNScore) -> tuple[int, int, int, int]:
    return score.injected, score.detected, score.misidentified, \
        score.unreported


def _unique_ids(entries):
    """``entries`` with the distinct ids ``u0``, ``u1``, ... in order."""
    return [e._replace(bug_id=f"u{i}") for i, e in enumerate(entries)]


def _relabelled(score: FNScore, entries) -> FNScore:
    """``score``, of ``_unique_ids(entries)``, with the ids of ``entries``."""
    def back(ids):
        return tuple(entries[int(bug_id[1:])].bug_id for bug_id in ids)
    return FNScore(*_counts(score), back(score.detected_bug_ids),
                   back(score.misidentified_bug_ids),
                   back(score.unreported_bug_ids))


def _in_range(entry, finding, line_slack):
    return finding.file == entry.file and \
        entry.start_line - line_slack <= finding.line \
        <= entry.end_line + line_slack


def _assert_realisable(score, entries, findings, line_slack):
    """A Kuhn search finds, for ``score`` of ``entries`` (distinct ids)
    against ``findings``, one matching per bug type that pairs each
    detected entry with a finding of its type and each misidentified entry
    with a finding of another type, each on a line the entry covers and no
    finding twice."""
    detected = set(score.detected_bug_ids)
    edges = {e.bug_id: [(e.bug_type, j) for j, f in enumerate(findings)
                        if _in_range(e, f, line_slack)
                        and (f.reported_type is e.bug_type)
                        == (e.bug_id in detected)]
             for e in entries if e.bug_id in detected
             or e.bug_id in score.misidentified_bug_ids}
    owner: dict[tuple, str] = {}  # (bug type, finding) -> entry id

    def augment(bug_id, seen):
        for node in edges[bug_id]:
            if node not in seen:
                seen.add(node)
                if node not in owner or augment(owner[node], seen):
                    owner[node] = bug_id
                    return True
        return False

    assert all(augment(bug_id, set()) for bug_id in edges)


def _most_pairs(entries, findings, line_slack):
    """The size of a maximum matching of ``entries`` to ``findings`` on
    lines they cover, found by trying every matching: the sets of entries,
    as bit masks, that the findings seen so far can take, grown one finding
    at a time."""
    taken = {0}
    for f in findings:
        bits = [1 << i for i, e in enumerate(entries)
                if _in_range(e, f, line_slack)]
        taken |= {held | bit for held in taken for bit in bits
                  if not held & bit}
    return max(held.bit_count() for held in taken)


def _pairwise_score(entries, findings, line_slack=0):
    """The FN matcher as it was before the line index: each finding scanned
    against every entry of its file, twice."""
    entry_order = sorted(
        range(len(entries)),
        key=lambda i: (entries[i].end_line - entries[i].start_line,
                       entries[i].start_line, entries[i].bug_id))
    # pairs never cross files, so scan per file
    per_file = {}
    for i in entry_order:
        per_file.setdefault(entries[i].file, []).append(i)
    edges: list[list[int]] = []
    typed: list[bool] = []
    for finding in findings:
        local = per_file.get(finding.file, ())
        same = [i for i in local
                if entries[i].bug_type is finding.reported_type
                and _in_range(entries[i], finding, line_slack)]
        if same:
            edges.append(same)
            typed.append(True)
        else:
            edges.append([i for i in local
                          if _in_range(entries[i], finding, line_slack)])
            typed.append(False)

    owner: dict[int, int] = {}

    def augment(f_idx: int, seen: set[int]) -> bool:
        for e_idx in edges[f_idx]:
            if e_idx in seen:
                continue
            seen.add(e_idx)
            if e_idx not in owner or augment(owner[e_idx], seen):
                owner[e_idx] = f_idx
                return True
        return False

    finding_order = sorted(
        range(len(findings)),
        key=lambda j: (not typed[j], findings[j].line, findings[j].tool, j))
    for f_idx in finding_order:
        if edges[f_idx]:
            augment(f_idx, set())

    detected_ids, mis_ids, unreported_ids = [], [], []
    for i, entry in enumerate(entries):
        f_idx = owner.get(i)
        if f_idx is None:
            unreported_ids.append(entry.bug_id)
        elif findings[f_idx].reported_type is entry.bug_type:
            detected_ids.append(entry.bug_id)
        else:
            mis_ids.append(entry.bug_id)
    return FNScore(len(entries), len(detected_ids), len(mis_ids),
                   len(unreported_ids), tuple(detected_ids), tuple(mis_ids),
                   tuple(unreported_ids))


def _pairwise_majority(findings, entries, thresholds, line_slack=0):
    """The candidates, suspects and miscellaneous findings of the majority
    filter, each finding scanned against every entry."""
    candidates = [f for f in findings if not any(
        e.file == f.file
        and e.start_line - line_slack <= f.line <= e.end_line + line_slack
        for e in entries)]
    tools_at: dict[tuple, set[str]] = {}
    for f in candidates:
        tools_at.setdefault((f.file, f.line, f.reported_type), set()).add(
            f.tool)
    suspects = [f for f in candidates if f.reported_type is not None
                and len(tools_at[f.file, f.line, f.reported_type])
                < thresholds[f.reported_type]]
    misc = [f for f in candidates if f.reported_type is None]
    return candidates, suspects, misc


def _pairwise_evaluation(entries, findings_by_tool, capabilities,
                         truth_extras, line_slack, sample_size, seed):
    """``evaluate_campaign`` without ``confirmed`` counts, from the pairwise
    references: one ``_pairwise_score`` per tool and bug type, of the
    entries of that type against the tool's findings in their files."""
    tools = sorted(t for t in findings_by_tool if t in capabilities)
    scores = {}
    for tool in tools:
        scores[tool] = {}
        for bug_type in dict.fromkeys(e.bug_type for e in entries):
            if bug_type in capabilities[tool]:
                members = [e for e in entries if e.bug_type is bug_type]
                files = {e.file for e in members}
                scores[tool][bug_type] = _pairwise_score(
                    members, [f for f in findings_by_tool[tool]
                              if f.file in files], line_slack)
    thresholds = derive_thresholds(capabilities)
    candidates, suspects, misc = _pairwise_majority(
        [f for tool in tools for f in findings_by_tool[tool]], entries,
        thresholds, line_slack)
    cells = {}
    for tool in tools:
        cells[tool] = {}
        for bug_type in capabilities[tool]:
            filtered = [f for f in suspects if f.tool == tool
                        and f.reported_type is bug_type]
            sample = sample_for_inspection(
                filtered, sample_size,
                child_seed(seed, "sample", tool, bug_type.value))
            confirmed = len(sample) if tool not in truth_extras else sum(
                (f.file, f.line, f.type_label) in truth_extras[tool]
                for f in sample)
            cells[tool][bug_type] = FPCell(
                sum(f.tool == tool and f.reported_type is bug_type
                    for f in candidates),
                len(filtered),
                estimate_false_positives(len(filtered), len(sample),
                                         confirmed))
    return Evaluation(scores, cells, Counter(f.tool for f in misc),
                      thresholds,
                      tuple(sorted(set(findings_by_tool) - set(tools))))


class TestMajorityFilter:
    """The FP step: ``evaluate_campaign`` sets aside the findings on lines
    bugs cover, and ``filter_by_majority`` splits the rest by agreement.
    The set-aside is read through the cells: with three capable tools, each
    type's threshold is 2, so a finding of one tool that is not set aside is
    reported and filtered, and a truth file that lists it confirms it."""

    THRESHOLDS = {bt: 2 for bt in BugType}
    CAPS = {tool: frozenset(BugType) for tool in ("t1", "t2", "t3")}

    def test_injected_line_findings_never_become_candidates(self):
        entries = [entry("b0", BugType.TOD, 4, 6)]
        findings = [finding(5, BugType.REENTRANCY),
                    finding(9, BugType.REENTRANCY)]
        cells = evaluate_campaign(
            entries, {"t1": findings}, self.CAPS,
            {"t1": {("a.sol", 9, "Reentrancy")}}, {}).cells
        # the one candidate is the finding on line 9
        assert cells["t1"][BugType.REENTRANCY] == FPCell(1, 1, 1)

    def test_overlapping_and_huge_ranges_cover_their_lines(self):
        # a range is checked by its ends, never expanded line by line
        entries = [entry("b0", BugType.TOD, 2, 10**12),
                   entry("b1", BugType.TOD, 3, 4),
                   entry("b2", BugType.TOD, 7, 7, file="b.sol")]
        findings = [finding(line, BugType.REENTRANCY, file=file)
                    for file, line in [("a.sol", 1), ("a.sol", 2),
                                       ("a.sol", 5), ("a.sol", 10**12),
                                       ("a.sol", 10**12 + 1), ("b.sol", 6),
                                       ("b.sol", 7), ("b.sol", 8),
                                       ("c.sol", 7)]]
        candidates = [("a.sol", 1), ("a.sol", 10**12 + 1), ("b.sol", 6),
                      ("b.sol", 8), ("c.sol", 7)]
        cells = evaluate_campaign(
            entries, {"t1": findings}, self.CAPS,
            {"t1": {(file, line, "Reentrancy") for file, line in candidates}},
            {}).cells
        # five candidates, each one of those listed
        assert cells["t1"][BugType.REENTRANCY] == FPCell(5, 5, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_no_finding_fn_matching_can_pair_is_a_candidate(self, data):
        files = ["a.sol", "b.sol"]
        entries = []
        for i in range(data.draw(st.integers(0, 10))):
            start = data.draw(st.integers(1, 30))
            entries.append(entry(f"b{i}",
                                 data.draw(st.sampled_from(list(BugType))),
                                 start, start + data.draw(st.integers(0, 6)),
                                 file=data.draw(st.sampled_from(files))))
        findings = [
            finding(data.draw(st.integers(1, 45)),
                    data.draw(st.sampled_from([*BugType, None])),
                    file=data.draw(st.sampled_from(files + ["c.sol"])),
                    tool=data.draw(st.sampled_from(["t1", "t2", "t3"])))
            for _ in range(data.draw(st.integers(0, 16)))]
        slack = data.draw(st.integers(0, 5))
        result = evaluate_campaign(
            entries, {tool: [f for f in findings if f.tool == tool]
                      for tool in self.CAPS}, self.CAPS, {}, {},
            line_slack=slack)
        # a finding that FN matching pairs with a bug also pairs on its own
        def pairs(f):
            score = score_false_negatives(entries, [f], slack)
            return score.detected + score.misidentified

        unpaired = Counter((f.tool, f.reported_type) for f in findings
                           if not pairs(f))
        assert {(tool, bug_type): cell.reported
                for tool, cells in result.cells.items()
                for bug_type, cell in cells.items() if cell.reported} == {
            key: n for key, n in unpaired.items() if key[1] is not None}
        assert result.misc_counts == Counter(
            {tool: n for (tool, bug_type), n in unpaired.items()
             if bug_type is None})

    def test_agreement_at_threshold_excludes(self):
        findings = [finding(9, BugType.TOD, tool="t1"),
                    finding(9, BugType.TOD, tool="t2")]
        res = filter_by_majority(findings, self.THRESHOLDS)
        assert len(res.excluded) == 2
        assert res.filtered == ()

    def test_agreement_below_threshold_filters(self):
        findings = [finding(9, BugType.TOD, tool="t1")]
        res = filter_by_majority(findings, self.THRESHOLDS)
        assert res.filtered == (findings[0],)
        assert res.excluded == ()

    def test_same_tool_repeating_itself_is_not_agreement(self):
        findings = [finding(9, BugType.TOD, tool="t1"),
                    finding(9, BugType.TOD, tool="t1")]
        res = filter_by_majority(findings, self.THRESHOLDS)
        assert len(res.filtered) == 2

    def test_agreement_requires_same_line_and_type(self):
        findings = [finding(9, BugType.TOD, tool="t1"),
                    finding(9, BugType.REENTRANCY, tool="t2"),
                    finding(10, BugType.TOD, tool="t3")]
        res = filter_by_majority(findings, self.THRESHOLDS)
        assert len(res.filtered) == 3

    def test_unknown_type_routes_to_miscellaneous(self):
        findings = [finding(9, None, tool="t1"),
                    finding(9, None, tool="t2")]
        res = filter_by_majority(findings, self.THRESHOLDS)
        assert len(res.miscellaneous) == 2
        assert res.filtered == () and res.excluded == ()

    def test_missing_threshold_is_an_error(self):
        findings = [finding(9, BugType.TOD)]
        with pytest.raises(MissingThreshold):
            filter_by_majority(findings, {})


class TestThresholds:
    def test_strict_majority_of_capable_tools(self):
        caps = {
            "t1": frozenset({BugType.TOD, BugType.REENTRANCY}),
            "t2": frozenset({BugType.TOD, BugType.REENTRANCY}),
            "t3": frozenset({BugType.TOD}),
            "t4": frozenset({BugType.TOD}),
            "t5": frozenset({BugType.TOD}),
            "t6": frozenset({BugType.TOD}),
        }
        got = derive_thresholds(caps)
        assert got[BugType.TOD] == 4          # 6 capable
        assert got[BugType.REENTRANCY] == 2   # 2 capable
        assert got[BugType.TX_ORIGIN] == 1    # none capable

    def test_bundled_capabilities_load(self, capabilities):
        thresholds = derive_thresholds(capabilities)
        assert set(thresholds) == set(BugType)
        assert all(t >= 1 for t in thresholds.values())

    def test_unknown_type_name_rejected(self):
        with pytest.raises(ValueError):
            load_capabilities(json.dumps({"t": ["Reentrancy", "BadName"]}))

    def test_evaluator_still_serves_load_capabilities(self):
        # it lives in model; perfbench/run.py's set-up sample and
        # tests/conftest.py import it from the evaluator
        assert evaluator.load_capabilities is model.load_capabilities


class TestSampling:
    def test_small_sets_pass_through_in_order(self):
        findings = [finding(i, BugType.TOD) for i in range(1, 6)]
        assert sample_for_inspection(findings, size=20) == findings

    def test_large_sets_sampled_deterministically(self):
        findings = [finding(i, BugType.TOD) for i in range(1, 101)]
        first = sample_for_inspection(findings, size=20, seed=9)
        second = sample_for_inspection(findings, size=20, seed=9)
        assert first == second
        assert len(first) == 20
        assert set(first) <= set(findings)
        assert sample_for_inspection(findings, size=20, seed=10) != first


class TestEstimation:
    def test_proportional_extrapolation(self):
        assert estimate_false_positives(40, 20, 16) == 32

    def test_rounds_half_away_from_zero(self):
        assert estimate_false_positives(5, 2, 1) == 3  # 2.5 rounds up

    def test_zero_sampled_means_zero_estimate(self):
        assert estimate_false_positives(10, 0, 0) == 0

    @pytest.mark.parametrize("filtered, sampled, confirmed", [
        (10, 20, 5),    # sampled beyond the filtered set
        (10, 5, 6),     # confirmed beyond the sample
        (10, 5, -1),
    ])
    def test_inconsistent_counts_rejected(self, filtered, sampled, confirmed):
        with pytest.raises(DomainError):
            estimate_false_positives(filtered, sampled, confirmed)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_estimate_stays_within_the_filtered_set(self, data):
        filtered = data.draw(st.integers(0, 500))
        sampled = data.draw(st.integers(0, filtered))
        confirmed = data.draw(st.integers(0, sampled))
        got = estimate_false_positives(filtered, sampled, confirmed)
        assert 0 <= got <= filtered
        if sampled and confirmed == sampled:
            assert got == filtered


def test_each_bug_is_widened_once_and_each_sweep_is_linear(
        corpus_sources, pool, capabilities, monkeypatch):
    """Over the bundled campaign, ``evaluate_campaign`` widens each entry
    once, for every tool's matching and the FP set-aside, however many
    tools it scores; and the sweeps of one tool and bug type push at most
    two heap items per entry of that type, whatever the line slack."""
    buglogs, line_counts = {}, {}
    for name, text in corpus_sources.items():
        unit = parse(text)
        for bug_type in BugType:
            out_name = f"{name[:-len('.sol')]}.{bug_type.value}.sol"
            result = inject_file(unit, bug_type, pool, out_name)
            buglogs[out_name] = result.entries
            line_counts[out_name] = result.text.count("\n") + 1
    entries = [e for name in sorted(buglogs) for e in buglogs[name]]
    open_lines = uninjected_lines(buglogs, line_counts)
    spec = OracleSpec(miss_rate=0.3, mistype_rate=0.2, extra_per_file=5,
                      seed=1)
    reports = {tool: ingest_report(json.dumps(generate_tool_report(
        tool, capable, buglogs, open_lines, spec)[0]))
        for tool, capable in capabilities.items()}

    widenings: Counter = Counter()
    pushes = [0]
    work = []  # (heap pushes, entries) of each tool and bug type
    real_widened, real_push = evaluator.widened, evaluator.heappush
    real_score = evaluator._fn_score

    def widened(entry, slack=0):
        widenings[id(entry)] += 1
        return real_widened(entry, slack)

    def heappush(heap, item):
        pushes[0] += 1
        real_push(heap, item)

    def fn_score(group, spans, by_file):
        before = pushes[0]
        score = real_score(group, spans, by_file)
        work.append((pushes[0] - before, len(group)))
        return score

    monkeypatch.setattr(evaluator, "widened", widened)
    monkeypatch.setattr(evaluator, "heappush", heappush)
    monkeypatch.setattr(evaluator, "_fn_score", fn_score)
    for copies in (1, 3):
        caps = {f"{tool}{k}": capable for tool, capable in capabilities.items()
                for k in range(copies)}
        findings = {f"{tool}{k}": [f._replace(tool=f"{tool}{k}")
                                   for f in reports[tool]]
                    for tool in capabilities for k in range(copies)}
        for slack in (0, 10**6):
            widenings.clear()
            work.clear()
            evaluate_campaign(entries, findings, caps, {}, {}, slack)
            assert len(widenings) == len(entries)
            assert set(widenings.values()) == {1}
            assert len(work) == sum(map(len, caps.values()))
            assert all(n <= 2 * size for n, size in work)
            assert sum(n for n, _ in work) > 0


class TestRendering:
    def test_cell_shows_missed_and_unreported(self):
        assert fn_cell(1343, 1237, 106) == "1343 (106)"

    def test_cell_check_mark_when_nothing_missed(self):
        assert fn_cell(50, 0, 0) == "✓"

    def test_cell_na_when_out_of_scope_or_empty(self):
        assert fn_cell(50, 1, 2, capable=False) == "NA"
        assert fn_cell(0, 0, 0) == "NA"

    def test_fn_table_scopes_by_capability(self):
        scores = {"t1": {BugType.TOD: FNScore(10, 8, 1, 1)},
                  "t2": {BugType.TOD: FNScore(10, 10, 0, 0)}}
        caps = {"t1": frozenset({BugType.TOD}), "t2": frozenset()}
        table = render_fn_table(scores, caps)
        lines = table.strip().split("\n")
        assert lines[0] == "| Bug type | t1 | t2 |"
        assert len(lines) == 2 + len(BugType)
        tod_row = next(l for l in lines if l.startswith("| TOD"))
        assert tod_row == "| TOD | 2 (1) | NA |"

    def test_fp_table_shows_thresholds_and_misc(self):
        cells = {"t1": {BugType.TOD: FPCell(47, 44, 44)}}
        table = render_fp_table(cells, {BugType.TOD: 3}, {"t1": 5})
        lines = table.strip().split("\n")
        assert lines[0] == "| Bug type | Threshold | t1 (Reported/FIL/FP) |"
        assert "| TOD | 3 | 47/44/44 |" in lines
        assert f"| {MISCELLANEOUS} | - | 5/-/- |" in lines
        missing = next(l for l in lines if l.startswith("| Reentrancy"))
        assert missing.endswith("| NA |")


class TestEvaluateCampaign:
    """Two capable tools and one tool missing from the capabilities. Bug ids
    restart per file, so ``b0`` is a TOD bug in a.sol and a Reentrancy bug
    in b.sol."""

    ENTRIES = [entry("b0", BugType.TOD, 3, 4),
               entry("b1", BugType.REENTRANCY, 10, 10),
               entry("b0", BugType.REENTRANCY, 5, 5, file="b.sol")]
    CAPS = {"t1": frozenset({BugType.TOD, BugType.REENTRANCY}),
            "t2": frozenset({BugType.TOD})}
    FINDINGS = {
        "t1": [finding(3, BugType.TOD),          # detects a.sol b0
               finding(10, BugType.TOD),         # misidentifies a.sol b1
               finding(20, BugType.TOD),         # t2 agrees: excluded
               finding(21, BugType.TOD),
               finding(22, BugType.TOD),
               finding(30, None)],               # miscellaneous
        "t2": [finding(20, BugType.TOD, tool="t2"),
               finding(40, BugType.TOD, tool="t2"),
               finding(5, BugType.TOD, file="b.sol", tool="t2")],
        "t3": [finding(50, BugType.TOD, tool="t3")],
    }

    def run(self, truth_extras=None, confirmed=None, sample_size=20):
        return evaluate_campaign(self.ENTRIES, self.FINDINGS, self.CAPS,
                                 truth_extras or {}, confirmed or {},
                                 sample_size=sample_size, seed=7)

    def test_fn_scores_split_by_type_within_each_file(self):
        got = self.run().scores
        assert set(got) == {"t1", "t2"}
        assert got["t1"][BugType.TOD] == FNScore(1, 1, 0, 0, ("b0",), (), ())
        assert got["t1"][BugType.REENTRANCY] == \
            FNScore(2, 0, 1, 1, (), ("b1",), ("b0",))
        assert got["t2"] == {BugType.TOD: FNScore(1, 0, 0, 1, (), (), ("b0",))}

    def test_fp_cells_without_truth_or_confirmed_counts_confirm_all(self):
        result = self.run()
        assert result.thresholds[BugType.TOD] == 2
        assert result.cells == {
            "t1": {BugType.TOD: FPCell(3, 2, 2),
                   BugType.REENTRANCY: FPCell(0, 0, 0)},
            "t2": {BugType.TOD: FPCell(2, 1, 1)}}
        assert (result.misc_counts["t1"], result.misc_counts["t2"]) == (1, 0)

    def test_confirmed_counts_scale_the_sample(self):
        cells = self.run(confirmed={"t1": {"TOD": 1}}).cells
        assert cells["t1"][BugType.TOD] == FPCell(3, 2, 1)
        assert cells["t2"][BugType.TOD] == FPCell(2, 1, 1)  # default: all

    def test_truth_extras_win_over_confirmed_counts(self):
        cells = self.run(truth_extras={"t1": {("a.sol", 21, "TOD")}},
                         confirmed={"t1": {"TOD": 0}, "t2": {"TOD": 0}}).cells
        assert cells["t1"][BugType.TOD] == FPCell(3, 2, 1)
        assert cells["t2"][BugType.TOD] == FPCell(2, 1, 0)

    def test_tool_missing_from_the_capabilities_is_listed(self):
        result = self.run()
        assert result.missing_tools == ("t3",)
        assert "t3" not in result.scores and "t3" not in result.cells

    def test_confirmed_count_above_the_sample_names_tool_and_type(self):
        assert self.run(confirmed={"t1": {"TOD": 1}},
                        sample_size=1).cells["t1"][BugType.TOD].estimated == 2
        with pytest.raises(DomainError, match="t1 TOD: confirmed count 2 "
                           "exceeds the 1 sampled"):
            self.run(confirmed={"t1": {"TOD": 2}}, sample_size=1)

    def test_empty_capability_set_rejected(self):
        with pytest.raises(ScopeError):
            evaluate_campaign(self.ENTRIES, self.FINDINGS,
                              {**self.CAPS, "t2": frozenset()}, {}, {})

    def test_a_repeated_id_counts_under_each_entrys_own_type(self):
        # ids may repeat within a file (a custom pool can make them), even
        # across types; each entry is scored under its own type
        entries = [entry("b0", BugType.TOD, 3, 3),
                   entry("b0", BugType.REENTRANCY, 9, 9)]
        caps = {"t1": frozenset({BugType.TOD, BugType.REENTRANCY})}
        scores = evaluate_campaign(entries, {"t1": [finding(3, BugType.TOD)]},
                                   caps, {}, {}).scores
        assert scores["t1"] == {
            BugType.TOD: FNScore(1, 1, 0, 0, ("b0",), (), ()),
            BugType.REENTRANCY: FNScore(1, 0, 0, 1, (), (), ("b0",))}

    def test_a_finding_pairs_with_one_bug_of_each_type(self):
        # each type is its own matching: the TOD finding detects the TOD bug
        # and, among the Reentrancy bugs, misidentifies the one on its line
        entries = [entry("b0", BugType.TOD, 3, 3),
                   entry("b1", BugType.REENTRANCY, 3, 3)]
        caps = {"t1": frozenset({BugType.TOD, BugType.REENTRANCY})}
        scores = evaluate_campaign(entries, {"t1": [finding(3, BugType.TOD)]},
                                   caps, {}, {}).scores
        assert scores["t1"] == {
            BugType.TOD: FNScore(1, 1, 0, 0, ("b0",), (), ()),
            BugType.REENTRANCY: FNScore(1, 0, 1, 0, (), ("b1",), ())}

    def test_a_finding_within_the_slack_of_a_bug_is_no_fp_candidate(self):
        # the finding detects b0 two lines away; it is not also a suspected
        # false positive
        caps = {tool: frozenset({BugType.TOD}) for tool in ("t1", "t2", "t3")}
        result = evaluate_campaign([entry("b0", BugType.TOD, 3, 3)],
                                   {"t1": [finding(5, BugType.TOD)]}, caps,
                                   {}, {}, line_slack=3)
        assert result.scores["t1"][BugType.TOD].detected_bug_ids == ("b0",)
        assert result.cells["t1"][BugType.TOD] == FPCell(0, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_scores_are_the_per_file_matchings_filed_by_type(self, data):
        # logs as inject writes them: each file holds bugs of one type, and
        # its entries are contiguous, with ids that restart per file
        type_of = {f"f{k}.sol": data.draw(st.sampled_from(list(BugType)))
                   for k in range(data.draw(st.integers(0, 4)))}
        entries = []
        for file, bug_type in type_of.items():
            for i in range(data.draw(st.integers(0, 6))):
                start = data.draw(st.integers(1, 30))
                entries.append(entry(f"b{i}", bug_type, start,
                                     start + data.draw(st.integers(0, 6)),
                                     file=file))
        caps, findings = {}, {}
        for tool in ("t1", "t2"):
            caps[tool] = frozenset(data.draw(
                st.sets(st.sampled_from(list(BugType)), min_size=1)))
            findings[tool] = [
                finding(data.draw(st.integers(1, 40)),
                        data.draw(st.sampled_from([*BugType, None])),
                        file=data.draw(st.sampled_from([*type_of, "x.sol"])),
                        tool=tool)
                for _ in range(data.draw(st.integers(0, 12)))]
        slack = data.draw(st.integers(0, 3))

        expected = {}
        for tool in caps:
            per_type: dict[BugType, list[FNScore]] = {}
            for file, bug_type in type_of.items():
                members = [e for e in entries if e.file == file]
                if members and bug_type in caps[tool]:
                    per_type.setdefault(bug_type, []).append(
                        score_false_negatives(
                            members,
                            [f for f in findings[tool] if f.file == file],
                            slack))
            expected[tool] = {bug_type: _concatenated(scores)
                              for bug_type, scores in per_type.items()}
        assert evaluate_campaign(entries, findings, caps, {}, {},
                                 line_slack=slack).scores == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_the_campaign_is_the_pairwise_reference(self, data):
        types = [BugType.TOD, BugType.REENTRANCY, BugType.TX_ORIGIN]
        files = ["a.sol", "b.sol", "c.sol"]
        entries = []
        for i in range(data.draw(st.integers(0, 16))):
            start = data.draw(st.integers(1, 30))
            # mostly short ranges, some hulls that nest the short ones
            width = data.draw(st.one_of(st.integers(0, 4), st.integers(5, 40)))
            entries.append(entry(f"b{i % 5}", data.draw(st.sampled_from(types)),
                                 start, start + width,
                                 file=data.draw(st.sampled_from(files))))
        caps, findings, truth = {}, {}, {}
        for tool in ("t1", "t2", "t3", "t4"):
            if tool != "t4":  # t4 reports but has no capabilities
                caps[tool] = frozenset(data.draw(st.sets(
                    st.sampled_from([*types, BugType.UNCHECKED_SEND]),
                    min_size=1)))
            findings[tool] = [
                finding(data.draw(st.integers(1, 45)),
                        data.draw(st.sampled_from([*types, None])),
                        file=data.draw(st.sampled_from(files + ["d.sol"])),
                        tool=tool)
                for _ in range(data.draw(st.integers(0, 14)))]
            if data.draw(st.booleans()):
                truth[tool] = {(f.file, f.line, f.type_label)
                               for f in findings[tool]
                               if data.draw(st.booleans())}
        slack = data.draw(st.integers(0, 5))
        sample_size, seed = data.draw(st.integers(1, 3)), data.draw(
            st.integers(0, 3))
        result = evaluate_campaign(entries, findings, caps, truth, {}, slack,
                                   sample_size, seed)
        reference = _pairwise_evaluation(entries, findings, caps, truth,
                                         slack, sample_size, seed)
        assert result._replace(scores={}) == reference._replace(scores={})
        assert {tool: {bug_type: _counts(score) for bug_type, score
                       in scores.items()}
                for tool, scores in result.scores.items()} == \
            {tool: {bug_type: _counts(score) for bug_type, score
                    in scores.items()}
             for tool, scores in reference.scores.items()}
        # ids never steer the matching; with distinct ids, they name one
        unique = _unique_ids(entries)
        distinct = evaluate_campaign(unique, findings, caps, truth, {},
                                     slack, sample_size, seed).scores
        assert {tool: {bug_type: _relabelled(score, entries)
                       for bug_type, score in scores.items()}
                for tool, scores in distinct.items()} == result.scores
        for tool, scores in distinct.items():
            for score in scores.values():
                _assert_realisable(score, unique, findings[tool], slack)

    def test_csv_rows_carry_the_table_cells(self):
        result = self.run()
        fn_rows = fn_csv(result.scores, self.CAPS).splitlines()
        assert "t1,Reentrancy,2,0,1,1,2 (1)" in fn_rows
        assert "t1,TOD,1,1,0,0,✓" in fn_rows
        assert "t2,Reentrancy,0,0,0,0,NA" in fn_rows
        fp_rows = fp_csv(result.cells, result.thresholds,
                         result.misc_counts).splitlines()
        assert "t1,TOD,2,3,2,2" in fp_rows
        assert f"t1,{MISCELLANEOUS},,1,," in fp_rows
        assert not any(row.startswith("t2,Reentrancy") for row in fp_rows)
