"""Report ingestion, false-negative matching, majority filtering, sampling,
extrapolation, and table rendering."""

import json
import sys
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solbugsmith.buglog import BugLogEntry
from solbugsmith.errors import (DomainError, FormatError, MissingThreshold,
                                ScopeError)
from solbugsmith.evaluator import (MISCELLANEOUS, Finding, FNScore, FPCell,
                                   derive_thresholds,
                                   estimate_false_positives,
                                   evaluate_campaign, filter_by_majority,
                                   fn_cell, fn_csv, fp_csv, ingest_report,
                                   load_capabilities, render_fn_table,
                                   render_fp_table, report_tool,
                                   restrict_to_scope,
                                   sample_for_inspection,
                                   score_false_negatives)
from solbugsmith.model import Approach, BugType


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
        assert got[1].message == "odd"

    @pytest.mark.parametrize("label", [["Reentrancy"], 7, None, {"a": 1},
                                       "reentrancy", "Miscellaneous"])
    def test_a_label_that_names_no_bug_type_is_miscellaneous(self, label):
        text = json.dumps([{"file": "a.sol", "line": 3, "type": label}])
        (got,) = ingest_report(text, tool="t")
        assert got.reported_type is None
        assert got.type_label == MISCELLANEOUS

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
        assert err.value.line == index

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


class TestScope:
    def test_out_of_scope_entries_dropped(self):
        entries = [entry("b0", BugType.REENTRANCY, 1, 2),
                   entry("b1", BugType.TOD, 3, 4)]
        kept = restrict_to_scope(entries, {BugType.TOD})
        assert [e.bug_id for e in kept] == ["b1"]

    def test_empty_capability_set_rejected(self):
        with pytest.raises(ScopeError):
            restrict_to_scope([], frozenset())


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
        assert score_false_negatives(entries, findings, slack) == \
            _pairwise_score(entries, findings, slack)

    def test_huge_range_and_slack_are_not_expanded(self):
        entries = [entry("b0", BugType.TOD, 1, 10**12),
                   entry("b1", BugType.TOD, 5, 5)]
        findings = [finding(2 * 10**12, BugType.TOD),
                    finding(5, BugType.REENTRANCY)]
        score = score_false_negatives(entries, findings, line_slack=10**12)
        assert score.detected_bug_ids == ("b0",)
        assert score.misidentified_bug_ids == ("b1",)


    def test_a_long_augmenting_path_needs_no_deep_stack(self):
        # every finding covers every entry, so the k-th finding's augmenting
        # path has k links; the stack is allowed 100 more frames than this
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
                     in zip(*map(astuple, scores))))


def _pairwise_score(entries, findings, line_slack=0):
    """The FN matcher as it was before the line index: each finding scanned
    against every entry of its file, twice."""
    def in_range(entry: BugLogEntry, finding: Finding) -> bool:
        return finding.file == entry.file and \
            entry.start_line - line_slack <= finding.line \
            <= entry.end_line + line_slack

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
                and in_range(entries[i], finding)]
        if same:
            edges.append(same)
            typed.append(True)
        else:
            edges.append([i for i in local
                          if in_range(entries[i], finding)])
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


class TestMajorityFilter:
    THRESHOLDS = {bt: 2 for bt in BugType}

    def test_injected_line_findings_never_become_candidates(self):
        entries = [entry("b0", BugType.TOD, 4, 6)]
        findings = [finding(5, BugType.REENTRANCY),
                    finding(9, BugType.REENTRANCY)]
        res = filter_by_majority(findings, entries, self.THRESHOLDS)
        assert [f.line for f in res.candidates] == [9]

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
        res = filter_by_majority(findings, entries, self.THRESHOLDS)
        assert [(f.file, f.line) for f in res.candidates] == [
            ("a.sol", 1), ("a.sol", 10**12 + 1), ("b.sol", 6), ("b.sol", 8),
            ("c.sol", 7)]

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
        res = filter_by_majority(findings, entries, self.THRESHOLDS, slack)
        # a finding that FN matching pairs with a bug also pairs on its own
        for candidate in res.candidates:
            score = score_false_negatives(entries, [candidate], slack)
            assert score.detected + score.misidentified == 0, candidate

    def test_agreement_at_threshold_excludes(self):
        findings = [finding(9, BugType.TOD, tool="t1"),
                    finding(9, BugType.TOD, tool="t2")]
        res = filter_by_majority(findings, [], self.THRESHOLDS)
        assert len(res.excluded) == 2
        assert res.filtered == ()

    def test_agreement_below_threshold_filters(self):
        findings = [finding(9, BugType.TOD, tool="t1")]
        res = filter_by_majority(findings, [], self.THRESHOLDS)
        assert res.filtered == (findings[0],)
        assert res.excluded == ()

    def test_same_tool_repeating_itself_is_not_agreement(self):
        findings = [finding(9, BugType.TOD, tool="t1"),
                    finding(9, BugType.TOD, tool="t1")]
        res = filter_by_majority(findings, [], self.THRESHOLDS)
        assert len(res.filtered) == 2

    def test_agreement_requires_same_line_and_type(self):
        findings = [finding(9, BugType.TOD, tool="t1"),
                    finding(9, BugType.REENTRANCY, tool="t2"),
                    finding(10, BugType.TOD, tool="t3")]
        res = filter_by_majority(findings, [], self.THRESHOLDS)
        assert len(res.filtered) == 3

    def test_unknown_type_routes_to_miscellaneous(self):
        findings = [finding(9, None, tool="t1"),
                    finding(9, None, tool="t2")]
        res = filter_by_majority(findings, [], self.THRESHOLDS)
        assert len(res.miscellaneous) == 2
        assert res.filtered == () and res.excluded == ()

    def test_missing_threshold_is_an_error(self):
        findings = [finding(9, BugType.TOD)]
        with pytest.raises(MissingThreshold):
            filter_by_majority(findings, [], {})


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
