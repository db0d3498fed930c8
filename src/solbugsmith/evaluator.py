"""Score analyzer reports against injected ground truth.

False negatives: a maximum matching pairs bug-log entries with findings in
the same file whose line falls in the entry's range, type-correct pairs
first: findings that can pair with an entry of their reported type are
matched before those that can only pair by line (type misidentifications),
and each finding tries its entries tightest range first.

False positives: findings on injected lines are set aside, then a finding
is excluded from the suspect set when at least a threshold number of tools
agree on the same (file, line, type); the rest are suspected false
positives, confirmed by inspecting a fixed-size sample and extrapolating.

``evaluate_campaign`` applies both to every tool of a campaign; the
``render_*`` and ``*_csv`` functions turn its result into documents.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass

from .errors import (DomainError, FormatError, MalformedDocument,
                     MissingThreshold, ScopeError)
from .injector import BugLogEntry
from .model import BugType
from .oracle import child_seed

ADAPTERS = ("normalized-json", "synthetic-oracle")

MISCELLANEOUS = "Miscellaneous"


@dataclass(frozen=True)
class Finding:
    tool: str
    file: str
    line: int
    reported_type: BugType | None
    message: str = ""

    @property
    def type_label(self) -> str:
        return self.reported_type.value if self.reported_type else MISCELLANEOUS


def ingest_report(text: str, adapter: str = "normalized-json",
                  tool: str | None = None) -> list[Finding]:
    """Parse a report document into findings; unknown types become Miscellaneous."""
    if adapter not in ADAPTERS:
        raise FormatError(0, f"unknown adapter: {adapter!r}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(err.lineno, f"not valid JSON: {err.msg}") from None
    if adapter == "normalized-json":
        if not isinstance(doc, list):
            raise FormatError(0, "normalized report must be a JSON array")
        raw_findings = doc
        default_tool = tool
    else:
        if not isinstance(doc, dict) or "findings" not in doc:
            raise FormatError(0, "oracle report must have a findings array")
        raw_findings = doc["findings"]
        default_tool = doc.get("tool", tool)
        if not isinstance(raw_findings, list):
            raise FormatError(0, "findings must be an array")
    findings = []
    for idx, raw in enumerate(raw_findings, start=1):
        if not isinstance(raw, dict):
            raise FormatError(idx, "finding must be an object")
        name = raw.get("tool", default_tool)
        if not isinstance(name, str) or not name:
            raise FormatError(idx, "finding has no tool name")
        file = raw.get("file")
        if not isinstance(file, str) or not file:
            raise FormatError(idx, "finding has no file")
        line = raw.get("line")
        if not isinstance(line, int) or isinstance(line, bool) or line < 1:
            raise FormatError(idx, f"line must be a positive integer, got {line!r}")
        type_name = raw.get("type", MISCELLANEOUS)
        try:
            reported = BugType(type_name)
        except ValueError:
            reported = None
        message = raw.get("message", "")
        if not isinstance(message, str):
            raise FormatError(idx, "message must be a string")
        findings.append(Finding(name, file, line, reported, message))
    return findings


def restrict_to_scope(entries: list[BugLogEntry],
                      capable: frozenset[BugType] | set[BugType]) -> list[BugLogEntry]:
    """Keep only bugs the tool claims to detect; reject an empty capability set."""
    if not capable:
        raise ScopeError("capability set is empty")
    return [e for e in entries if e.bug_type in capable]


@dataclass(frozen=True)
class FNScore:
    injected: int
    detected: int
    misidentified: int
    unreported: int
    detected_bug_ids: tuple[str, ...] = ()
    misidentified_bug_ids: tuple[str, ...] = ()
    unreported_bug_ids: tuple[str, ...] = ()


def score_false_negatives(entries: list[BugLogEntry],
                          findings: list[Finding],
                          line_slack: int = 0) -> FNScore:
    """Match findings to bug-log entries, preferring type-correct pairings.

    Entry line ranges may overlap (shared context widens the owning entry),
    so a maximum matching is computed rather than a first-fit scan: first
    findings that can pair with an entry of their own type, then everything
    that can only pair by line. Augmentation never unmatches a finding, so
    type-correct pairings are never sacrificed for line-only ones.
    """
    def in_range(entry: BugLogEntry, finding: Finding) -> bool:
        return finding.file == entry.file and \
            entry.start_line - line_slack <= finding.line \
            <= entry.end_line + line_slack

    entry_order = sorted(
        range(len(entries)),
        key=lambda i: (entries[i].end_line - entries[i].start_line,
                       entries[i].start_line, entries[i].bug_id))
    # pairs never cross files, so scan per file
    per_file = _group(entry_order, lambda i: entries[i].file)
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


@dataclass(frozen=True)
class MajorityResult:
    candidates: tuple[Finding, ...]
    excluded: tuple[Finding, ...]
    filtered: tuple[Finding, ...]
    miscellaneous: tuple[Finding, ...]


def filter_by_majority(findings: list[Finding],
                       entries: list[BugLogEntry],
                       thresholds: dict[BugType, int]) -> MajorityResult:
    """Drop injected-line findings, then split the rest by tool agreement."""
    covered = {(e.file, line) for e in entries
               for line in range(e.start_line, e.end_line + 1)}
    candidates = [f for f in findings if (f.file, f.line) not in covered]
    by_key = _group(candidates, lambda f: (f.file, f.line, f.reported_type))
    support = {key: len({f.tool for f in group})
               for key, group in by_key.items()}

    excluded, filtered, misc = [], [], []
    for finding in candidates:
        if finding.reported_type is None:
            misc.append(finding)
            continue
        threshold = thresholds.get(finding.reported_type)
        if threshold is None:
            raise MissingThreshold(finding.reported_type)
        key = (finding.file, finding.line, finding.reported_type)
        if support[key] >= threshold:
            excluded.append(finding)
        else:
            filtered.append(finding)
    return MajorityResult(tuple(candidates), tuple(excluded),
                          tuple(filtered), tuple(misc))


def derive_thresholds(capabilities: dict[str, frozenset[BugType]]) \
        -> dict[BugType, int]:
    """Majority threshold per type: strictly more than half the capable tools."""
    thresholds = {}
    for bug_type in BugType:
        capable = sum(1 for caps in capabilities.values() if bug_type in caps)
        thresholds[bug_type] = capable // 2 + 1
    return thresholds


def sample_for_inspection(findings: list[Finding], size: int = 20,
                          seed: int = 0) -> list[Finding]:
    if len(findings) <= size:
        return list(findings)
    return random.Random(seed).sample(findings, size)


def estimate_false_positives(filtered: int, sampled: int, confirmed: int) -> int:
    """Extrapolate confirmed/sampled over the filtered set, rounding half away."""
    if not 0 <= confirmed <= sampled <= filtered:
        raise DomainError(
            f"need 0 <= confirmed({confirmed}) <= sampled({sampled})"
            f" <= filtered({filtered})")
    if sampled == 0:
        return 0
    return (2 * filtered * confirmed + sampled) // (2 * sampled)


def load_capabilities(text: str) -> dict[str, frozenset[BugType]]:
    """``{tool: [bug type name, ...]}``; ValueError for any other shape, an
    empty list or an unknown bug type name."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not all(
            isinstance(names, list) and names
            and all(isinstance(n, str) for n in names)
            for names in doc.values()):
        raise ValueError("expected a JSON object mapping each tool to a "
                         "non-empty list of bug type names")
    return {tool: frozenset(map(BugType, names)) for tool, names in doc.items()}


def load_truth_extras(text: str) -> tuple[str, set[tuple[str, int, str]]]:
    """``(tool, {(file, line, type label)})`` of an oracle truth file: the
    findings the oracle planted off the injected lines."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("tool"), str):
            raise TypeError("expected a JSON object with a string tool")
        return doc["tool"], {(e["file"], e["line"], e["type"])
                             for e in doc.get("extras", ())}
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"no {exc} field" if isinstance(exc, KeyError) else exc
        raise MalformedDocument(f"malformed truth file: {reason}") from None


@dataclass(frozen=True)
class FPCell:
    reported: int
    filtered: int
    estimated: int


@dataclass(frozen=True)
class Evaluation:
    """Scores of every tool that has both findings and capabilities; the
    tools with findings but no capabilities are in ``missing_tools``."""

    scores: dict[str, dict[BugType, FNScore]]
    cells: dict[str, dict[BugType, FPCell]]
    misc_counts: dict[str, int]
    thresholds: dict[BugType, int]
    missing_tools: tuple[str, ...]


def evaluate_campaign(entries: list[BugLogEntry],
                      findings_by_tool: dict[str, list[Finding]],
                      capabilities: dict[str, frozenset[BugType]],
                      truth_extras: dict[str, set[tuple[str, int, str]]],
                      confirmed: dict[str, dict[str, int]],
                      line_slack: int = 0, sample_size: int = 20,
                      seed: int = 0) -> Evaluation:
    """FN scores per tool and type, and one FP cell per capable type. The
    confirmed count of a cell is its sampled findings listed in the tool's
    ``truth_extras``, else its ``confirmed`` count, else the whole sample;
    one above the sample is a ``DomainError`` naming the tool and type, and
    so are ``confirmed`` counts for a tool that is not evaluated."""
    tools = sorted(t for t in findings_by_tool if t in capabilities)
    unknown = sorted(set(confirmed) - set(tools))
    if unknown:
        raise DomainError(
            f"confirmed counts for tool(s) not evaluated: "
            f"{', '.join(map(repr, unknown))} (evaluated: {', '.join(tools)})")
    scores = {tool: _partition_scores(
                  restrict_to_scope(entries, capabilities[tool]),
                  findings_by_tool[tool], line_slack)
              for tool in tools}
    thresholds = derive_thresholds(capabilities)
    pooled = [f for tool in tools for f in findings_by_tool[tool]]
    majority = filter_by_majority(pooled, entries, thresholds)

    reported = Counter((f.tool, f.reported_type) for f in majority.candidates)
    suspects = _group(majority.filtered, lambda f: (f.tool, f.reported_type))
    cells: dict[str, dict[BugType, FPCell]] = {tool: {} for tool in tools}
    for tool in tools:
        for bug_type in sorted(capabilities[tool], key=lambda b: b.value):
            filtered = suspects.get((tool, bug_type), [])
            sample = sample_for_inspection(
                filtered, size=sample_size,
                seed=child_seed(seed, "sample", tool, bug_type.value))
            if tool in truth_extras:
                count = sum(1 for f in sample if (f.file, f.line, f.type_label)
                            in truth_extras[tool])
            else:
                count = confirmed.get(tool, {}).get(bug_type.value,
                                                    len(sample))
            if count > len(sample):
                raise DomainError(
                    f"{tool} {bug_type.value}: confirmed count {count} "
                    f"exceeds the {len(sample)} sampled finding(s)")
            cells[tool][bug_type] = FPCell(
                reported[tool, bug_type], len(filtered),
                estimate_false_positives(len(filtered), len(sample), count))
    misc = Counter(f.tool for f in majority.miscellaneous)
    missing = tuple(sorted(set(findings_by_tool) - set(tools)))
    return Evaluation(scores, cells, misc, thresholds, missing)


def _partition_scores(entries: list[BugLogEntry], findings: list[Finding],
                      line_slack: int) -> dict[BugType, FNScore]:
    """One tool's FN score per bug type. Bug ids restart with every buggy
    file, so each file is matched on its own and its ids are looked up
    within it; pairs never cross files, so the matches are the same."""
    findings_of = _group(findings, lambda f: f.file)
    # bug type -> ids detected, misidentified, unreported
    outcomes: dict[BugType, tuple[list[str], list[str], list[str]]] = {}
    for file, members in _group(entries, lambda e: e.file).items():
        score = score_false_negatives(members, findings_of.get(file, []),
                                      line_slack=line_slack)
        type_of = {e.bug_id: e.bug_type for e in members}
        for slot, ids in enumerate((score.detected_bug_ids,
                                    score.misidentified_bug_ids,
                                    score.unreported_bug_ids)):
            for bug_id in ids:
                outcomes.setdefault(type_of[bug_id], ([], [], []))[slot] \
                    .append(bug_id)
    return {bug_type: FNScore(sum(map(len, ids)), *map(len, ids),
                              *map(tuple, ids))
            for bug_type, ids in outcomes.items()}


def _group(items, key) -> dict:
    """``items`` in lists by ``key(item)``, keeping their order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


# -- table rendering -----------------------------------------------------------


def fn_cell(injected: int, misidentified: int, unreported: int,
            capable: bool = True) -> str:
    """One false-negative table cell: NA, a check mark, or "missed (unreported)"."""
    if not capable or injected <= 0:
        return "NA"
    missed = misidentified + unreported
    if missed == 0:
        return "✓"
    return f"{missed} ({unreported})"


def _fn_entry(scores: dict[str, dict[BugType, FNScore]],
              capabilities: dict[str, frozenset[BugType]],
              tool: str, bug_type: BugType) -> tuple[FNScore, str]:
    """A tool's score for one bug type, and its false-negative table cell."""
    score = scores[tool].get(bug_type) or FNScore(0, 0, 0, 0)
    capable = bug_type in capabilities.get(tool, frozenset())
    return score, fn_cell(score.injected, score.misidentified,
                          score.unreported, capable)


def render_fn_table(scores: dict[str, dict[BugType, FNScore]],
                    capabilities: dict[str, frozenset[BugType]]) -> str:
    tools = sorted(scores)
    lines = ["| Bug type | " + " | ".join(tools) + " |",
             "| --- |" + " --- |" * len(tools)]
    for bug_type in BugType:
        cells = [_fn_entry(scores, capabilities, tool, bug_type)[1]
                 for tool in tools]
        lines.append(f"| {bug_type.value} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def fn_csv(scores: dict[str, dict[BugType, FNScore]],
           capabilities: dict[str, frozenset[BugType]]) -> str:
    rows = ["tool,bugType,injected,detected,misidentified,unreported,cell"
            .split(",")]
    for tool in sorted(scores):
        for bug_type in BugType:
            score, cell = _fn_entry(scores, capabilities, tool, bug_type)
            rows.append((tool, bug_type.value, score.injected, score.detected,
                         score.misidentified, score.unreported, cell))
    return _csv_text(rows)


def _fp_entry(cell: FPCell | None) -> tuple:
    """Reported, filtered and estimated false positives; NA without a cell."""
    if cell is None:
        return ("NA",)
    return cell.reported, cell.filtered, cell.estimated


def render_fp_table(cells: dict[str, dict[BugType, FPCell]],
                    thresholds: dict[BugType, int],
                    misc_counts: dict[str, int] | None = None) -> str:
    tools = sorted(cells)
    header = "| Bug type | Threshold | " + \
        " | ".join(f"{t} (Reported/FIL/FP)" for t in tools) + " |"
    lines = [header, "| --- | --- |" + " --- |" * len(tools)]
    for bug_type in BugType:
        row = [bug_type.value, str(thresholds.get(bug_type, "-"))] + \
            ["/".join(map(str, _fp_entry(cells[tool].get(bug_type))))
             for tool in tools]
        lines.append("| " + " | ".join(row) + " |")
    if misc_counts is not None:
        row = [MISCELLANEOUS, "-"] + \
            [f"{misc_counts.get(tool, 0)}/-/-" for tool in tools]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def fp_csv(cells: dict[str, dict[BugType, FPCell]],
           thresholds: dict[BugType, int],
           misc_counts: dict[str, int]) -> str:
    rows = ["tool,bugType,threshold,reported,filtered,estimated".split(",")]
    for tool in sorted(cells):
        for bug_type in BugType:
            if bug_type in cells[tool]:
                rows.append((tool, bug_type.value, thresholds[bug_type],
                             *_fp_entry(cells[tool][bug_type])))
        rows.append((tool, MISCELLANEOUS, "", misc_counts.get(tool, 0), "", ""))
    return _csv_text(rows)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
