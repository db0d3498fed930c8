"""Score analyzer reports against injected ground truth.

False negatives: every bug-log entry is matched greedily against unused
findings in the same file, first requiring the reported type to agree, then
accepting any report whose line falls in the entry's range (those become
type misidentifications). Entries are matched tightest range first so a
wide entry cannot steal a finding from the narrow entry it belongs to.

False positives: findings on injected lines are set aside, then a finding
is excluded from the suspect set when at least a threshold number of tools
agree on the same (file, line, type); the rest are suspected false
positives, confirmed by inspecting a fixed-size sample and extrapolating.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import DomainError, FormatError, MissingThreshold, ScopeError
from .injector import BugLogEntry
from .model import BugType

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
    per_file: dict[str, list[int]] = {}
    for i in entry_order:  # pairs never cross files, so scan per file
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
    by_file: dict[str, list[BugLogEntry]] = {}
    for entry in entries:
        by_file.setdefault(entry.file, []).append(entry)

    candidates = []
    for finding in findings:
        spans = by_file.get(finding.file, ())
        if any(e.start_line <= finding.line <= e.end_line for e in spans):
            continue
        candidates.append(finding)

    support: dict[tuple[str, int, BugType], set[str]] = {}
    for finding in candidates:
        if finding.reported_type is None:
            continue
        key = (finding.file, finding.line, finding.reported_type)
        support.setdefault(key, set()).add(finding.tool)

    excluded, filtered, misc = [], [], []
    for finding in candidates:
        if finding.reported_type is None:
            misc.append(finding)
            continue
        threshold = thresholds.get(finding.reported_type)
        if threshold is None:
            raise MissingThreshold(finding.reported_type)
        key = (finding.file, finding.line, finding.reported_type)
        if len(support[key]) >= threshold:
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
    """``{tool: [bug type name, ...]}``; ValueError for any other shape or
    an unknown bug type name."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not all(
            isinstance(names, list) and all(isinstance(n, str) for n in names)
            for names in doc.values()):
        raise ValueError("expected a JSON object mapping each tool to a list "
                         "of bug type names")
    return {tool: frozenset(map(BugType, names)) for tool, names in doc.items()}


# -- table rendering -----------------------------------------------------------


def fn_cell(injected: int, misidentified: int, unreported: int,
            capable: bool = True) -> str:
    """One false-negative table cell: NA, a check mark, or "missed (unreported)"."""
    if not capable:
        return "NA"
    if injected <= 0:
        return "NA"
    missed = misidentified + unreported
    if missed == 0:
        return "✓"
    return f"{missed} ({unreported})"


def render_fn_table(scores: dict[str, dict[BugType, FNScore]],
                    capabilities: dict[str, frozenset[BugType]]) -> str:
    tools = sorted(scores)
    lines = ["| Bug type | " + " | ".join(tools) + " |",
             "| --- |" + " --- |" * len(tools)]
    for bug_type in BugType:
        cells = []
        for tool in tools:
            capable = bug_type in capabilities.get(tool, frozenset())
            score = scores[tool].get(bug_type)
            if not capable or score is None:
                cells.append("NA")
            else:
                cells.append(fn_cell(score.injected, score.misidentified,
                                     score.unreported))
        lines.append(f"| {bug_type.value} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FPCell:
    reported: int
    filtered: int
    estimated: int


def render_fp_table(cells: dict[str, dict[BugType, FPCell]],
                    thresholds: dict[BugType, int],
                    misc_counts: dict[str, int] | None = None) -> str:
    tools = sorted(cells)
    header = "| Bug type | Threshold | " + \
        " | ".join(f"{t} (Reported/FIL/FP)" for t in tools) + " |"
    lines = [header, "| --- | --- |" + " --- |" * len(tools)]
    for bug_type in BugType:
        row = [bug_type.value, str(thresholds.get(bug_type, "-"))]
        for tool in tools:
            cell = cells[tool].get(bug_type)
            row.append("NA" if cell is None else
                       f"{cell.reported}/{cell.filtered}/{cell.estimated}")
        lines.append("| " + " | ".join(row) + " |")
    if misc_counts is not None:
        row = [MISCELLANEOUS, "-"]
        for tool in tools:
            row.append(f"{misc_counts.get(tool, 0)}/-/-")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
