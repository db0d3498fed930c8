"""Score analyzer reports against injected ground truth.

False negatives are scored per tool and bug type, as SolidiFI scores them:
the bug-log entries of one type are matched against the tool's findings in
the files that hold them, so within a type one finding pairs with at most
one bug. A maximum matching pairs entries with findings in the same file
whose line falls in the entry's range, type-correct pairs first: findings
that can pair with an entry of their reported type are matched before those
that can only pair by line (type misidentifications), and each finding
tries its entries tightest range first.

False positives: findings on injected lines, widened by the line slack that
FN matching uses, are set aside, then a finding is excluded from the
suspect set when at least a threshold number of tools agree on the same
(file, line, type); the rest are suspected false positives, confirmed by
inspecting a fixed-size sample and extrapolating.

``evaluate_campaign`` applies both to every tool of a campaign; the
``render_*`` and ``*_csv`` functions turn its result into documents.
"""

from __future__ import annotations

import csv
import io
import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .buglog import BugLogEntry
from .errors import (DomainError, FormatError, MalformedDocument,
                     MissingThreshold, ScopeError)
from .model import BUG_TYPES, BugType
from .oracle import child_seed

MISCELLANEOUS = "Miscellaneous"


class Finding(NamedTuple):
    tool: str
    file: str
    line: int
    reported_type: BugType | None
    message: str = ""

    @property
    def type_label(self) -> str:
        return self.reported_type.value if self.reported_type else MISCELLANEOUS


def ingest_report(text: str, tool: str | None = None) -> list[Finding]:
    """Parse a report document into findings; unknown types become
    Miscellaneous. A JSON array is a list of findings; an object holds them
    in a ``findings`` array and may name its ``tool``. A finding without a
    tool is the document's, else ``tool``'s."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(err.lineno, f"not valid JSON: {err.msg}") from None
    if isinstance(doc, list):
        raw_findings, default_tool = doc, tool
    elif isinstance(doc, dict) and isinstance(doc.get("findings"), list):
        raw_findings, default_tool = doc["findings"], doc.get("tool", tool)
    else:
        raise FormatError(0, "report must be a JSON array of findings or "
                             "an object with a findings array")
    findings = []
    for idx, raw in enumerate(raw_findings, start=1):
        if type(raw) is not dict:
            raise FormatError(idx, "finding must be an object")
        name = raw.get("tool", default_tool)
        if not isinstance(name, str) or not name:
            raise FormatError(idx, "finding has no tool name")
        file = raw.get("file")
        if type(file) is not str or not file:
            raise FormatError(idx, "finding has no file")
        line = raw.get("line")
        if type(line) is not int or line < 1:
            raise FormatError(idx, f"line must be a positive integer, got {line!r}")
        type_name = raw.get("type")
        # a label that is not a string, a list say, is as unknown as any
        reported = BUG_TYPES.get(type_name) if type(type_name) is str \
            else None
        message = raw.get("message", "")
        if type(message) is not str:
            raise FormatError(idx, "message must be a string")
        findings.append(Finding(name, file, line, reported, message))
    return findings


def report_tool(text: str, tool: str) -> str:
    """The tool that a report document names, else ``tool``; ``evaluate``
    files a report that holds no findings under it."""
    doc = json.loads(text)
    name = doc.get("tool", tool) if isinstance(doc, dict) else tool
    if not isinstance(name, str) or not name:
        raise FormatError(0, "report has no tool name")
    return name


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
    """Match findings to bug-log entries, preferring type-correct pairings;
    a finding pairs with at most one entry. ``evaluate_campaign`` passes the
    entries of one bug type.

    Entry line ranges may overlap (shared context widens the owning entry),
    so a maximum matching is computed rather than a first-fit scan: first
    findings that can pair with an entry of their own type, then everything
    that can only pair by line. Augmentation never unmatches a finding, so
    type-correct pairings are never sacrificed for line-only ones. A
    finding's candidate entries are read from the line index ``_covering``,
    and findings whose candidate lists are equal share one list.
    """
    entry_order = sorted(range(len(entries)),
                         key=lambda i: _tightness(entries[i]))
    cover = _covering([entries[i] for i in entry_order], findings, line_slack)
    list_of: dict[tuple[int, ...], int] = {}  # candidate list -> its index
    key_of: dict[tuple, tuple[int, bool]] = {}  # -> (list index, typed)
    keys: list[int] = []  # finding -> index of its list
    typed: list[bool] = []  # finding -> pairs by its own type
    for finding in findings:
        key = (finding.file, finding.line, finding.reported_type)
        if key not in key_of:
            local = [entry_order[k] for k in
                     cover.get(finding.file, {}).get(finding.line, ())]
            same = [i for i in local
                    if entries[i].bug_type is finding.reported_type]
            key_of[key] = (list_of.setdefault(tuple(same or local),
                                              len(list_of)), bool(same))
        keys.append(key_of[key][0])
        typed.append(key_of[key][1])
    edges = list(list_of)

    owner: dict[int, int] = {}
    finding_order = sorted(
        range(len(findings)),
        key=lambda j: (not typed[j], findings[j].line, findings[j].tool, j))
    for f_idx in finding_order:
        if edges[keys[f_idx]]:
            _augment(f_idx, keys, edges, owner)

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
                       thresholds: dict[BugType, int],
                       line_slack: int = 0) -> MajorityResult:
    """Drop findings on injected lines widened by ``line_slack`` (those
    ``_covered`` yields, as for FN matching), then split the rest by tool
    agreement."""
    injected: dict[str, set[int]] = {}
    for entry, lines in _covered(entries, findings, line_slack):
        injected.setdefault(entry.file, set()).update(lines)
    candidates = [f for f in findings
                  if f.line not in injected.get(f.file, ())]
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
    empty list, an unknown bug type name, or a tool name that is empty or
    holds a ``/`` or an unprintable character (it names ``<tool>.report.json``
    and a table column)."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not all(
            isinstance(names, list) and names
            and all(isinstance(n, str) for n in names)
            for names in doc.values()):
        raise ValueError("expected a JSON object mapping each tool to a "
                         "non-empty list of bug type names")
    for tool in doc:
        if not tool or "/" in tool or not tool.isprintable():
            raise ValueError(f"tool name {tool!r} cannot name a report file")
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
    """FN scores per tool and type, and one FP cell per capable type. Each
    type with in-scope entries is one ``score_false_negatives`` matching of
    its entries against the tool's findings in their files, so a finding
    pairs with at most one bug of each type. The
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
    scores: dict[str, dict[BugType, FNScore]] = {}
    for tool in tools:
        in_scope = restrict_to_scope(entries, capabilities[tool])
        scores[tool] = {}
        for bug_type, members in _group(in_scope, lambda e: e.bug_type).items():
            files = {e.file for e in members}
            scores[tool][bug_type] = score_false_negatives(
                members, [f for f in findings_by_tool[tool] if f.file in files],
                line_slack)
    thresholds = derive_thresholds(capabilities)
    pooled = [f for tool in tools for f in findings_by_tool[tool]]
    majority = filter_by_majority(pooled, entries, thresholds, line_slack)

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


def _tightness(entry: BugLogEntry) -> tuple:
    """The order in which a finding tries its entries: tightest range first."""
    return entry.end_line - entry.start_line, entry.start_line, entry.bug_id


def _augment(root: int, keys: list[int], edges: list[tuple[int, ...]],
             owner: dict[int, int]) -> None:
    """Kuhn's depth-first search for an augmenting path from finding
    ``root``, with a stack in place of recursion; finding ``f`` may take
    the entries ``edges[keys[f]]``, and a path found is applied to
    ``owner``. A frame scans its list in order, skipping the entries
    already seen, and every entry it passes joins ``seen``. So the frames
    over equal lists, which share one index, can share one iterator: it
    skips only entries that a scan from the start would skip too."""
    seen: set[int] = set()
    scans: dict[int, Iterator[int]] = {}  # one per edge list
    path: list[tuple[int, int]] = []  # (finding, entry) along the search
    f_idx = root
    while True:
        key = keys[f_idx]
        scan = scans.get(key)
        if scan is None:
            scan = scans[key] = iter(edges[key])
        for e_idx in scan:
            if e_idx not in seen:
                break
        else:  # the list is spent: back to the parent's scan
            if not path:
                return
            f_idx = path.pop()[0]
            continue
        seen.add(e_idx)
        path.append((f_idx, e_idx))
        if e_idx not in owner:
            for f, e in path:
                owner[e] = f
            return
        f_idx = owner[e_idx]


def _covering(entries: list[BugLogEntry], findings: list[Finding],
              slack: int = 0) -> dict[str, dict[int, list[int]]]:
    """Per file, each finding line that an entry's range widened by ``slack``
    holds, mapped to the indexes of those entries in ``entries`` order."""
    index: dict[str, dict[int, list[int]]] = {}
    for i, (entry, lines) in enumerate(_covered(entries, findings, slack)):
        by_line = index.setdefault(entry.file, {})
        for line in lines:
            by_line.setdefault(line, []).append(i)
    return index


def _covered(entries: list[BugLogEntry], findings: list[Finding],
             slack: int = 0) -> Iterator[tuple[BugLogEntry, list[int]]]:
    """Each entry, with the sorted lines of its file's findings that its
    range widened by ``slack`` holds. Each range is bisected into those
    lines, not expanded."""
    lines_of = {file: sorted({f.line for f in group})
                for file, group in _group(findings, lambda f: f.file).items()}
    for entry in entries:
        lines = lines_of.get(entry.file, [])
        yield entry, lines[bisect_left(lines, entry.start_line - slack):
                           bisect_right(lines, entry.end_line + slack)]


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
