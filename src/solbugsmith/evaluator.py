"""Score analyzer reports against injected ground truth.

A bug covers its lines widened by the line slack (``buglog.covered_lines``).
False negatives are scored per tool and bug type, as SolidiFI scores them: a
maximum matching pairs each bug of the type with at most one finding on a
line it covers, type-correct pairs first, each finding trying its bugs
tightest range first. No pair crosses files, so the candidates are indexed
per file. False positives: findings on covered lines are set aside, then a
finding is excluded from the suspect set when at least a threshold number of
tools agree on the same (file, line, type) (``filter_by_majority``); the
rest are suspected false positives, confirmed by inspecting a fixed-size
sample and extrapolating.

``evaluate_campaign`` applies both to every tool of a campaign. It builds
one coverage index per bug type, walking each bug once: the matching reads
it, and the lines it holds are the ones the FP step sets aside.
``score_false_negatives`` matches one tool's findings so, type by type. The
``render_*`` and ``*_csv`` functions turn its result into documents.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from typing import NamedTuple

from .buglog import BugLogEntry, covered_lines
from .errors import (DomainError, FormatError, MalformedDocument,
                     MissingThreshold, ScopeError, shown)
from .model import BUG_TYPES, BugType, term
from .oracle import child_seed

MISCELLANEOUS = "Miscellaneous"


class Finding(NamedTuple):
    tool: str
    file: str
    line: int
    reported_type: BugType | None

    @property
    def type_label(self) -> str:
        return self.reported_type.value if self.reported_type else MISCELLANEOUS


def ingest_report(text: str, tool: str | None = None) -> list[Finding]:
    """Parse a report document into findings; unknown types become
    Miscellaneous. A JSON array is a list of findings; an object holds them
    in a ``findings`` array and may name its ``tool``. A finding without a
    tool is the document's, else ``tool``'s. A finding's ``message``, when
    present, must be a string; it is not kept. The findings share one
    string per distinct file name."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"not valid JSON: {err.msg}",
                          line=err.lineno) from None
    except RecursionError as err:  # nested deeper than the decoder goes
        raise FormatError(str(err)) from None
    if isinstance(doc, list):
        raw_findings, default_tool = doc, tool
    elif isinstance(doc, dict) and isinstance(doc.get("findings"), list):
        raw_findings, default_tool = doc["findings"], doc.get("tool", tool)
    else:
        raise FormatError("report must be a JSON array of findings or an "
                          "object with a findings array")
    findings = []
    files: dict[str, str] = {}  # each file name, once
    for idx, raw in enumerate(raw_findings, start=1):
        if type(raw) is not dict:
            raise FormatError("finding must be an object", finding=idx)
        name = raw.get("tool", default_tool)
        if not isinstance(name, str) or not name:
            raise FormatError("finding has no tool name", finding=idx)
        file = raw.get("file")
        if type(file) is not str or not file:
            raise FormatError("finding has no file", finding=idx)
        line = raw.get("line")
        if type(line) is not int or line < 1:
            raise FormatError(f"line must be a positive integer, got "
                              f"{shown(line)}", finding=idx)
        type_name = raw.get("type")
        # a label that is not a string, a list say, is as unknown as any
        reported = BUG_TYPES.get(type_name) if type(type_name) is str \
            else None
        if type(raw.get("message", "")) is not str:
            raise FormatError("message must be a string", finding=idx)
        findings.append(Finding(name, files.setdefault(file, file), line,
                                reported))
    return findings


def report_tool(text: str, tool: str) -> str:
    """The tool that a report document names, else ``tool``; ``evaluate``
    files a report that holds no findings under it."""
    doc = json.loads(text)
    name = doc.get("tool", tool) if isinstance(doc, dict) else tool
    if not isinstance(name, str) or not name:
        raise FormatError("report has no tool name")
    return name


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
    """Match findings to the bug-log entries that cover their lines,
    widened by ``line_slack``, one bug type at a time, as
    ``evaluate_campaign`` matches each tool and type: the entries are
    grouped by type, in the order the types first appear, each group is
    scored on its own, and the scores are joined. The counts add up; the
    ids are listed type by type, each type's in entry order."""
    by_file = _group(findings, lambda f: f.file)
    rows = [astuple(FNScore(0, 0, 0, 0))] + [
        astuple(_fn_score(group, _cover(group, by_file, line_slack), by_file))
        for group in _group(entries, lambda e: e.bug_type).values()]
    return FNScore(*(sum(rest, first) for first, *rest in zip(*rows)))


def _fn_score(entries: list[BugLogEntry], cover: dict,
              by_file: dict[str, list[Finding]]) -> FNScore:
    """The score of ``entries``, all of one bug type, whose ``_cover`` index
    is ``cover``, against the findings ``by_file``. A maximum matching pairs
    each entry with at most one finding on a line it covers, file by file:
    first the findings of the entries' type, then the others, which pair by
    line only. Augmentation never unmatches a finding, so type-correct
    pairings are never sacrificed for line-only ones."""
    bug_type = entries[0].bug_type
    typed: list[bool] = []  # per finding with candidates: of bug_type?
    cands: list[tuple[int, ...]] = []  # finding -> the entries it may take
    owner: dict[int, int] = {}  # entry -> finding
    for file, by_line in cover.items():
        queue = []  # (line-only, line, tool, finding) of the file's findings
        for finding in by_file.get(file, ()):
            held = by_line.get(finding.line)
            if held:
                mine = finding.reported_type is bug_type
                queue.append((not mine, finding.line, finding.tool,
                              len(cands)))
                typed.append(mine)
                cands.append(held)
        for *_, f_idx in sorted(queue):  # no pair crosses files
            if cands[f_idx][0] not in owner:  # the first step of _augment
                owner[cands[f_idx][0]] = f_idx
            else:
                _augment(f_idx, cands, owner)
    detected_ids, mis_ids, unreported_ids = [], [], []
    for i, entry in enumerate(entries):
        f_idx = owner.get(i)
        if f_idx is None:
            unreported_ids.append(entry.bug_id)
        elif typed[f_idx]:
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


def filter_by_majority(candidates: list[Finding],
                       thresholds: dict[BugType, int]) -> MajorityResult:
    """Split ``candidates``, the findings off the lines bugs cover, by tool
    agreement on their (file, line, type)."""
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
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested deeper than the decoder goes
        raise ValueError(exc) from None
    if not isinstance(doc, dict) or not all(
            isinstance(names, list) and names
            and all(isinstance(n, str) for n in names)
            for names in doc.values()):
        raise ValueError("expected a JSON object mapping each tool to a "
                         "non-empty list of bug type names")
    for tool in doc:
        if not tool or "/" in tool or not tool.isprintable():
            raise ValueError(f"tool name {shown(tool)} cannot name a report file")
    return {tool: frozenset(term(BUG_TYPES, n, "BugType") for n in names)
            for tool, names in doc.items()}


def load_confirmed(text: str) -> dict[str, dict[str, int]]:
    """``{tool: {bug type name: count >= 0}}``; ValueError for any other
    shape, or for an unknown name, naming its tool in 100 characters."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested deeper than the decoder goes
        raise ValueError(exc) from None
    if not isinstance(doc, dict) or not all(
            isinstance(counts, dict)
            and all(type(n) is int and n >= 0 for n in counts.values())
            for counts in doc.values()):
        raise ValueError("expected a JSON object mapping each tool to "
                         "{bug type: count >= 0}")
    for tool, counts in doc.items():
        for name in counts:
            if name not in BUG_TYPES:
                label = tool if len(tool) <= 100 else tool[:97] + "..."
                raise ValueError(f"{label}: unknown bug type: {shown(name)}")
    return doc


def load_truth_extras(text: str) -> tuple[str, set[tuple[str, int, str]]]:
    """``(tool, {(file, line, type label)})`` of an oracle truth file: the
    findings the oracle planted off the injected lines."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("tool"), str):
            raise TypeError("expected a JSON object with a string tool")
        return doc["tool"], {(e["file"], e["line"], e["type"])
                             for e in doc.get("extras", ())}
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
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
    """FN scores per tool and type, from one index per run, and one FP cell
    per capable type; a finding pairs with at most one bug of each type. The
    confirmed count of a cell is its sampled findings listed in the tool's
    ``truth_extras``, else its ``confirmed`` count, else the whole sample;
    one above the sample is a ``DomainError`` naming the tool and type, and
    so are ``confirmed`` counts for a tool that is not evaluated."""
    tools = sorted(t for t in findings_by_tool if t in capabilities)
    unknown = sorted(set(confirmed) - set(tools))
    if unknown:
        raise DomainError(
            f"confirmed counts for tool(s) not evaluated: "
            f"{', '.join(map(shown, unknown))} (evaluated: {', '.join(tools)})")
    if not all(capabilities[tool] for tool in tools):
        raise ScopeError("capability set is empty")
    pooled = [f for tool in tools for f in findings_by_tool[tool]]
    pooled_by_file = _group(pooled, lambda f: f.file)
    by_file = {tool: _group(findings_by_tool[tool], lambda f: f.file)
               for tool in tools}
    injected: dict[str, set[int]] = {}  # per file, the reported lines covered
    scores: dict[str, dict[BugType, FNScore]] = {tool: {} for tool in tools}
    for bug_type, group in _group(entries, lambda e: e.bug_type).items():
        cover = _cover(group, pooled_by_file, line_slack)
        for file, by_line in cover.items():
            injected.setdefault(file, set()).update(by_line)
        for tool in tools:
            if bug_type in capabilities[tool]:
                scores[tool][bug_type] = _fn_score(group, cover, by_file[tool])
        del cover  # before the next type's index is built

    # findings on injected lines are set aside: no FP of the original code
    candidates = [f for f in pooled if f.line not in injected.get(f.file, ())]
    thresholds = derive_thresholds(capabilities)
    majority = filter_by_majority(candidates, thresholds)
    reported = Counter((f.tool, f.reported_type) for f in candidates)
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


def _augment(root: int, cands: list[tuple[int, ...]],
             owner: dict[int, int]) -> None:
    """Kuhn's depth-first search for an augmenting path from finding
    ``root``, with a stack in place of recursion, applied to ``owner``;
    finding ``f`` may take the entries ``cands[f]``. A frame scans its list
    in order, skipping the entries seen, and each entry it passes joins
    ``seen``, so frames over one list object can share one iterator: it
    skips only what a scan from the start would. Every list stays alive in
    ``cands``, so its ``id`` names it for the whole search."""
    seen: set[int] = set()
    scans: dict[int, Iterator[int]] = {}  # one per list object, by id
    path: list[tuple[int, int]] = []  # (finding, entry) along the search
    f_idx = root
    while True:
        key = id(cands[f_idx])
        scan = scans.get(key)
        if scan is None:
            scan = scans[key] = iter(cands[f_idx])
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


def _cover(entries: list[BugLogEntry], by_file: dict[str, list[Finding]],
           slack: int) -> dict[str, dict[int, tuple[int, ...]]]:
    """Per file, each line of a finding ``by_file`` that ``entries``, all of
    one bug type, cover, mapped to the indexes in ``entries`` of those that
    cover it, in the order a finding tries them, tightest range first;
    equal tuples of a file are one object."""
    index: dict[str, dict[int, tuple[int, ...]]] = {}
    for file, group in _group(range(len(entries)),
                              lambda i: entries[i].file).items():
        group.sort(key=lambda i: (entries[i].end_line - entries[i].start_line,
                                  entries[i].start_line, entries[i].bug_id))
        lines = sorted({f.line for f in by_file.get(file, ())})
        by_line: dict[int, list[int]] = {}
        for i, (_, held) in zip(group, covered_lines(
                [entries[i] for i in group], lines, slack)):
            for line in held:
                by_line.setdefault(line, []).append(i)
        equal: dict[tuple[int, ...], tuple[int, ...]] = {}
        index[file] = {line: equal.setdefault(held, held) for line, held
                       in zip(by_line, map(tuple, by_line.values()))}
    return index


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
                    misc_counts: dict[str, int]) -> str:
    tools = sorted(cells)
    header = "| Bug type | Threshold | " + \
        " | ".join(f"{t} (Reported/FIL/FP)" for t in tools) + " |"
    lines = [header, "| --- | --- |" + " --- |" * len(tools)]
    for bug_type in BugType:
        row = [bug_type.value, str(thresholds.get(bug_type, "-"))] + \
            ["/".join(map(str, _fp_entry(cells[tool].get(bug_type))))
             for tool in tools]
        lines.append("| " + " | ".join(row) + " |")
    misc = [f"{misc_counts.get(tool, 0)}/-/-" for tool in tools]
    lines.append("| " + " | ".join([MISCELLANEOUS, "-", *misc]) + " |")
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
