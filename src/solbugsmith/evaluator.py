"""Score analyzer reports against injected ground truth.

A bug covers its lines widened by the line slack (``buglog.widened``).
False negatives are scored per tool and bug type, as SolidiFI scores them: a
maximum matching pairs each bug of the type with at most one finding on a
line it covers, with as many type-correct pairs as a matching can hold; one
greedy sweep per file finds it (``_match``). False positives: findings on
covered lines are set aside (``buglog.held``, as the oracle finds its open
lines), then a finding is excluded from the suspect set when at least a
threshold number of tools agree on the same (file, line, type)
(``filter_by_majority``); the rest are suspected false positives, confirmed
by inspecting a fixed-size sample and extrapolating.

``evaluate_campaign`` applies both to every tool of a campaign. Its FN
step is one pass over the files of the bug log (``_fn_pass``) that also
finds the lines the FP step sets aside; a type's ids are so listed file by
file, in the order the files first appear, each file's in entry order.
``score_false_negatives`` is that pass for one tool capable of every type.
The ``render_*`` and ``*_csv`` functions turn its result into documents,
the CSV ones quoting each field as the bug logs do (``buglog.csv_field``).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from heapq import heappop, heappush
from typing import NamedTuple

from .buglog import BugLogEntry, csv_field, held, widened
from .errors import (DomainError, MalformedDocument, MissingThreshold,
                     ScopeError, shown)
from .model import BUG_TYPES, BugType, child_seed, load_capabilities

# ``load_capabilities`` lives in ``model``, so that ``oracle`` need not load
# this module; perfbench/run.py's set-up sample and tests/conftest.py still
# import it from here
__all__ = ["load_capabilities"]

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
    raw_findings, default_tool = _read_report(text, tool)
    findings = []
    files: dict[str, str] = {}  # each file name, once
    for idx, raw in enumerate(raw_findings, start=1):
        if type(raw) is not dict:
            raise MalformedDocument("finding must be an object", finding=idx)
        name = raw.get("tool", default_tool)
        if not isinstance(name, str) or not name:
            raise MalformedDocument("finding has no tool name", finding=idx)
        file = raw.get("file")
        if type(file) is not str or not file:
            raise MalformedDocument("finding has no file", finding=idx)
        line = raw.get("line")
        if type(line) is not int or line < 1:
            raise MalformedDocument(f"line must be a positive integer, "
                                    f"got {shown(line)}", finding=idx)
        type_name = raw.get("type")
        # a label that is not a string, a list say, is as unknown as any
        reported = BUG_TYPES.get(type_name) if type(type_name) is str \
            else None
        if type(raw.get("message", "")) is not str:
            raise MalformedDocument("message must be a string", finding=idx)
        findings.append(Finding(name, files.setdefault(file, file), line,
                                reported))
    return findings


def report_tool(text: str, tool: str) -> str:
    """The tool that a report document names, else ``tool``; ``evaluate``
    files a report that holds no findings under it."""
    name = _read_report(text, tool)[1]
    if not isinstance(name, str) or not name:
        raise MalformedDocument("report has no tool name")
    return name


def _read_report(text: str, tool: str | None) -> tuple[list, object]:
    """A report document's findings array and tool, else ``tool``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedDocument(f"not valid JSON: {err.msg}",
                                line=err.lineno) from None
    except RecursionError as err:  # nested deeper than the decoder goes
        raise MalformedDocument(str(err)) from None
    if isinstance(doc, list):
        return doc, tool
    if isinstance(doc, dict) and isinstance(doc.get("findings"), list):
        return doc["findings"], doc.get("tool", tool)
    raise MalformedDocument("report must be a JSON array of findings or "
                            "an object with a findings array")


class FNScore(NamedTuple):
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
    widened by ``line_slack``: the scores ``evaluate_campaign`` gives a
    tool capable of every bug type, joined in the order the types first
    appear. The counts add up; the ids are listed type by type, each
    type's file by file, in the order the files first appear, and each
    file's in entry order."""
    scores = _fn_pass(entries, {"": _by_line(findings)},
                      {"": frozenset(BugType)}, line_slack)[0][""]
    rows = [FNScore(0, 0, 0, 0), *scores.values()]
    return FNScore(*(sum(rest, first) for first, *rest in zip(*rows)))


def _fn_pass(entries: list[BugLogEntry],
             by_file: dict[str, dict[str, list[Finding]]],
             capabilities: dict[str, frozenset[BugType]],
             slack: int) -> tuple[dict, dict[str, set[int]]]:
    """The FN scores of each tool of ``by_file`` (its findings by file, each
    file's in line order) per capable bug type, types in the order they
    first appear in ``entries``; and per file, the reported lines a bug
    covers. One pass over the files: each file's reported lines are sorted
    once, each of its types' ranges are widened and sorted once, and each
    capable tool is matched to them (``_match``), a maximum matching that
    holds the most pairs of a finding of the type."""
    types = dict.fromkeys(e.bug_type for e in entries)
    ids = {tool: {bug_type: {True: [], False: [], None: []}  # typed? -> ids
                  for bug_type in types if bug_type in capabilities[tool]}
           for tool in by_file}
    covered: dict[str, set[int]] = {}
    for file, in_file in _group(entries, lambda e: e.file).items():
        found = {tool: groups.get(file, []) for tool, groups in by_file.items()}
        lines = sorted({f.line for group in found.values() for f in group})
        covered[file] = set()
        for bug_type, group in _group(in_file, lambda e: e.bug_type).items():
            ranges = sorted([(*widened(e, slack), i)
                             for i, e in enumerate(group)])
            covered[file] |= held(ranges, lines)
            for tool, findings in found.items():
                if bug_type not in capabilities[tool]:
                    continue
                pairs = _match(ranges, findings, bug_type)
                filed = ids[tool][bug_type]
                for i, entry in enumerate(group):
                    f_idx = pairs.get(i)
                    typed = None if f_idx is None else \
                        findings[f_idx].reported_type is bug_type
                    filed[typed].append(entry.bug_id)
    for by_type in ids.values():  # each type's lists freed as it is filed
        for bug_type, filed in by_type.items():
            by_type[bug_type] = FNScore(sum(map(len, filed.values())),
                                        *map(len, filed.values()),
                                        *map(tuple, filed.values()))
    return ids, covered


def _match(ranges: list[tuple[int, int, int]], findings: list[Finding],
           bug_type: BugType) -> dict[int, int]:
    """Entry -> finding of a maximum matching of ``findings``, in line
    order, to the sorted ``ranges`` ``(first, last, entry)`` that hold their
    lines, with as many findings of ``bug_type`` as a matching holds.

    One sweep builds two matchings by Glover's greedy: each finding takes,
    of the ranges open at its line, the one that ends first. ``typed``
    matches the findings of ``bug_type`` only, so it holds the most of
    them; ``every`` matches all findings, so it holds the most pairs, and
    it matches each entry ``typed`` does (a sweep over more findings leaves
    no range unmatched that one over fewer matches). From each entry only
    ``every`` matches, the path alternating ``every`` and ``typed`` edges,
    which ends at a finding ``typed`` leaves free, is switched to its
    ``every`` edges. The result keeps each finding ``typed`` matches and
    each entry ``every`` matches (Mendelsohn-Dulmage)."""
    typed, every = {}, {}  # entry -> finding
    open_typed, open_every = [], []  # (last, entry) of the ranges begun
    k, n = 0, len(ranges)
    for f_idx, finding in enumerate(findings):
        line = finding.line
        while k < n and ranges[k][0] <= line:
            key = ranges[k][1:]
            heappush(open_typed, key)
            heappush(open_every, key)
            k += 1
        while open_every and open_every[0][0] < line:
            heappop(open_every)
        if open_every:
            every[heappop(open_every)[1]] = f_idx
        if finding.reported_type is bug_type:
            while open_typed and open_typed[0][0] < line:
                heappop(open_typed)
            if open_typed:
                typed[heappop(open_typed)[1]] = f_idx
    merged = dict(typed)
    holder = None  # finding -> its entry in typed, once a path needs it
    for e_idx in every:
        if e_idx in typed:
            continue
        if holder is None:
            holder = {f: e for e, f in typed.items()}
        while e_idx is not None:
            merged[e_idx] = f_idx = every[e_idx]
            e_idx = holder.get(f_idx)
    return merged


class MajorityResult(NamedTuple):
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


def load_truth_extras(text: str, tool: str) -> set[tuple[str, int, str]]:
    """``{(file, line, type label)}`` of ``tool``'s oracle truth file: the
    findings the oracle planted off the injected lines. A truth file of
    another tool is a MalformedDocument: its extras would score ``tool``."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("tool"), str):
            raise TypeError("expected a JSON object with a string tool")
        if doc["tool"] != tool:
            raise ValueError(f"its tool is {shown(doc['tool'])}, "
                             f"not {shown(tool)}")
        return {(e["file"], e["line"], e["type"])
                for e in doc.get("extras", ())}
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        reason = f"no {exc} field" if isinstance(exc, KeyError) else exc
        raise MalformedDocument(f"malformed truth file: {reason}") from None


class FPCell(NamedTuple):
    reported: int
    filtered: int
    estimated: int


class Evaluation(NamedTuple):
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
    """FN scores per tool and type, and one FP cell per capable type; a
    finding pairs with at most one bug of each type. The confirmed count of
    a cell is its sampled findings listed in the tool's ``truth_extras``,
    else its ``confirmed`` count, else the whole sample; one above the
    sample is a ``DomainError`` naming the tool and type, and so are
    ``confirmed`` counts for a tool that is not evaluated."""
    tools = sorted(t for t in findings_by_tool if t in capabilities)
    unknown = sorted(set(confirmed) - set(tools))
    if unknown:
        raise DomainError(
            f"confirmed counts for tool(s) not evaluated: "
            f"{', '.join(map(shown, unknown))} (evaluated: {', '.join(tools)})")
    if not all(capabilities[tool] for tool in tools):
        raise ScopeError("capability set is empty")
    scores, injected = _fn_pass(
        entries, {tool: _by_line(findings_by_tool[tool]) for tool in tools},
        capabilities, line_slack)

    # findings on injected lines are set aside: no FP of the original code
    candidates = [f for tool in tools for f in findings_by_tool[tool]
                  if f.line not in injected.get(f.file, ())]
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


def _by_line(findings: list[Finding]) -> dict[str, list[Finding]]:
    """``findings`` in lists by file, each in line order."""
    by_file = _group(findings, lambda f: f.file)
    for group in by_file.values():
        group.sort(key=lambda f: f.line)
    return by_file


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
    rows = ["tool,bugType,injected,detected,misidentified,unreported,cell\n"]
    for tool in sorted(scores):
        name = csv_field(tool)
        for bug_type in BugType:
            score, cell = _fn_entry(scores, capabilities, tool, bug_type)
            rows.append(f"{name},{bug_type.value},{score.injected},"
                        f"{score.detected},{score.misidentified},"
                        f"{score.unreported},{cell}\n")
    return "".join(rows)


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
    rows = ["tool,bugType,threshold,reported,filtered,estimated\n"]
    for tool in sorted(cells):
        name = csv_field(tool)
        for bug_type in BugType:
            if bug_type in cells[tool]:
                reported, filtered, estimated = cells[tool][bug_type]
                rows.append(f"{name},{bug_type.value},{thresholds[bug_type]},"
                            f"{reported},{filtered},{estimated}\n")
        rows.append(f"{name},{MISCELLANEOUS},,{misc_counts.get(tool, 0)},,\n")
    return "".join(rows)
