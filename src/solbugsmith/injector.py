"""Apply an injection profile to a source file and log the ground truth.

Each site becomes one byte edit of the source, and one front-to-back pass
splices the edits in and records where each landed. Every site in the
profile produces exactly one log entry whose line range and byte span
refer to the OUTPUT file. Shared context declarations are inserted once
per contract, directly after the contract's opening brace, and are charged
to the first bug that needs them: that entry's range is the convex hull of
its snippet and its context lines.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

from . import front, locator
from .errors import (EditConflict, MalformedDocument, SolBugSmithError,
                     StaleProfile)
from .front import LineIndex, SourceUnit
from .locator import (InjectionProfile, SnippetSite, TransformSite,
                      WeakenSite, source_digest)
from .model import Approach, BugType
from .pool import BugPool, instantiate, lead_identifier
# unused here, but perfbench/tracing.py rebinds these names in this module
from .front import parse  # noqa: F401

CSV_COLUMNS = ("bugId", "bugType", "approach", "snippetId", "file",
               "startLine", "endLine", "byteStart", "byteEnd")


@dataclass(frozen=True)
class BugLogEntry:
    bug_id: str
    bug_type: BugType
    approach: Approach
    snippet_id: str | None
    file: str
    start_line: int
    end_line: int
    byte_start: int
    byte_end: int

    def to_json(self) -> dict:
        return {
            "bugId": self.bug_id,
            "bugType": self.bug_type.value,
            "approach": self.approach.value,
            "snippetId": self.snippet_id,
            "file": self.file,
            "startLine": self.start_line,
            "endLine": self.end_line,
            "byteSpan": {"start": self.byte_start, "end": self.byte_end},
        }


@dataclass(frozen=True)
class InjectionResult:
    text: str
    entries: tuple[BugLogEntry, ...]


@dataclass(frozen=True)
class _Edit:
    """Replace bytes [start, end) with ``insert``; ``logged`` holds a
    (site index, start, end) range relative to ``insert`` for each bug-log
    entry that covers part of it."""

    start: int
    end: int
    insert: bytes
    logged: list[tuple[int, int, int]]


def inject_file(unit: SourceUnit, bug_type: BugType, pool: BugPool,
                name: str, counter_start: int = 0) -> InjectionResult:
    """Inject one ``bug_type`` bug at every site of the parsed source
    ``unit`` and check that the output still validates; its log entries
    name the file ``name``. SolBugSmithError naming the output's first
    fault if it does not validate."""
    # through the module attributes, which perfbench/tracing.py rebinds
    profile = locator.find_all_potential_locations(unit, bug_type, pool,
                                                   source_id=name)
    result = inject_all(unit, profile, pool, counter_start=counter_start)
    diagnostics = front.validate(result.text)
    if diagnostics:
        first = diagnostics[0]
        raise SolBugSmithError(f"output failed validation at line "
                               f"{first.line}: {first.message}")
    return result


def inject_all(unit: SourceUnit, profile: InjectionProfile, pool: BugPool,
               counter_start: int = 0) -> InjectionResult:
    """Inject one bug per profile site into the parsed source ``unit``;
    returns new text plus its bug log, whose entries name the file
    ``profile.source_id``."""
    if source_digest(unit.data) != profile.source_digest:
        raise StaleProfile(
            f"profile for {profile.source_id!r} does not match the source")
    data = unit.data

    picks: Counter = Counter()
    # per contract: its context declarations, each with the first site
    # that needs it
    context: list[list[tuple[str, int]]] = [[] for _ in unit.contracts]
    edits: list[_Edit] = []
    fields: list[tuple[str, Approach, str | None]] = []
    for idx, site in enumerate(profile.sites):
        counter = counter_start + idx
        if isinstance(site, SnippetSite):
            variants = [s for s in pool.snippets_for(profile.bug_type)
                        if s.form is site.form]
            snippet = variants[picks[site.form] % len(variants)]
            picks[site.form] += 1
            indent = _indent_at(data, site.offset)
            body = _reindent(instantiate(snippet, counter), indent)
            edits.append(_insertion(data, site.offset, body, indent,
                                    [(idx, 0, len(body.encode("utf-8")))]))
            fields.append((lead_identifier(snippet, counter)
                           or f"{snippet.id}-{counter}",
                           Approach.FULL_SNIPPET, snippet.id))
            if snippet.required_context:
                decls = context[_contract_at(unit, site.offset)]
                for decl in snippet.required_context:
                    if decl not in [seen for seen, _ in decls]:
                        decls.append((decl, idx))
        elif isinstance(site, TransformSite):
            insert = " ".join(site.pattern.replace.split()).encode("utf-8")
            edits.append(_Edit(site.match_span.start, site.match_span.end,
                               insert, [(idx, 0, len(insert))]))
            fields.append((f"trans_{profile.bug_type.value}{counter}",
                           Approach.CODE_TRANSFORMATION, None))
        else:
            edits.append(_weaken_edit(data, site, idx))
            fields.append((f"weak_{profile.bug_type.value}{counter}",
                           Approach.WEAKEN_SECURITY, None))

    context_edits = []
    for contract, decls in zip(unit.contracts, context):
        if not decls:
            continue
        offset = contract.body_span.start
        indent = _indent_at(data, offset)
        logged, rel = [], 0
        for decl, owner in decls:
            start = rel + len(indent.encode("utf-8"))
            rel = start + len(decl.encode("utf-8"))
            logged.append((owner, start, rel))
            rel += len(b"\n")
        body = "\n".join(indent + decl for decl, _ in decls)
        context_edits.append(_insertion(data, offset, body, indent, logged))

    # A stable sort: a context insertion, listed first, precedes the site
    # edits at its offset, and site edits at one offset keep profile order.
    hull: list[tuple[int, int] | None] = [None] * len(fields)
    out, pos = bytearray(), 0
    for edit in sorted(context_edits + edits, key=lambda e: e.start):
        if edit.start < pos:
            raise EditConflict(f"edits overlap at bytes {edit.start}..{pos}")
        out += data[pos:edit.start]
        for idx, rel_start, rel_end in edit.logged:
            start, end = len(out) + rel_start, len(out) + rel_end
            if hull[idx] is not None:
                start, end = min(start, hull[idx][0]), max(end, hull[idx][1])
            hull[idx] = (start, end)
        out += edit.insert
        pos = edit.end
    out += data[pos:]

    line_index = LineIndex(bytes(out))
    entries = tuple(
        BugLogEntry(bug_id, profile.bug_type, approach, snippet_id,
                    profile.source_id, line_index.line_of(start),
                    line_index.line_of(max(start, end - 1)), start, end)
        for (bug_id, approach, snippet_id), (start, end) in zip(fields, hull))
    return InjectionResult(out.decode("utf-8"), entries)


def _insertion(data: bytes, offset: int, body: str, indent: str,
               logged: list[tuple[int, int, int]]) -> _Edit:
    """Put ``body`` on a new line at ``offset``; code that follows on the
    same line moves to its own line at ``indent``. ``logged`` ranges are
    relative to ``body``."""
    text = "\n" + body
    if offset < len(data) and data[offset:offset + 1] != b"\n":
        text += "\n" + indent
    return _Edit(offset, offset, text.encode("utf-8"),
                 [(idx, 1 + start, 1 + end) for idx, start, end in logged])


def _weaken_edit(data: bytes, site: WeakenSite, idx: int) -> _Edit:
    start, end = site.revert_stmt_span.start, site.revert_stmt_span.end
    line_start = data.rfind(b"\n", 0, start) + 1
    before = data[line_start:start]
    line_end = data.find(b"\n", end)
    if line_end < 0:
        line_end = len(data)
    after = data[end:line_end]
    indent = before.decode("utf-8")
    indent = indent[:len(indent) - len(indent.lstrip())]
    commented = "//" + data[start:end].decode("utf-8").replace("\n", "\n//")
    prefix = ("\n" + indent) if before.strip() else ""
    suffix = ("\n" + indent) if after.strip() else ""
    rel_start = len(prefix.encode("utf-8"))
    return _Edit(start, end, (prefix + commented + suffix).encode("utf-8"),
                 [(idx, rel_start, rel_start + len(commented.encode("utf-8")))])


def _indent_at(data: bytes, offset: int) -> str:
    line_start = data.rfind(b"\n", 0, offset) + 1
    prefix = data[line_start:offset].decode("utf-8")
    lead = prefix[:len(prefix) - len(prefix.lstrip())]
    if prefix.rstrip().endswith("{"):
        return lead + "    "
    return lead


def _reindent(text: str, indent: str) -> str:
    lines = text.split("\n")
    widths = [len(l) - len(l.lstrip()) for l in lines if l.strip()]
    common = min(widths, default=0)
    return "\n".join(indent + l[common:] if l.strip() else l for l in lines)


def _contract_at(unit, offset: int) -> int:
    for index, contract in enumerate(unit.contracts):
        if contract.span.start <= offset <= contract.span.end:
            return index
    raise EditConflict(f"no contract encloses byte {offset}")


def emit_buglog_json(entries) -> str:
    return json.dumps([e.to_json() for e in entries], indent=2) + "\n"


def emit_buglog_csv(entries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        writer.writerow([e.bug_id, e.bug_type.value, e.approach.value,
                         e.snippet_id or "", e.file, e.start_line, e.end_line,
                         e.byte_start, e.byte_end])
    return buf.getvalue()


def load_buglog(text: str) -> list[BugLogEntry]:
    """Entries of a bug-log document; MalformedDocument for any other shape."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, list):
            raise TypeError("expected a JSON array of entries")
        return [_entry_from_json(raw) for raw in doc]
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"entry without {exc}" if isinstance(exc, KeyError) else exc
        raise MalformedDocument(f"malformed bug log: {reason}") from None


def _entry_from_json(raw: object) -> BugLogEntry:
    if not isinstance(raw, dict):
        raise TypeError("each entry must be a JSON object")
    span = raw["byteSpan"]
    positions = (raw["startLine"], raw["endLine"], span["start"], span["end"])
    if not all(type(n) is int for n in positions):
        raise TypeError(f"lines and byte offsets must be integers: {positions}")
    if not isinstance(raw["bugId"], str) or not isinstance(raw["file"], str):
        raise TypeError("bugId and file must be strings")
    start_line, end_line, byte_start, byte_end = positions
    if not (1 <= start_line <= end_line and 0 <= byte_start <= byte_end):
        raise ValueError(f"entry {raw['bugId']!r} has a reversed or "
                         f"non-positive range: lines {start_line}..{end_line}"
                         f", bytes {byte_start}..{byte_end}")
    return BugLogEntry(raw["bugId"], BugType(raw["bugType"]),
                       Approach(raw["approach"]), raw.get("snippetId"),
                       raw["file"], *positions)
