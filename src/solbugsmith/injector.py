"""Apply an injection profile to a source file and log the ground truth.

Edits are byte edits applied back to front so earlier offsets stay valid.
Every site in the profile produces exactly one log entry whose line range
and byte span refer to the OUTPUT file. Shared context declarations are
inserted once per contract, directly after the contract's opening brace,
and are charged to the first bug that needs them: that entry's range is
the convex hull of its snippet and its context lines.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import front, locator
from .errors import (EditConflict, MalformedDocument, SolBugSmithError,
                     StaleProfile)
from .front import LineIndex, parse
from .locator import (InjectionProfile, SnippetSite, TransformSite,
                      WeakenSite, source_digest)
from .model import Approach, BugType
from .pool import BugPool, BugSnippet, instantiate, lead_identifier

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


@dataclass
class _Edit:
    start: int
    end: int
    insert: bytes
    rank: int
    seq: int
    final_start: int = -1


def inject_file(source: str, bug_type: BugType, pool: BugPool, name: str,
                counter_start: int = 0) -> InjectionResult:
    """Inject one ``bug_type`` bug at every site of ``source`` and check that
    the output still validates; its log entries name the file ``name``.
    SolBugSmithError if the output has diagnostics."""
    # through the module attributes, which perfbench/tracing.py rebinds
    profile = locator.find_all_potential_locations(source, bug_type, pool,
                                                   source_id=name)
    result = inject_all(source, profile, pool, counter_start=counter_start)
    diagnostics = front.validate(result.text)
    if diagnostics:
        first = diagnostics[0]
        raise SolBugSmithError(
            f"output failed validation ({len(diagnostics)} diagnostic(s); "
            f"first at line {first.line}: {first.message})")
    return result


def inject_all(source: str, profile: InjectionProfile, pool: BugPool,
               counter_start: int = 0) -> InjectionResult:
    """Inject one bug per profile site; returns new text plus its bug log,
    whose entries name the file ``profile.source_id``."""
    if source_digest(source) != profile.source_digest:
        raise StaleProfile(
            f"profile for {profile.source_id!r} does not match the source")
    data = source.encode("utf-8")
    unit = parse(source)

    chosen: dict[int, BugSnippet] = {}
    form_counts: dict[object, int] = {}
    for idx, site in enumerate(profile.sites):
        if isinstance(site, SnippetSite):
            variants = [s for s in pool.snippets_for(profile.bug_type)
                        if s.form is site.form]
            pick = form_counts.get(site.form, 0)
            form_counts[site.form] = pick + 1
            chosen[idx] = variants[pick % len(variants)]

    # context declarations grouped per enclosing contract, first-owner wins
    ctx_decls: dict[str, list[tuple[str, int]]] = {}
    ctx_offsets: dict[str, tuple[int, str]] = {}
    for contract in unit.contracts:
        ctx_offsets[contract.name] = (
            contract.body_span.start,
            _indent_at(data, contract.body_span.start))
    for idx, site in enumerate(profile.sites):
        snippet = chosen.get(idx)
        if snippet is None or not snippet.required_context:
            continue
        cname = _contract_name_at(unit, site.offset)
        decls = ctx_decls.setdefault(cname, [])
        for decl in snippet.required_context:
            if all(existing != decl for existing, _ in decls):
                decls.append((decl, idx))

    edits: list[_Edit] = []
    decl_ranges: dict[int, list[tuple[_Edit, int, int]]] = {}
    for cname, decls in sorted(ctx_decls.items()):
        offset, indent = ctx_offsets[cname]
        pieces = []
        rel = len(b"\n")
        ranges = []
        for decl, owner in decls:
            piece = indent + decl
            pieces.append(piece)
            piece_bytes = piece.encode("utf-8")
            start = rel + len(indent.encode("utf-8"))
            ranges.append((owner, start, rel + len(piece_bytes)))
            rel += len(piece_bytes) + len(b"\n")
        text = "\n" + "\n".join(pieces)
        if offset < len(data) and data[offset:offset + 1] != b"\n":
            text += "\n" + indent
        edit = _Edit(offset, offset, text.encode("utf-8"), 0, -1)
        edits.append(edit)
        for owner, rel_start, rel_end in ranges:
            decl_ranges.setdefault(owner, []).append((edit, rel_start, rel_end))

    logged_rel: dict[int, tuple[int, int]] = {}
    site_edits: dict[int, _Edit] = {}
    for idx, site in enumerate(profile.sites):
        counter = counter_start + idx
        if isinstance(site, SnippetSite):
            body = _reindent(instantiate(chosen[idx], counter),
                             _indent_at(data, site.offset))
            text = "\n" + body
            body_len = len(body.encode("utf-8"))
            if site.offset < len(data) and \
                    data[site.offset:site.offset + 1] != b"\n":
                text += "\n" + _indent_at(data, site.offset)
            edit = _Edit(site.offset, site.offset, text.encode("utf-8"), 1, idx)
            logged_rel[idx] = (1, 1 + body_len)
        elif isinstance(site, TransformSite):
            replacement = " ".join(site.pattern.replace.split())
            edit = _Edit(site.match_span.start, site.match_span.end,
                         replacement.encode("utf-8"), 1, idx)
            logged_rel[idx] = (0, len(edit.insert))
        else:
            assert isinstance(site, WeakenSite)
            edit, rel = _weaken_edit(data, site, idx)
            logged_rel[idx] = rel
        site_edits[idx] = edit
        edits.append(edit)

    edits.sort(key=lambda e: (e.start, e.rank, e.seq))
    for before, after in zip(edits, edits[1:]):
        if before.end > after.start:
            raise EditConflict(
                f"edits overlap at bytes {after.start}..{before.end}")

    delta = 0
    for edit in edits:
        edit.final_start = edit.start + delta
        delta += len(edit.insert) - (edit.end - edit.start)

    out = bytearray(data)
    for edit in reversed(edits):
        out[edit.start:edit.end] = edit.insert
    out_bytes = bytes(out)
    line_index = LineIndex(out_bytes)

    entries = []
    for idx, site in enumerate(profile.sites):
        counter = counter_start + idx
        edit = site_edits[idx]
        rel_start, rel_end = logged_rel[idx]
        byte_start = edit.final_start + rel_start
        byte_end = edit.final_start + rel_end
        for ctx_edit, ctx_start, ctx_end in decl_ranges.get(idx, ()):
            byte_start = min(byte_start, ctx_edit.final_start + ctx_start)
            byte_end = max(byte_end, ctx_edit.final_start + ctx_end)
        if isinstance(site, SnippetSite):
            snippet = chosen[idx]
            bug_id = lead_identifier(snippet, counter) or \
                f"{snippet.id}-{counter}"
            approach = Approach.FULL_SNIPPET
            snippet_id = snippet.id
        elif isinstance(site, TransformSite):
            bug_id = f"trans_{profile.bug_type.value}{counter}"
            approach = Approach.CODE_TRANSFORMATION
            snippet_id = None
        else:
            bug_id = f"weak_{profile.bug_type.value}{counter}"
            approach = Approach.WEAKEN_SECURITY
            snippet_id = None
        entries.append(BugLogEntry(
            bug_id, profile.bug_type, approach, snippet_id, profile.source_id,
            line_index.line_of(byte_start),
            line_index.line_of(max(byte_start, byte_end - 1)),
            byte_start, byte_end))
    return InjectionResult(out_bytes.decode("utf-8"), tuple(entries))


def _weaken_edit(data: bytes, site: WeakenSite,
                 seq: int) -> tuple[_Edit, tuple[int, int]]:
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
    insert = (prefix + commented + suffix).encode("utf-8")
    rel_start = len(prefix.encode("utf-8"))
    rel_end = rel_start + len(commented.encode("utf-8"))
    return _Edit(start, end, insert, 1, seq), (rel_start, rel_end)


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


def _contract_name_at(unit, offset: int) -> str:
    for contract in unit.contracts:
        if contract.span.start <= offset <= contract.span.end:
            return contract.name
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
