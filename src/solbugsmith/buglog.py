"""The bug log: one entry per injected bug, the lines each covers
(``widened``), the one sweep that finds which lines bugs cover (``held``, for
the oracle and the evaluator alike), its JSON and CSV documents, and the
loader that reads a JSON log back.

The JSON writer lays each entry out by one f-string over the C string
encoder, byte for byte as ``json.dumps(..., indent=2)`` would, and the
writers and loader look bug types and approaches up in tables built once.
The CSV writer is ``csv.writer`` itself. No field holds an unprintable
character (``load_pool`` refuses such a snippet id and ``inject`` such a
file name), so every supported Python quotes the fields alike.

The loader keeps one string per distinct file name and snippet id of a log,
shared by its entries.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from .errors import MalformedDocument, shown
from .model import APPROACHES, BUG_TYPES, Approach, BugType, term

CSV_COLUMNS = ("bugId", "bugType", "approach", "snippetId", "file",
               "startLine", "endLine", "byteStart", "byteEnd")


class BugLogEntry(NamedTuple):
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


def widened(entry: BugLogEntry, slack: int = 0) -> tuple[int, int]:
    """The first and last line ``entry`` covers: its own lines, widened by
    ``slack`` on each side."""
    return entry.start_line - slack, entry.end_line + slack


def held(ranges, lines) -> set[int]:
    """Those of the sorted ``lines`` that one of the sorted ``ranges``
    ``(first, last, ...)`` holds, in one sweep that reads each range by its
    ends, never expanding it."""
    covered, reach, k, n = set(), float("-inf"), 0, len(ranges)
    for line in lines:
        while k < n and ranges[k][0] <= line:
            reach = max(reach, ranges[k][1])
            k += 1
        if line <= reach:
            covered.add(line)
    return covered


# each bug type and approach's value, and that value as a JSON string
_VALUES = {member: member.value for terms in (BugType, Approach)
           for member in terms}
_JSON_VALUES = {member: _json_str(value) for member, value in _VALUES.items()}


def emit_buglog_json(entries) -> str:
    """``json.dumps([e.to_json() for e in entries], indent=2) + "\\n"``,
    each entry laid out by one f-string."""
    items = [
        f'  {{\n    "bugId": {_json_str(e.bug_id)},\n'
        f'    "bugType": {_JSON_VALUES[e.bug_type]},\n'
        f'    "approach": {_JSON_VALUES[e.approach]},\n    "snippetId": '
        f'{"null" if e.snippet_id is None else _json_str(e.snippet_id)},\n'
        f'    "file": {_json_str(e.file)},\n'
        f'    "startLine": {e.start_line},\n'
        f'    "endLine": {e.end_line},\n'
        f'    "byteSpan": {{\n      "start": {e.byte_start},\n'
        f'      "end": {e.byte_end}\n    }}\n  }}'
        for e in entries]
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


def emit_buglog_csv(entries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        writer.writerow([e.bug_id, _VALUES[e.bug_type], _VALUES[e.approach],
                         e.snippet_id or "", e.file, e.start_line, e.end_line,
                         e.byte_start, e.byte_end])
    return buf.getvalue()


def load_buglog(text: str) -> list[BugLogEntry]:
    """Entries of a bug-log document; MalformedDocument for any other shape."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, list):
            raise TypeError("expected a JSON array of entries")
        shared: dict[str, str] = {}  # each file name and snippet id, once
        return [_entry_from_json(raw, shared) for raw in doc]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        reason = f"entry without {exc}" if isinstance(exc, KeyError) else exc
        raise MalformedDocument(f"malformed bug log: {reason}") from None


def _entry_from_json(raw: object, shared: dict[str, str]) -> BugLogEntry:
    if type(raw) is not dict:
        raise TypeError("each entry must be a JSON object")
    span = raw["byteSpan"]
    start_line, end_line = raw["startLine"], raw["endLine"]
    if type(span) is not dict:
        raise TypeError("byteSpan must be an object with start and end")
    byte_start, byte_end = span["start"], span["end"]
    if not (type(start_line) is type(end_line) is type(byte_start)
            is type(byte_end) is int):
        raise TypeError("lines and byte offsets must be integers: " +
                        shown((start_line, end_line, byte_start, byte_end)))
    file = raw["file"]
    if type(raw["bugId"]) is not str or type(file) is not str:
        raise TypeError("bugId and file must be strings")
    if not (1 <= start_line <= end_line and 0 <= byte_start <= byte_end):
        raise ValueError(f"entry {shown(raw['bugId'])} has a reversed or "
                         f"non-positive range: lines {start_line}..{end_line}"
                         f", bytes {byte_start}..{byte_end}")
    bug_type = term(BUG_TYPES, raw["bugType"], "BugType")
    approach = term(APPROACHES, raw["approach"], "Approach")
    snippet_id = raw.get("snippetId")
    if snippet_id is not None:
        if type(snippet_id) is not str:
            raise TypeError("snippetId must be a string or null")
        snippet_id = shared.setdefault(snippet_id, snippet_id)
    return BugLogEntry(raw["bugId"], bug_type, approach, snippet_id,
                       shared.setdefault(file, file), start_line, end_line,
                       byte_start, byte_end)
