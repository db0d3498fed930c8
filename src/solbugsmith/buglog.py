"""The bug log: one entry per injected bug, its JSON and CSV documents, and
the loader that reads a JSON log back.

The JSON writer lays each entry out from a template over the C string
encoder, byte for byte as ``json.dumps(..., indent=2)`` would, and the
loader looks bug types and approaches up in tables built once.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from .errors import MalformedDocument
from .model import APPROACHES, BUG_TYPES, Approach, BugType

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


# one entry of a bug log, as json.dumps(..., indent=2) lays it out
_ENTRY_JSON = """  {{
    "bugId": {},
    "bugType": {},
    "approach": {},
    "snippetId": {},
    "file": {},
    "startLine": {},
    "endLine": {},
    "byteSpan": {{
      "start": {},
      "end": {}
    }}
  }}"""


def emit_buglog_json(entries) -> str:
    """``json.dumps([e.to_json() for e in entries], indent=2) + "\\n"``,
    written from a template per entry."""
    items = [_ENTRY_JSON.format(
        _json_str(e.bug_id), _json_str(e.bug_type.value),
        _json_str(e.approach.value),
        "null" if e.snippet_id is None else _json_str(e.snippet_id),
        _json_str(e.file), e.start_line, e.end_line, e.byte_start,
        e.byte_end) for e in entries]
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


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
    if type(raw) is not dict:
        raise TypeError("each entry must be a JSON object")
    span = raw["byteSpan"]
    start_line, end_line = raw["startLine"], raw["endLine"]
    if type(span) is not dict:
        raise TypeError("byteSpan must be an object with start and end")
    byte_start, byte_end = span["start"], span["end"]
    if not (type(start_line) is type(end_line) is type(byte_start)
            is type(byte_end) is int):
        raise TypeError(f"lines and byte offsets must be integers: "
                        f"{(start_line, end_line, byte_start, byte_end)}")
    if type(raw["bugId"]) is not str or type(raw["file"]) is not str:
        raise TypeError("bugId and file must be strings")
    if not (1 <= start_line <= end_line and 0 <= byte_start <= byte_end):
        raise ValueError(f"entry {raw['bugId']!r} has a reversed or "
                         f"non-positive range: lines {start_line}..{end_line}"
                         f", bytes {byte_start}..{byte_end}")
    bug_type = _member(BUG_TYPES, raw["bugType"], "BugType")
    approach = _member(APPROACHES, raw["approach"], "Approach")
    snippet_id = raw.get("snippetId")
    if snippet_id is not None and type(snippet_id) is not str:
        raise TypeError("snippetId must be a string or null")
    return BugLogEntry(raw["bugId"], bug_type, approach, snippet_id,
                       raw["file"], start_line, end_line, byte_start, byte_end)


def _member(table: dict, value: object, kind: str):
    """The member whose value is ``value``, with the ValueError the enum
    ``kind`` would raise for any other value."""
    member = table.get(value) if type(value) is str else None
    if member is None:
        raise ValueError(f"{value!r} is not a valid {kind}")
    return member
