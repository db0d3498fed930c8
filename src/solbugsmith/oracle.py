"""Synthetic analyzer reports with planted, recoverable ground truth.

Each virtual tool reads the bug logs of a corpus and emits findings the way
a real analyzer would: it skips bugs outside its capability set, misses a
seeded fraction, reports another fraction under the wrong type, and adds
spurious findings on the lines that no bug covers (``buglog.held``).
Everything derives from a stable per-(tool, file) seed, so a run is
reproducible bit for bit, and the planted truth is written alongside the
report so an evaluation of the report can be checked for exact agreement.

``dump_report`` writes both documents, and only them, byte for byte as
``json.dumps(..., indent=2)`` would: each record from a fixed template over
the C string encoder, and the document in one join over its parts, as the
bug-log writer does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

from .buglog import BugLogEntry, held, widened
from .errors import DomainError
from .model import BugType, child_seed

EXTRA_TYPE_LABEL = "assembly-usage"


@dataclass(frozen=True)
class OracleSpec:
    miss_rate: float = 0.0
    mistype_rate: float = 0.0
    extra_per_file: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_rate <= 1.0:
            raise DomainError(f"miss rate out of range: {self.miss_rate}")
        if not 0.0 <= self.mistype_rate <= 1.0:
            raise DomainError(f"mistype rate out of range: {self.mistype_rate}")
        if self.miss_rate + self.mistype_rate > 1.0:
            raise DomainError("miss rate plus mistype rate exceeds 1")
        if self.extra_per_file < 0:
            raise DomainError("extra findings per file must be >= 0")


def uninjected_lines(buglogs: dict[str, list[BugLogEntry]],
                     line_counts: dict[str, int]) -> dict[str, list[int]]:
    """Per file, in order, its lines that no bug-log entry covers."""
    open_lines = {}
    for file, entries in buglogs.items():
        lines = range(1, line_counts[file] + 1)
        covered = held(sorted(map(widened, entries)), lines)
        open_lines[file] = [line for line in lines if line not in covered]
    return open_lines


def generate_tool_report(tool: str, capable: frozenset[BugType],
                         buglogs: dict[str, list[BugLogEntry]],
                         open_lines: dict[str, list[int]],
                         spec: OracleSpec) -> tuple[dict, dict]:
    """Report and truth documents for one virtual tool over a corpus, with
    its spurious findings on ``open_lines``, the
    ``uninjected_lines(buglogs, line_counts)`` of the corpus."""
    findings: list[dict] = []
    missed: list[str] = []
    mistyped: list[dict] = []
    extras: list[dict] = []
    wrong_choices = {bt: [o.value for o in BugType if o is not bt]
                     for bt in BugType}
    right_choice = {bt: bt.value for bt in BugType}
    type_labels = sorted(bt.value for bt in capable) + [EXTRA_TYPE_LABEL]
    mistype_below = spec.miss_rate + spec.mistype_rate

    for file in sorted(buglogs):
        rng = random.Random(child_seed(spec.seed, tool, file))
        for entry in buglogs[file]:
            bug_type = entry.bug_type
            if bug_type not in capable:
                continue
            line = rng.randint(entry.start_line, entry.end_line)
            roll = rng.random()
            if roll < spec.miss_rate:
                missed.append(entry.bug_id)
                continue
            if roll < mistype_below:
                label = rng.choice(wrong_choices[bug_type])
                mistyped.append({"bugId": entry.bug_id, "reportedType": label})
            else:
                label = right_choice[bug_type]
            message = f"synthetic report for {entry.bug_id}"
            findings.append({"file": file, "line": line, "type": label,
                             "message": message})
        lines = open_lines[file]
        for line in rng.sample(lines, min(spec.extra_per_file, len(lines))):
            label = rng.choice(type_labels)
            findings.append({"file": file, "line": line, "type": label,
                             "message": "synthetic spurious finding"})
            extras.append({"file": file, "line": line, "type": label})

    report = {"tool": tool, "findings": findings}
    truth = {"tool": tool, "missed": missed, "mistyped": mistyped,
             "extras": extras}
    return report, truth


# the records of both documents, as json.dumps(..., indent=2) lays each out
# in its document's list
_FINDING = """    {{
      "file": {},
      "line": {},
      "type": {},
      "message": {}
    }}"""
_MISTYPING = """    {{
      "bugId": {},
      "reportedType": {}
    }}"""
_EXTRA = """    {{
      "file": {},
      "line": {},
      "type": {}
    }}"""


def dump_report(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a report or truth document
    as ``generate_tool_report`` builds it, with its keys in that order,
    written from a template per record and joined once."""
    if "findings" in doc:
        lists = {"findings": (_FINDING.format(
            _json_str(f["file"]), f["line"], _json_str(f["type"]),
            _json_str(f["message"])) for f in doc["findings"])}
    else:
        lists = {
            "missed": ("    " + _json_str(bug_id) for bug_id in doc["missed"]),
            "mistyped": (_MISTYPING.format(
                _json_str(m["bugId"]), _json_str(m["reportedType"]))
                for m in doc["mistyped"]),
            "extras": (_EXTRA.format(
                _json_str(e["file"]), e["line"], _json_str(e["type"]))
                for e in doc["extras"])}
    parts = ['{\n  "tool": ', _json_str(doc["tool"])]
    for key, items in lists.items():
        parts.append(f',\n  "{key}": [\n')
        opened = len(parts)
        for item in items:
            parts += (item, ",\n")
        parts[-1] = "\n  ]" if len(parts) > opened else f',\n  "{key}": []'
    parts.append("\n}\n")
    return "".join(parts)
