"""Synthetic analyzer reports with planted, recoverable ground truth.

Each virtual tool reads the bug logs of a corpus and emits findings the way
a real analyzer would: it skips bugs outside its capability set, misses a
seeded fraction, reports another fraction under the wrong type, and adds
spurious findings on the lines that no bug covers (``buglog.held``).
Everything derives from a stable per-(tool, file) seed, so a run is
reproducible bit for bit, and the planted truth is written alongside the
report so an evaluation of the report can be checked for exact agreement.

``dump_report`` writes both documents, and only them, byte for byte as
``json.dumps(..., indent=2)`` would: each record laid out by one f-string
over the C string encoder, as the bug-log writer does, and the document in
one join over its parts.
"""

from __future__ import annotations

import random
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_str

from .buglog import BugLogEntry, held, widened
from .errors import DomainError, MalformedDocument, shown
from .model import BugType, child_seed

EXTRA_TYPE_LABEL = "assembly-usage"


class OracleSpec(namedtuple("OracleSpec", "miss_rate mistype_rate "
                            "extra_per_file seed")):
    """How a virtual tool errs: the share of its bugs it misses, the share
    it reports under a wrong type, the spurious findings it adds per file,
    and the seed they are drawn from. A spec is immutable and compares by
    value; the constructor checks it, and ``_replace`` skips the checks."""

    __slots__ = ()

    def __new__(cls, miss_rate: float = 0.0, mistype_rate: float = 0.0,
                extra_per_file: int = 0, seed: int = 0) -> OracleSpec:
        if not 0.0 <= miss_rate <= 1.0:
            raise DomainError(f"miss rate out of range: {miss_rate}")
        if not 0.0 <= mistype_rate <= 1.0:
            raise DomainError(f"mistype rate out of range: {mistype_rate}")
        if miss_rate + mistype_rate > 1.0:
            raise DomainError("miss rate plus mistype rate exceeds 1")
        if extra_per_file < 0:
            raise DomainError("extra findings per file must be >= 0")
        return super().__new__(cls, miss_rate, mistype_rate, extra_per_file,
                               seed)


def uninjected_lines(entries: list[BugLogEntry], text: str) -> list[int]:
    """In order, the lines of the buggy file ``text`` that none of its
    bug-log ``entries`` covers; MalformedDocument naming the first entry
    that ends past the file's last line."""
    last = text.count("\n") + (0 if text.endswith("\n") else 1)
    past = next((e for e in entries if e.end_line > last), None)
    if past is not None:
        raise MalformedDocument(f"entry {shown(past.bug_id)} ends at line "
                                f"{past.end_line}, past the file's {last} "
                                f"line(s)")
    lines = range(1, last + 1)
    covered = held(sorted(map(widened, entries)), lines)
    return [line for line in lines if line not in covered]


def generate_tool_report(tool: str, capable: frozenset[BugType],
                         buglogs: dict[str, list[BugLogEntry]],
                         open_lines: dict[str, list[int]],
                         spec: OracleSpec) -> tuple[dict, dict]:
    """Report and truth documents for one virtual tool over a corpus, with
    its spurious findings on ``open_lines``, each file's
    ``uninjected_lines(buglogs[file], text)``."""
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


def dump_report(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a report or truth document
    as ``generate_tool_report`` builds it, with its keys in that order:
    each record laid out by one f-string, each list joined once, and the
    document in one join over its parts."""
    if "findings" in doc:
        lists = {"findings": [
            f'    {{\n      "file": {_json_str(f["file"])},\n'
            f'      "line": {f["line"]},\n'
            f'      "type": {_json_str(f["type"])},\n'
            f'      "message": {_json_str(f["message"])}\n    }}'
            for f in doc["findings"]]}
    else:
        lists = {
            "missed": [f"    {_json_str(bug_id)}" for bug_id in doc["missed"]],
            "mistyped": [
                f'    {{\n      "bugId": {_json_str(m["bugId"])},\n'
                f'      "reportedType": {_json_str(m["reportedType"])}\n    }}'
                for m in doc["mistyped"]],
            "extras": [
                f'    {{\n      "file": {_json_str(e["file"])},\n'
                f'      "line": {e["line"]},\n'
                f'      "type": {_json_str(e["type"])}\n    }}'
                for e in doc["extras"]]}
    parts = ['{\n  "tool": ', _json_str(doc["tool"])]
    for key, items in lists.items():
        parts += (f',\n  "{key}": [\n', ",\n".join(items), "\n  ]") if items \
            else (f',\n  "{key}": []',)
    parts.append("\n}\n")
    return "".join(parts)
