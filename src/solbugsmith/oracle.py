"""Synthetic analyzer reports with planted, recoverable ground truth.

Each virtual tool reads the bug logs of a corpus and emits findings the way
a real analyzer would: it skips bugs outside its capability set, misses a
seeded fraction, reports another fraction under the wrong type, and adds
spurious findings on lines where nothing was injected. Everything derives
from a stable per-(tool, file) seed, so a run is reproducible bit for bit,
and the planted truth is written alongside the report so an evaluation of
the report can be checked for exact agreement.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from .buglog import BugLogEntry
from .errors import DomainError
from .model import BugType

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


def child_seed(seed: int, *parts: str) -> int:
    label = "|".join([str(seed), *parts]).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(label, digest_size=8).digest(), "big")


def uninjected_lines(buglogs: dict[str, list[BugLogEntry]],
                     line_counts: dict[str, int]) -> dict[str, list[int]]:
    """Per file, in order, its lines that no bug-log entry's range holds."""
    open_lines = {}
    for file, entries in buglogs.items():
        covered: set[int] = set()
        for entry in entries:  # lines past the end of the file are not open
            covered.update(range(entry.start_line,
                                 min(entry.end_line, line_counts[file]) + 1))
        open_lines[file] = sorted(set(range(1, line_counts[file] + 1))
                                  - covered)
    return open_lines


def generate_tool_report(tool: str, capable: frozenset[BugType],
                         buglogs: dict[str, list[BugLogEntry]],
                         line_counts: dict[str, int],
                         spec: OracleSpec,
                         open_lines: dict[str, list[int]] | None = None) \
        -> tuple[dict, dict]:
    """Report and truth documents for one virtual tool over a corpus.
    ``open_lines`` is ``uninjected_lines(buglogs, line_counts)``, which a
    caller that reports several tools can work out once for all of them."""
    if open_lines is None:
        open_lines = uninjected_lines(buglogs, line_counts)
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
    """``json.dumps(doc, indent=2) + "\\n"``. A report or truth document, an
    object whose fields are scalars, lists of scalars and lists of flat
    objects with the same keys in the same order, is written a column of
    values at a time; any other document by ``json.dumps``."""
    fields = []
    try:
        for key, value in doc.items():
            text = _list_json(value) if type(value) is list \
                else _column([value])[0]
            fields.append(f"  {_json_str(key)}: {text}")
    except (AttributeError, TypeError):  # not an object, a key that is not
        return json.dumps(doc, indent=2) + "\n"  # a string, a nested value
    return "{\n" + ",\n".join(fields) + "\n}\n" if fields else "{}\n"


def _list_json(items: list) -> str:
    """``items`` laid out as the value of a document field; TypeError unless
    they are scalars or flat non-empty objects with the same keys."""
    if not items:
        return "[]"
    if type(items[0]) is not dict:
        return "[\n    " + ",\n    ".join(_column(items)) + "\n  ]"
    shapes = set(map(tuple, items))
    keys = shapes.pop()
    if shapes or not keys:
        raise TypeError("objects with different or no keys")
    labels = [f"      {_json_str(key)}: " for key in keys]
    # after each value, the text up to the next one: a comma and the next
    # label, or after an object's last value, its end and the next object's
    # start and first label
    after = [",\n" + label for label in labels[1:]]
    after.append("\n    },\n    {\n" + labels[0])
    # the values of key i, then the texts after them, at 2i and 2i + 1 of
    # every 2k parts
    step = 2 * len(keys)
    parts = [""] * (step * len(items))
    for i, (key, text) in enumerate(zip(keys, after)):
        parts[2 * i::step] = _column(list(map(itemgetter(key), items)))
        parts[2 * i + 1::step] = [text] * len(items)
    parts[-1] = ""  # the last object ends the list
    return "[\n    {\n" + labels[0] + "".join(parts) + "\n    }\n  ]"


_SCALARS = frozenset((str, int, float, bool, type(None)))
_encode = json.JSONEncoder().encode


def _column(values: list) -> list[str]:
    """Each of ``values`` as JSON; TypeError unless all of them are
    strings, numbers, booleans or null."""
    try:  # strings: each distinct one is encoded once
        unique = dict.fromkeys(values)
        encoded = dict(zip(unique, map(_json_str, unique)))
    except TypeError:  # not all of them are strings
        kinds = set(map(type, values))
        if kinds == {int}:
            return list(map(int.__repr__, values))
        if not kinds <= _SCALARS:
            raise TypeError("not a scalar") from None
        return list(map(_encode, values))
    return list(map(encoded.__getitem__, values))
