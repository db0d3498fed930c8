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

from .errors import DomainError
from .injector import BugLogEntry
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


def generate_tool_report(tool: str, capable: frozenset[BugType],
                         buglogs: dict[str, list[BugLogEntry]],
                         line_counts: dict[str, int],
                         spec: OracleSpec) -> tuple[dict, dict]:
    """Report and truth documents for one virtual tool over a corpus."""
    findings: list[dict] = []
    missed: list[str] = []
    mistyped: list[dict] = []
    extras: list[dict] = []
    wrong_choices = {bt: [o.value for o in BugType if o is not bt]
                     for bt in BugType}
    type_labels = sorted(bt.value for bt in capable) + [EXTRA_TYPE_LABEL]

    for file in sorted(buglogs):
        entries = buglogs[file]
        rng = random.Random(child_seed(spec.seed, tool, file))
        covered: set[int] = set()
        for entry in entries:  # lines past the end of the file are not open
            covered.update(range(entry.start_line,
                                 min(entry.end_line, line_counts[file]) + 1))
        for entry in entries:
            if entry.bug_type not in capable:
                continue
            line = rng.randint(entry.start_line, entry.end_line)
            roll = rng.random()
            if roll < spec.miss_rate:
                missed.append(entry.bug_id)
                continue
            if roll < spec.miss_rate + spec.mistype_rate:
                wrong = rng.choice(wrong_choices[entry.bug_type])
                mistyped.append({"bugId": entry.bug_id, "reportedType": wrong})
                findings.append({"file": file, "line": line, "type": wrong,
                                 "message": f"synthetic report for {entry.bug_id}"})
                continue
            findings.append({"file": file, "line": line,
                             "type": entry.bug_type.value,
                             "message": f"synthetic report for {entry.bug_id}"})
        open_lines = sorted(set(range(1, line_counts[file] + 1)) - covered)
        for line in rng.sample(open_lines,
                               min(spec.extra_per_file, len(open_lines))):
            label = rng.choice(type_labels)
            findings.append({"file": file, "line": line, "type": label,
                             "message": "synthetic spurious finding"})
            extras.append({"file": file, "line": line, "type": label})

    report = {"tool": tool, "findings": findings}
    truth = {"tool": tool, "missed": missed, "mistyped": mistyped,
             "extras": extras}
    return report, truth


def dump_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
