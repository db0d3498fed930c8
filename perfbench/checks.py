"""Correctness checks on a run's outputs, made outside the timed region.

Each check returns a list of failure messages; an empty list means the
outputs are correct. The expectations come from counts recorded with the
benchmark and from the planted truth files, never from the outputs being
checked or from the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path


EXPECTED_BUGS = Path(__file__).resolve().parent / "expected_bugs.json"


def expected_bugs() -> dict[str, dict[str, dict[str, int]]]:
    """Per bundled file and bug type, the bugs planted by each approach.

    Recorded from the library locator on the unmodified bundled corpus (one
    bug per located site, 9911 in all), so that a locator or injector that
    finds fewer sites fails the check instead of just running faster.
    """
    return json.loads(EXPECTED_BUGS.read_text(encoding="utf-8"))


def check_buglogs(buggy: Path, origins: dict[str, tuple[str, ...]],
                  expected: dict[str, dict[str, dict[str, int]]]
                  ) -> tuple[list[str], int]:
    """Every (file, type) plants, per approach, the bugs of its originals.

    Returns the failures and the number of bugs planted.
    """
    failures: list[str] = []
    planted = 0
    bug_types = sorted({t for per_type in expected.values() for t in per_type})
    for generated, sources in sorted(origins.items()):
        stem = generated[:-len(".sol")]
        for bug_type in bug_types:
            path = buggy / f"{stem}.{bug_type}.buglog.json"
            if not path.is_file():
                failures.append(f"missing bug log {path.name}")
                continue
            entries = json.loads(path.read_text(encoding="utf-8"))
            planted += len(entries)
            got = Counter(e["approach"] for e in entries)
            want: Counter = Counter()
            for original in sources:
                want.update(expected[original].get(bug_type, {}))
            wrong = [e["bugId"] for e in entries if e["bugType"] != bug_type]
            if got != want or wrong:
                failures.append(f"{path.name}: bugs {dict(got)}, expected "
                                f"{dict(want)}; wrong type: {wrong[:3]}")
    return failures, planted


def _thresholds(capabilities: dict[str, list[str]]) -> dict[str, int]:
    """Majority threshold per type: strictly more than half the capable tools."""
    capable = Counter(t for types in capabilities.values() for t in types)
    return {bug_type: count // 2 + 1 for bug_type, count in capable.items()}


def check_closure(reports: Path, scored: Path,
                  capabilities: dict[str, list[str]]) -> list[str]:
    """Replay the planted truth and require the scored tables to match it.

    Per tool: unreported bugs equal the planted misses, misidentified bugs
    equal the planted mistypes, and the reported and filtered false
    positives per type (plus the Miscellaneous count) equal what the
    majority rule gives on the planted extras alone.
    """
    truths = {}
    for path in sorted(reports.glob("*.truth.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        truths[doc["tool"]] = doc
    if set(truths) != set(capabilities):
        return [f"truth files for {sorted(truths)}, "
                f"capabilities name {sorted(capabilities)}"]
    limits = _thresholds(capabilities)
    support: dict[tuple, set[str]] = {}
    for tool, truth in truths.items():
        for extra in truth["extras"]:
            if extra["type"] in limits:
                key = (extra["file"], extra["line"], extra["type"])
                support.setdefault(key, set()).add(tool)

    got_fn: dict[str, list[int]] = {}
    with open(scored / "fn_scores.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            totals = got_fn.setdefault(row["tool"], [0, 0])
            totals[0] += int(row["unreported"])
            totals[1] += int(row["misidentified"])
    got_fp: dict[str, dict[str, list[int]]] = {}
    got_misc: dict[str, int] = {}
    with open(scored / "fp_cells.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["bugType"] not in limits:
                got_misc[row["tool"]] = int(row["reported"])
            elif int(row["reported"]) or int(row["filtered"]):
                got_fp.setdefault(row["tool"], {})[row["bugType"]] = [
                    int(row["reported"]), int(row["filtered"])]

    failures = []
    for tool, truth in sorted(truths.items()):
        want_fn = [len(truth["missed"]), len(truth["mistyped"])]
        want_fp: dict[str, list[int]] = {}
        want_misc = 0
        for extra in truth["extras"]:
            if extra["type"] not in limits:
                want_misc += 1
                continue
            key = (extra["file"], extra["line"], extra["type"])
            cell = want_fp.setdefault(extra["type"], [0, 0])
            cell[0] += 1
            cell[1] += len(support[key]) < limits[extra["type"]]
        if got_fn.get(tool) != want_fn:
            failures.append(f"{tool}: unreported/misidentified "
                            f"{got_fn.get(tool)} != planted {want_fn}")
        if got_fp.get(tool, {}) != want_fp:
            failures.append(f"{tool}: reported/filtered FP "
                            f"{got_fp.get(tool, {})} != planted {want_fp}")
        if got_misc.get(tool, 0) != want_misc:
            failures.append(f"{tool}: Miscellaneous {got_misc.get(tool, 0)} "
                            f"!= planted {want_misc}")
    return failures


def digest(directory: Path) -> str:
    """SHA-256 over the relative path and bytes of every file, in order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(directory)}\0".encode())
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
